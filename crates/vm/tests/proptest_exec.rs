//! Property tests over randomly generated SPMD programs:
//!
//! 1. **Determinism** — the simulated engine is a pure function of
//!    (program, thread count, seed).
//! 2. **Instrumentation neutrality** — enabling the monitor never changes
//!    program semantics (outputs, branch counts).
//! 3. **Zero false positives** — fault-free runs never report violations,
//!    at any thread count (the paper's core guarantee, which follows from
//!    the soundness of the static classification).
//!
//! Programs are generated from a grammar that guarantees termination
//! (constant loop bounds), race-freedom (threads write disjoint,
//! tid-indexed array slices) and uniform barrier participation, but
//! otherwise mixes shared, thread-ID-dependent and data-dependent control
//! flow freely.

use proptest::prelude::*;

use bw_vm::{Engine, ExecConfig, MonitorMode, ProgramImage, SimEngine};

/// Per-thread array slice width used by generated programs.
const SLICE: usize = 8;

#[derive(Clone, Debug)]
enum Expr {
    Const(i8),
    Var(u8),
    Tid,
    NumThreads,
    SliceRead(Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
    SharedScalar,
}

#[derive(Clone, Debug)]
enum Stmt {
    Decl(Expr),
    Assign(u8, Expr),
    Output(Expr),
    SliceWrite(Box<Expr>, Expr),
    For { bound: u8, body: Vec<Stmt> },
    If { lhs: Expr, rhs: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt> },
    Barrier,
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<i8>().prop_map(Expr::Const),
        (0u8..4).prop_map(Expr::Var),
        Just(Expr::Tid),
        Just(Expr::NumThreads),
        Just(Expr::SharedScalar),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Min(Box::new(a), Box::new(b))),
            inner.prop_map(|e| Expr::SliceRead(Box::new(e))),
        ]
    })
}

/// `uniform` decides whether barriers may appear (they must be executed by
/// every thread, so only in control contexts every thread reaches).
fn stmt_strategy(depth: u32, uniform: bool) -> BoxedStrategy<Stmt> {
    let e = expr_strategy;
    let mut simple = vec![
        e().prop_map(Stmt::Decl).boxed(),
        ((0u8..4), e()).prop_map(|(v, x)| Stmt::Assign(v, x)).boxed(),
        e().prop_map(Stmt::Output).boxed(),
        (e(), e()).prop_map(|(i, v)| Stmt::SliceWrite(Box::new(i), v)).boxed(),
    ];
    if uniform {
        simple.push(Just(Stmt::Barrier).boxed());
    }
    let simple = proptest::strategy::Union::new(simple);
    if depth == 0 {
        return simple.boxed();
    }
    let nested = prop_oneof![
        (
            1u8..5,
            proptest::collection::vec(stmt_strategy(depth - 1, uniform), 0..4)
        )
            .prop_map(|(bound, body)| Stmt::For { bound, body }),
        (
            e(),
            e(),
            proptest::collection::vec(stmt_strategy(depth - 1, false), 0..4),
            proptest::collection::vec(stmt_strategy(depth - 1, false), 0..3)
        )
            .prop_map(|(lhs, rhs, then_body, else_body)| Stmt::If {
                lhs,
                rhs,
                then_body,
                else_body
            }),
    ];
    prop_oneof![3 => simple, 2 => nested].boxed()
}

fn program_strategy() -> impl Strategy<Value = Vec<Stmt>> {
    proptest::collection::vec(stmt_strategy(2, true), 1..8)
}

fn expr_source(e: &Expr, out: &mut String) {
    match e {
        Expr::Const(c) => out.push_str(&format!("({c})")),
        Expr::Var(v) => out.push_str(&format!("v{v}")),
        Expr::Tid => out.push('t'),
        Expr::NumThreads => out.push_str("numthreads()"),
        Expr::SharedScalar => out.push_str("cfg"),
        Expr::SliceRead(idx) => {
            out.push_str("slice[t * 8 + iwrap(");
            expr_source(idx, out);
            out.push_str(")]");
        }
        Expr::Add(a, b) | Expr::Mul(a, b) | Expr::Min(a, b) => {
            let (open, mid, close) = match e {
                Expr::Add(..) => ("(", " + ", ")"),
                Expr::Mul(..) => ("(", " * ", ")"),
                _ => ("min(", ", ", ")"),
            };
            out.push_str(open);
            expr_source(a, out);
            out.push_str(mid);
            expr_source(b, out);
            out.push_str(close);
        }
    }
}

fn stmt_source(s: &Stmt, label: &mut u32, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Decl(e) => {
            // Redeclaration is avoided by reusing the four fixed v0..v3
            // variables; a decl just assigns.
            *label += 1;
            out.push_str(&format!("{pad}v{} = ", *label % 4));
            expr_source(e, out);
            out.push_str(";\n");
        }
        Stmt::Assign(v, e) => {
            out.push_str(&format!("{pad}v{v} = "));
            expr_source(e, out);
            out.push_str(";\n");
        }
        Stmt::Output(e) => {
            out.push_str(&format!("{pad}output("));
            expr_source(e, out);
            out.push_str(");\n");
        }
        Stmt::SliceWrite(i, v) => {
            out.push_str(&format!("{pad}slice[t * 8 + iwrap("));
            expr_source(i, out);
            out.push_str(")] = ");
            expr_source(v, out);
            out.push_str(";\n");
        }
        Stmt::For { bound, body } => {
            *label += 1;
            let var = format!("k{label}");
            out.push_str(&format!("{pad}for (var {var}: int = 0; {var} < {bound}; {var} = {var} + 1) {{\n"));
            for s in body {
                stmt_source(s, label, indent + 1, out);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        Stmt::If { lhs, rhs, then_body, else_body } => {
            out.push_str(&format!("{pad}if ("));
            expr_source(lhs, out);
            out.push_str(" < ");
            expr_source(rhs, out);
            out.push_str(") {\n");
            for s in then_body {
                stmt_source(s, label, indent + 1, out);
            }
            out.push_str(&format!("{pad}}} else {{\n"));
            for s in else_body {
                stmt_source(s, label, indent + 1, out);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        Stmt::Barrier => out.push_str(&format!("{pad}barrier(sync);\n")),
    }
}

fn to_source(stmts: &[Stmt]) -> String {
    let mut body = String::new();
    let mut label = 0;
    for s in stmts {
        stmt_source(s, &mut label, 1, &mut body);
    }
    format!(
        r#"
module generated;
shared int cfg = 13;
int slice[{total}];
barrier sync;

// Wraps any integer into a valid slice offset.
func iwrap(x: int) -> int {{
    var m: int = x % {slice};
    if (m < 0) {{ m = m + {slice}; }}
    return m;
}}

@spmd func slave() {{
    var t: int = threadid();
    var v0: int = 0;
    var v1: int = 1;
    var v2: int = t;
    var v3: int = cfg;
{body}
    output(v0 + v1 + v2 + v3);
}}
"#,
        total = 32 * SLICE,
        slice = SLICE,
    )
}

fn prepare(stmts: &[Stmt]) -> ProgramImage {
    let source = to_source(stmts);
    let module = bw_ir::frontend::compile(&source)
        .unwrap_or_else(|e| panic!("generated program failed to compile: {e}\n{source}"));
    ProgramImage::prepare_default(module)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn generated_programs_run_deterministically(stmts in program_strategy()) {
        let image = prepare(&stmts);
        let a = SimEngine.run(&image, &ExecConfig::new(4));
        let b = SimEngine.run(&image, &ExecConfig::new(4));
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.total_steps, b.total_steps);
        prop_assert_eq!(a.parallel_cycles, b.parallel_cycles);
    }

    #[test]
    fn monitor_never_changes_semantics(stmts in program_strategy()) {
        let image = prepare(&stmts);
        let mut on = ExecConfig::new(4);
        on.monitor = MonitorMode::Enabled;
        let mut off = ExecConfig::new(4);
        off.monitor = MonitorMode::Off;
        let a = SimEngine.run(&image, &on);
        let b = SimEngine.run(&image, &off);
        prop_assert_eq!(a.outcome, b.outcome);
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.branches_per_thread, b.branches_per_thread);
    }

    #[test]
    fn fault_free_runs_never_violate(stmts in program_strategy()) {
        let image = prepare(&stmts);
        for nthreads in [1u32, 2, 4, 8] {
            let result = SimEngine.run(&image, &ExecConfig::new(nthreads));
            prop_assert!(
                result.violations.is_empty(),
                "false positive at {} threads: {:?}",
                nthreads,
                result.violations
            );
        }
    }
}
