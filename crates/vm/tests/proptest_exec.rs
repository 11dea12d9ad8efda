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
//! flow freely. Each property runs 32 programs from a fixed-seed
//! SplitMix64; a failure names its case index and prints the program.

use bw_vm::{Engine, ExecConfig, MonitorMode, ProgramImage, SimEngine, SplitMix64};

/// Per-thread array slice width used by generated programs.
const SLICE: usize = 8;

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

enum Stmt {
    Decl(Expr),
    Assign(u8, Expr),
    Output(Expr),
    SliceWrite(Box<Expr>, Expr),
    For { bound: u8, body: Vec<Stmt> },
    If { lhs: Expr, rhs: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt> },
    Barrier,
}

/// An expression at most `depth` operators deep: at each level one leaf to
/// two operators.
fn expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(5) {
            0 => Expr::Const(rng.next_u64() as i8),
            1 => Expr::Var(rng.below(4) as u8),
            2 => Expr::Tid,
            3 => Expr::NumThreads,
            _ => Expr::SharedScalar,
        };
    }
    let op = rng.below(4);
    let mut sub = || Box::new(expr(rng, depth - 1));
    match op {
        0 => Expr::Add(sub(), sub()),
        1 => Expr::Mul(sub(), sub()),
        2 => Expr::Min(sub(), sub()),
        _ => Expr::SliceRead(sub()),
    }
}

/// A statement nesting at most `depth` loops and ifs: three simple
/// statements to two nested ones. `uniform` decides whether barriers may
/// appear (they must be executed by every thread, so only in control
/// contexts every thread reaches).
fn stmt(rng: &mut SplitMix64, depth: u32, uniform: bool) -> Stmt {
    if depth > 0 && rng.below(5) >= 3 {
        return if rng.below(2) == 0 {
            let bound = 1 + rng.below(4) as u8;
            Stmt::For { bound, body: stmts(rng, 4, depth - 1, uniform) }
        } else {
            Stmt::If {
                lhs: expr(rng, 3),
                rhs: expr(rng, 3),
                then_body: stmts(rng, 4, depth - 1, false),
                else_body: stmts(rng, 3, depth - 1, false),
            }
        };
    }
    match rng.below(if uniform { 5 } else { 4 }) {
        0 => Stmt::Decl(expr(rng, 3)),
        1 => Stmt::Assign(rng.below(4) as u8, expr(rng, 3)),
        2 => Stmt::Output(expr(rng, 3)),
        3 => Stmt::SliceWrite(Box::new(expr(rng, 3)), expr(rng, 3)),
        _ => Stmt::Barrier,
    }
}

/// Fewer than `max` statements.
fn stmts(rng: &mut SplitMix64, max: i64, depth: u32, uniform: bool) -> Vec<Stmt> {
    (0..rng.below(max)).map(|_| stmt(rng, depth, uniform)).collect()
}

/// The source of a program of one to seven top-level statements.
fn program(rng: &mut SplitMix64) -> String {
    let top = 1 + rng.below(7);
    to_source(&(0..top).map(|_| stmt(rng, 2, true)).collect::<Vec<_>>())
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

fn prepare(source: &str) -> ProgramImage {
    let module = bw_ir::frontend::compile(source)
        .unwrap_or_else(|e| panic!("generated program failed to compile: {e}\n{source}"));
    ProgramImage::prepare_default(module)
}

#[test]
fn generated_programs_run_deterministically() {
    let mut rng = SplitMix64::new(1);
    for case in 0..32 {
        let source = program(&mut rng);
        let image = prepare(&source);
        let a = SimEngine.run(&image, &ExecConfig::new(4));
        let b = SimEngine.run(&image, &ExecConfig::new(4));
        assert_eq!(a.outputs, b.outputs, "case {case}:\n{source}");
        assert_eq!(a.total_steps, b.total_steps, "case {case}:\n{source}");
        assert_eq!(a.parallel_cycles, b.parallel_cycles, "case {case}:\n{source}");
    }
}

#[test]
fn monitor_never_changes_semantics() {
    let mut rng = SplitMix64::new(2);
    for case in 0..32 {
        let source = program(&mut rng);
        let image = prepare(&source);
        let mut on = ExecConfig::new(4);
        on.monitor = MonitorMode::Enabled;
        let mut off = ExecConfig::new(4);
        off.monitor = MonitorMode::Off;
        let a = SimEngine.run(&image, &on);
        let b = SimEngine.run(&image, &off);
        assert_eq!(a.outcome, b.outcome, "case {case}:\n{source}");
        assert_eq!(a.outputs, b.outputs, "case {case}:\n{source}");
        assert_eq!(a.branches_per_thread, b.branches_per_thread, "case {case}:\n{source}");
    }
}

#[test]
fn fault_free_runs_never_violate() {
    let mut rng = SplitMix64::new(3);
    for case in 0..32 {
        let source = program(&mut rng);
        let image = prepare(&source);
        for nthreads in [1u32, 2, 4, 8] {
            let result = SimEngine.run(&image, &ExecConfig::new(nthreads));
            assert!(
                result.violations.is_empty(),
                "case {case}: false positive at {nthreads} threads: {:?}\n{source}",
                result.violations
            );
        }
    }
}
