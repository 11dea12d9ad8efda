//! Quickstart: protect the paper's Figure 1 program with BLOCKWATCH.
//!
//! Compiles the example SPMD program, prints the similarity category of
//! every branch (Table I), runs it fault-free, then injects the exact
//! fault of the paper's Section II-D — corrupting `procid` in one thread
//! so it wrongly takes the leader branch — and shows the monitor flagging
//! the violation.
//!
//! Run with: `cargo run -p blockwatch --example quickstart`

use blockwatch::fault::{InjectionHook, InjectionPlan};
use blockwatch::vm::{ExecConfig, SimEngine};
use blockwatch::{Blockwatch, FaultModel};

const FIGURE1: &str = r#"
    module figure1;
    tid_counter int id = 0;
    shared int im = 16;
    int gp[64];
    mutex l;

    @init func main() {
        for (var i: int = 0; i < 64; i = i + 1) { gp[i] = rand(32); }
    }

    @spmd func slave() {
        lock(l);
        var procid: int = fetch_add(id, 1);     // the paper's procid = id++
        unlock(l);

        if (procid == 0) {                      // Branch 1: threadID
            output(procid);
        }
        var private: int = 0;
        for (var i: int = 0; i <= im - 1; i = i + 1) {   // Branch 2: shared
            if (gp[procid] > im - 1) {          // Branch 3: none
                private = 1;
            } else {
                private = 0 - 1;
            }
            if (private > 0) {                  // Branch 4: partial
                output(private);
            }
        }
    }
"#;

fn main() {
    let bw = Blockwatch::compile(FIGURE1).expect("figure 1 compiles");

    println!("== static similarity analysis (paper Table I / Figure 1) ==");
    for branch in bw.analysis().parallel_branches() {
        let func = &bw.image().module.func(branch.func).name;
        println!(
            "  branch {} in `{}` (loop depth {}): {}",
            branch.id, func, branch.loop_depth, branch.category
        );
    }
    let h = bw.histogram();
    println!(
        "  -> {} branches: {} shared, {} threadID, {} partial, {} none",
        h.total(),
        h.shared,
        h.thread_id,
        h.partial,
        h.none
    );

    println!("\n== fault-free run, 4 threads ==");
    let clean = bw.run(4);
    println!("  outcome: {:?}, outputs: {:?}", clean.outcome, clean.outputs);
    println!("  monitor events: {}, violations: {}", clean.events_sent, clean.violations.len());
    assert!(!clean.detected(), "no false positives");

    println!("\n== injecting the paper's Section II-D fault ==");
    println!("  (flip thread 2's first branch -- it wrongly takes `procid == 0`)");
    let hook = InjectionHook::new(InjectionPlan {
        tid: 2,
        dyn_index: 1,
        model: FaultModel::BranchFlip,
        value_choice: 0,
        bit: 0,
    });
    let faulty = SimEngine.run_hooked(bw.image(), &ExecConfig::new(4), &hook);
    println!("  outcome: {:?}", faulty.outcome);
    for v in &faulty.violations {
        println!("  VIOLATION: branch {} -> {:?} ({} reporters)", v.branch, v.kind, v.reporters);
    }
    assert!(faulty.detected(), "the threadID check catches the second taker");
    println!("\nBLOCKWATCH detected the control-data error, as in the paper.");
}
