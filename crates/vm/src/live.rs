//! Live (process-cumulative) engine metrics for the global registry.
//!
//! Every engine run folds its headline [`crate::RunResult`] numbers into
//! the registry's `live.engine.*` counters when it finishes, so the
//! sampler and the `/metrics` endpoint see events/sec and run throughput
//! *across* runs — exactly what a campaign looks like from the outside:
//! thousands of short runs whose individual snapshots never exist at the
//! same time.
//!
//! The fold happens once per run (cold) with relaxed atomics, and the
//! values flow only into the global [`MetricRegistry`] — never back into
//! a `RunResult` — so deterministic snapshots are untouched.

use std::sync::{Arc, OnceLock};

use bw_telemetry::{Counter, MetricRegistry};

use crate::engine::{EngineKind, RunResult};

/// The registry's `live.engine.*` counters, resolved on first use.
struct Live {
    sim_runs: Arc<Counter>,
    real_runs: Arc<Counter>,
    events_sent: Arc<Counter>,
    events_processed: Arc<Counter>,
    total_steps: Arc<Counter>,
    violations: Arc<Counter>,
}

fn live() -> &'static Live {
    static LIVE: OnceLock<Live> = OnceLock::new();
    LIVE.get_or_init(|| {
        let registry = MetricRegistry::global();
        Live {
            sim_runs: registry.counter("live.engine.sim.runs"),
            real_runs: registry.counter("live.engine.real.runs"),
            events_sent: registry.counter("live.engine.events_sent"),
            events_processed: registry.counter("live.engine.events_processed"),
            total_steps: registry.counter("live.engine.total_steps"),
            violations: registry.counter("live.engine.violations"),
        }
    })
}

/// Folds one finished run into the live registry.
pub(crate) fn record_run(result: &RunResult) {
    let live = live();
    match result.engine {
        EngineKind::Sim => live.sim_runs.inc(),
        EngineKind::Real => live.real_runs.inc(),
    }
    live.events_sent.add(result.events_sent);
    live.events_processed.add(result.events_processed);
    live.total_steps.add(result.total_steps);
    live.violations.add(result.violations.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_run_reaches_the_global_registry() {
        let result = RunResult {
            outcome: crate::engine::RunOutcome::Completed,
            outputs: Vec::new(),
            parallel_cycles: 0,
            violations: Vec::new(),
            violation_reports: Vec::new(),
            total_steps: 10,
            events_sent: 5,
            events_processed: 5,
            events_dropped: 0,
            branches_per_thread: Vec::new(),
            steps_per_thread: Vec::new(),
            engine: EngineKind::Sim,
            cycles: Default::default(),
            monitor: None,
            branch_events: Vec::new(),
        };
        record_run(&result);
        let snap = MetricRegistry::global().snapshot();
        assert!(snap.counter("live.engine.sim.runs").unwrap_or(0) >= 1);
        assert!(snap.counter("live.engine.events_sent").unwrap_or(0) >= 5);
    }
}
