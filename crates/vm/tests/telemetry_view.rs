//! A run's named telemetry against the assembly it replaced.
//!
//! A [`RunResult`] keeps its instruments as plain fields — the cycle
//! buckets, the engine, the monitor's merged instruments and per-shard
//! health — and [`RunResult::telemetry`] names them on demand. Until then
//! each engine built the named snapshot as it finished: `sim.rs` and
//! `real.rs` pushed the `vm.*` names, and `merge_monitors` merged one
//! `Monitor::snapshot()` per shard and appended `monitor.shard.<i>.*`. That
//! assembly is transcribed below, and every case demands the view equal it
//! entry for entry and in order: both engines, monitor `Off`, `SendOnly`
//! and `Enabled`, one shard and four, and runs that complete, crash (in
//! `@init` and in the parallel section) and hang.
//!
//! On the sim engine the reference does not read the run's monitor fields
//! at all: it replays the run's captured events into one `Monitor` per
//! shard, routed as the inline monitor routes them, and assembles its
//! numbers from those. The real engine's shard monitors cannot be rebuilt
//! (queue occupancy belongs to the schedule), so there the reference merges
//! only each shard's events and queue mark itself, takes the other merged
//! numbers from the run, and checks the names, their order and which number
//! goes under which name.

use bw_monitor::{shard_of, CheckTable, Monitor, MonitorTelemetry};
use bw_telemetry::TelemetrySnapshot;
use bw_vm::{
    engine, EngineKind, ExecConfig, MonitorMode, ProgramImage, RunOutcome, RunResult, VmTelemetry,
};

/// The former `MonitorTelemetry::snapshot` and `Monitor::snapshot`: one
/// monitor's numbers under their names. Nothing is ever dropped, so
/// `monitor.events_dropped` is 0.
fn monitor_snapshot(
    t: &MonitorTelemetry,
    events_processed: u64,
    violations: u64,
    pending_instances: u64,
) -> TelemetrySnapshot {
    let mut s = TelemetrySnapshot::new();
    s.push_gauge("monitor.queue_high_water", t.queue_high_water);
    s.push_counter("monitor.flush.calls", t.flush_calls);
    s.push_counter("monitor.flush.batch_total", t.flush_batch_total);
    s.push_gauge("monitor.flush.batch_max", t.flush_batch_max);
    s.push_gauge("monitor.pending_high_water", t.pending_high_water);
    s.push_counter(
        "monitor.violations.shared_uniform",
        t.violations_shared_uniform,
    );
    s.push_counter(
        "monitor.violations.tid_predicate",
        t.violations_tid_predicate,
    );
    s.push_counter(
        "monitor.violations.group_witness",
        t.violations_group_witness,
    );
    s.push_counter("monitor.events_processed", events_processed);
    s.push_counter("monitor.events_dropped", 0);
    s.push_counter("monitor.violations", violations);
    s.push_gauge("monitor.pending_instances", pending_instances);
    s
}

/// What `merge_monitors` read of one shard's monitor.
struct Shard {
    snapshot: TelemetrySnapshot,
    events_processed: u64,
    queue_high_water: u64,
}

/// The former `merge_monitors`, its telemetry half.
fn merge_monitors(shards: &[Shard]) -> TelemetrySnapshot {
    let sharded = shards.len() > 1;
    let mut telemetry = TelemetrySnapshot::new();
    for (i, shard) in shards.iter().enumerate() {
        telemetry.merge(&shard.snapshot);
        if sharded {
            telemetry.push_counter(
                format!("monitor.shard.{i}.events_processed"),
                shard.events_processed,
            );
            telemetry.push_gauge(
                format!("monitor.shard.{i}.queue_high_water"),
                shard.queue_high_water,
            );
        }
    }
    telemetry
}

/// The former `VmTelemetry::snapshot`.
fn cycles_snapshot(c: &VmTelemetry) -> TelemetrySnapshot {
    let mut s = TelemetrySnapshot::new();
    s.push_counter("vm.cycles.alu", c.cycles_alu);
    s.push_counter("vm.cycles.mul", c.cycles_mul);
    s.push_counter("vm.cycles.div", c.cycles_div);
    s.push_counter("vm.cycles.local_mem", c.cycles_local_mem);
    s.push_counter("vm.cycles.shared", c.cycles_shared);
    s.push_counter("vm.cycles.atomic", c.cycles_atomic);
    s.push_counter("vm.cycles.call", c.cycles_call);
    s.push_counter("vm.cycles.output", c.cycles_output);
    s.push_counter("vm.cycles.events", c.cycles_events);
    s.push_counter("vm.cycles.sync", c.cycles_sync);
    s
}

/// The `vm.*` counters both engines pushed after their first part.
fn push_vm_counters(telemetry: &mut TelemetrySnapshot, engine: &str, r: &RunResult) {
    telemetry.push_counter(engine, 1);
    telemetry.push_counter("vm.instructions", r.total_steps);
    telemetry.push_counter("vm.events_sent", r.events_sent);
    telemetry.push_counter(
        "vm.branches",
        r.branches_per_thread.iter().copied().sum::<u64>(),
    );
    for (tid, steps) in r.steps_per_thread.iter().enumerate() {
        telemetry.push_counter(format!("vm.thread.{tid}.steps"), *steps);
    }
}

/// The sim engine as it was: the cycle buckets, the `vm.*` counters, then
/// the verdict's telemetry when the inline monitor ran — rebuilt here from
/// the run's captured events, one monitor per shard.
fn sim_assembly(image: &ProgramImage, config: &ExecConfig, r: &RunResult) -> TelemetrySnapshot {
    let mut telemetry = cycles_snapshot(&r.cycles);
    push_vm_counters(&mut telemetry, "vm.engine.sim", r);
    if config.monitor == MonitorMode::Enabled {
        let shards = config.monitor_shards.unwrap_or(1);
        let checks = CheckTable::from_plan(&image.plan);
        let mut monitors: Vec<Monitor> = (0..shards)
            .map(|_| Monitor::new(checks.clone(), config.nthreads as usize))
            .collect();
        for &event in &r.branch_events {
            monitors[shard_of(event.site, event.branch, shards)].process(event);
        }
        if r.outcome == RunOutcome::Completed {
            for monitor in &mut monitors {
                monitor.flush();
            }
        }
        let shards: Vec<Shard> = monitors
            .iter()
            .map(|m| Shard {
                snapshot: monitor_snapshot(
                    m.telemetry(),
                    m.events_processed(),
                    m.violations().len() as u64,
                    m.pending_instances() as u64,
                ),
                events_processed: m.events_processed(),
                queue_high_water: m.telemetry().queue_high_water,
            })
            .collect();
        telemetry.merge(&merge_monitors(&shards));
    }
    telemetry
}

/// The real engine as it was: the verdict's telemetry (empty without a
/// monitor), then the `vm.*` counters. A sharded run keeps each shard's
/// events and queue mark, so those are merged here from the shards; the
/// other merged numbers stand in shard 0's place and the other shards read
/// zero, which merges to the same sums and maxima.
fn real_assembly(r: &RunResult) -> TelemetrySnapshot {
    let mut telemetry = match &r.monitor {
        None => TelemetrySnapshot::new(),
        Some(v) => {
            let health: Vec<_> = if v.shards.is_empty() {
                vec![(v.events_processed, v.instruments.queue_high_water)]
            } else {
                v.shards
                    .iter()
                    .map(|s| (s.events_processed, s.queue_high_water))
                    .collect()
            };
            let shards: Vec<Shard> = health
                .into_iter()
                .enumerate()
                .map(|(i, (processed, high_water))| {
                    let (instruments, violations, pending) = if i == 0 {
                        (v.instruments.clone(), v.violations, v.pending_instances)
                    } else {
                        (MonitorTelemetry::default(), 0, 0)
                    };
                    let instruments =
                        MonitorTelemetry { queue_high_water: high_water, ..instruments };
                    Shard {
                        snapshot: monitor_snapshot(&instruments, processed, violations, pending),
                        events_processed: processed,
                        queue_high_water: high_water,
                    }
                })
                .collect();
            merge_monitors(&shards)
        }
    };
    push_vm_counters(&mut telemetry, "vm.engine.real", r);
    telemetry
}

/// Programs that complete, crash in the parallel section, crash in `@init`
/// and hang, each after sending events where it can: a name, how the run
/// ends (as `RunOutcome`'s `Debug` begins) and the source.
const PROGRAMS: [(&str, &str, &str); 4] = [
    (
        "completes",
        "Completed",
        r#"
        shared int n = 12;
        int acc = 0;
        int data[64];
        mutex m;
        barrier b;
        @init func setup() {
            for (var i: int = 0; i < 64; i = i + 1) { data[i] = i % 5; }
        }
        @spmd func f() {
            var t: int = threadid();
            for (var i: int = 0; i < n; i = i + 1) {
                if (i == t) { output(i); }
                if (data[t * n + i] > 2) { output(t); }
            }
            lock(m);
            acc = acc + 1;
            unlock(m);
            barrier(b);
            for (var k: int = 0; k < n; k = k + 1) {
                if (k > 3) { acc = acc + 0; }
            }
        }
        @fini func done() { output(acc); }
        "#,
    ),
    (
        "crashes",
        "Crashed",
        r#"
        shared int n = 16;
        shared int zero = 0;
        @spmd func f() {
            var t: int = threadid();
            for (var i: int = 0; i < n; i = i + 1) {
                if (i == 9) {
                    if (t == 1) { output(n / zero); }
                }
                output(i);
            }
        }
        "#,
    ),
    (
        "crashes in @init",
        "Crashed",
        r#"
        shared int zero = 0;
        @init func setup() { output(1 / zero); }
        @spmd func f() { output(threadid()); }
        "#,
    ),
    (
        "hangs",
        "Hung",
        r#"
        shared int n = 8;
        @spmd func f() {
            for (var i: int = 0; i < n; i = i + 1) {
                if (i == threadid()) { output(i); }
            }
            var spin: int = 0;
            while (true) { spin = spin + 1; }
        }
        "#,
    ),
];

#[test]
fn the_view_names_what_the_engines_assembled() {
    for (name, ends, source) in PROGRAMS {
        let image =
            ProgramImage::prepare_default(bw_ir::frontend::compile(source).expect("compiles"));
        for kind in [EngineKind::Sim, EngineKind::Real] {
            for monitor in [
                MonitorMode::Off,
                MonitorMode::SendOnly,
                MonitorMode::Enabled,
            ] {
                for shards in [None, Some(4)] {
                    let config = ExecConfig::new(4)
                        .monitor(monitor)
                        .monitor_shards(shards)
                        .max_steps(20_000)
                        .capture_events(true);
                    let r = engine(kind).run(&image, &config);
                    let what = format!("{name}, {kind} {monitor:?} shards {shards:?}");
                    assert!(
                        format!("{:?}", r.outcome).starts_with(ends),
                        "{what}: {:?}",
                        r.outcome
                    );
                    let expected = match kind {
                        EngineKind::Sim => sim_assembly(&image, &config, &r),
                        EngineKind::Real => real_assembly(&r),
                    };
                    let got = r.telemetry();
                    assert_eq!(got.counters(), expected.counters(), "counters: {what}");
                    assert_eq!(got.gauges(), expected.gauges(), "gauges: {what}");
                    assert_eq!(got, expected, "{what}");
                    let sends = monitor != MonitorMode::Off && name != "crashes in @init";
                    assert_eq!(r.events_sent > 0, sends, "{what}: events sent");
                }
            }
        }
    }
}
