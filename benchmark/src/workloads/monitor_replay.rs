//! `monitor-replay`: the paper's lock-free runtime without an interpreter.
//!
//! Set-up captures the branch events of FMM and water-nsquared at 4 threads
//! (`capture_events`) and interleaves the four threads' streams anew from
//! `--seed`: each thread's events stay in program order, but whose turn it
//! is and for how many events is drawn afresh, as a different schedule of
//! the application threads would. (Seeding the ports' input data instead
//! changes how much work a stream is: `events_per_s` then moved 22 % from
//! seed to seed.) One unit of work replays each stream once: this thread is
//! the single producer, pushing every event into its SPMD thread's SPSC
//! ring, and one monitor thread (flat topology) drains and checks. Rings
//! hold a whole stream, so any drop is a bug, and the verdict must equal the
//! inline monitor's: nothing flagged, everything processed.

use std::collections::HashMap;
use std::time::Instant;

use blockwatch::{Benchmark, Blockwatch, Size};
use bw_analysis::CheckKind;
use bw_monitor::{
    check_instance, spsc_queue, BranchEvent, CheckTable, MonitorBuilder, MonitorTopology,
    MonitorVerdict, Report,
};
use bw_vm::{Engine, ExecConfig, RunOutcome, SimEngine, SplitMix64};

use super::{distinct_instances, port_source, replay_inline, Ctx};
use crate::clock::{Clock, Meter, Reps};
use crate::spec::slug;
use crate::trace::{Layer, Tracer};

const NTHREADS: usize = 4;
const PORTS: [Benchmark; 2] = [Benchmark::Fmm, Benchmark::WaterNsquared];
/// Longest run of events one thread sends before another takes its turn.
const MAX_BURST: i64 = 128;

/// Merges the per-thread streams of `events` into a new send order drawn
/// from `seed`; each thread's own order is kept.
fn interleave(events: Vec<BranchEvent>, seed: u64) -> Vec<BranchEvent> {
    let mut queues: Vec<std::collections::VecDeque<BranchEvent>> =
        (0..NTHREADS).map(|_| Default::default()).collect();
    for event in &events {
        queues[event.thread as usize].push_back(*event);
    }
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(events.len());
    while out.len() < events.len() {
        let thread = rng.below(NTHREADS as i64) as usize;
        let burst = 1 + rng.below(MAX_BURST) as usize;
        let take = burst.min(queues[thread].len());
        out.extend(queues[thread].drain(..take));
    }
    out
}

/// One captured event stream and what checks it.
struct Stream {
    bench: Benchmark,
    checks: CheckTable,
    events: Vec<BranchEvent>,
    /// Ring capacity: the longest per-thread stream, so nothing can drop.
    capacity: usize,
}

/// Pushes `events` through per-thread rings to one monitor thread. Returns
/// the verdict with the seconds from the first send to the last send and
/// from the last send to the join.
fn replay_threaded(
    stream: &Stream,
    capacity: usize,
    tracer: &mut Tracer,
    mut meter: Option<&mut Meter>,
) -> (MonitorVerdict, f64, f64) {
    // Spawning allocates the rings; the timed slice starts at the first
    // send.
    let (mut senders, handle) = MonitorBuilder::new(stream.checks.clone(), NTHREADS)
        .topology(MonitorTopology::Flat)
        .queue_capacity(capacity)
        .spawn();
    if let Some(meter) = meter.as_deref_mut() {
        meter.begin();
    }
    let open = tracer.enter(Layer::Monitor, "monitor.threaded");
    let started = Instant::now();
    let send = tracer.enter(Layer::Monitor, "monitor.send");
    for event in &stream.events {
        senders[event.thread as usize].send(*event);
    }
    drop(senders);
    tracer.exit(send);
    let sent = started.elapsed().as_secs_f64();
    let wait = tracer.enter(Layer::Monitor, "monitor.drain_wait");
    let verdict = handle.join();
    tracer.exit(wait);
    let joined = started.elapsed().as_secs_f64();
    tracer.exit(open);
    if let Some(meter) = meter {
        meter.mark(stream.events.len() as u64);
    }
    (verdict, sent, joined - sent)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let size = if ctx.quick { Size::Test } else { Size::Small };
    let seed = ctx.seed;

    let streams: Vec<Stream> = ctx.setup(|tracer| {
        PORTS
            .iter()
            .map(|&bench| {
                let source = port_source(tracer, bench, size);
                let bw = tracer
                    .span(Layer::Core, "core.compile", || Blockwatch::compile(&source))
                    .expect("SPLASH port compiles");
                let config = ExecConfig::new(NTHREADS as u32).capture_events(true);
                let result =
                    tracer.span(Layer::Vm, "vm.sim.capture", || SimEngine.run(bw.image(), &config));
                assert_eq!(result.outcome, RunOutcome::Completed, "{} completes", bench.name());
                let mut per_thread = [0usize; NTHREADS];
                for event in &result.branch_events {
                    per_thread[event.thread as usize] += 1;
                }
                Stream {
                    bench,
                    checks: CheckTable::from_plan(bw.plan()),
                    capacity: per_thread.iter().max().copied().unwrap_or(0).max(1),
                    events: tracer.span(Layer::Bench, "interleave", || {
                        interleave(result.branch_events, seed)
                    }),
                }
            })
            .collect()
    });

    let total_events: u64 = streams.iter().map(|s| s.events.len() as u64).sum();
    ctx.out.attempted = total_events;
    let mut instances = 0;
    for stream in &streams {
        let distinct = distinct_instances(&stream.events);
        ctx.fact(&format!("monitor-replay.{}.events", slug(stream.bench)), stream.events.len());
        ctx.fact(&format!("monitor-replay.{}.instances", slug(stream.bench)), distinct);
        instances += distinct;
    }

    // The inline monitor's verdict on each stream is the reference, and a
    // stream with one direction bit flipped must be flagged: a monitor that
    // flags nothing at all would pass every other check here.
    for stream in &streams {
        let (clean, _) = replay_inline(ctx, stream.checks.clone(), &stream.events, NTHREADS);
        if clean.events_processed() != stream.events.len() as u64 || clean.detected() {
            ctx.wrong(format!(
                "{}: inline monitor processed {} of {} events and flagged {}",
                slug(stream.bench),
                clean.events_processed(),
                stream.events.len(),
                clean.violations().len()
            ));
        }
        let flagged = flipped(stream).map(|corrupt| {
            replay_inline(ctx, stream.checks.clone(), &corrupt, NTHREADS).0.detected()
        });
        match flagged {
            Some(true) => {}
            Some(_) => ctx.wrong(format!(
                "{}: negative control — a flipped direction bit was not flagged",
                slug(stream.bench)
            )),
            None => ctx.wrong(format!(
                "{}: negative control — no shared-category instance to corrupt",
                slug(stream.bench)
            )),
        }
    }

    // The timed region: one slice per stream, from first send to join.
    let traced = ctx.traced;
    let (seconds, min_reps) = if traced { (0.0, 2) } else { (ctx.seconds, ctx.min_reps()) };
    let root = ctx.tracer.enter(Layer::Bench, "timed");
    let mut bad = Vec::new();
    let (mut dropped, mut flagged, mut unprocessed) = (0u64, 0u64, 0u64);
    let (mut send_s, mut wait_s) = (0.0, 0.0);
    let tracer = &mut ctx.tracer;
    let reps = Reps::run(&mut ctx.meter, seconds, min_reps, 4096, |meter, rep| {
        for stream in &streams {
            let (verdict, sent, waited) =
                replay_threaded(stream, stream.capacity, tracer, Some(&mut *meter));
            if rep == 0 {
                dropped += verdict.events_dropped;
                flagged += verdict.violations.len() as u64;
                unprocessed +=
                    (stream.events.len() as u64).saturating_sub(verdict.events_processed);
                send_s += sent;
                wait_s += waited;
            } else if verdict.events_dropped != 0
                || !verdict.violations.is_empty()
                || verdict.events_processed != stream.events.len() as u64
            {
                bad.push(format!("{} repetition {rep}", slug(stream.bench)));
            }
        }
    });
    ctx.tracer.exit(root);
    ctx.out.failed += dropped + flagged + unprocessed;
    if dropped + flagged + unprocessed > 0 {
        ctx.wrong(format!(
            "threaded monitor dropped {dropped}, flagged {flagged}, left {unprocessed} unprocessed"
        ));
    }
    if !bad.is_empty() {
        ctx.wrong(format!("verdict differs from the inline monitor's in {}", bad.join(", ")));
    }

    ctx.metric("events_per_s", reps.rate(|_| true));
    ctx.info("events_per_raw_s", format!("{:.0}", reps.raw_rate(|_| true)));
    ctx.info("repetitions", reps.reps.len());
    ctx.info("events_per_unit", total_events);

    if traced {
        ctx.layer("monitor.threaded.flat.ns_per_event", 1e9 / reps.rate(|_| true));
        ctx.layer("monitor.send.ns_per_event", send_s * 1e9 / total_events as f64);
        ctx.layer("monitor.drain_wait_us", wait_s * 1e6 / streams.len() as f64);
        ctx.layer("monitor.events_processed", (total_events - unprocessed) as f64);
        ctx.layer("monitor.events_dropped", dropped as f64);
        ctx.layer("monitor.violations", flagged as f64);
        ctx.layer("monitor.instances", instances as f64);
        // The traced run makes the same calls as the untraced one; its only
        // extra cost is three spans per replay.
        ctx.layer("bench.trace_overhead_ratio", 1.0);
        probes(ctx, &streams);
        ctx.layer_metrics_from_spans();
    }
}

/// The stream with the direction bit of one event flipped: the first event
/// of a `shared`-category instance that at least one other thread reports
/// too, so the uniformity check has something to compare it with.
fn flipped(stream: &Stream) -> Option<Vec<BranchEvent>> {
    let mut reporters: HashMap<(u32, u64, u64), u32> = HashMap::new();
    for e in &stream.events {
        *reporters.entry((e.branch, e.site, e.iter)).or_insert(0) += 1;
    }
    let victim = stream.events.iter().position(|e| {
        stream.checks.kind(e.branch) == Some(CheckKind::SharedUniform)
            && reporters[&(e.branch, e.site, e.iter)] >= 2
    })?;
    let mut corrupt = stream.events.clone();
    corrupt[victim].taken = !corrupt[victim].taken;
    Some(corrupt)
}

/// Micro-probes of the monitor's parts, traced run only.
fn probes(ctx: &mut Ctx, streams: &[Stream]) {
    // All but the last are single-threaded and short: CPU time, as in every
    // other workload (stolen time comes in ticks of 10 ms).
    let wall = std::mem::replace(&mut ctx.meter, Meter::new(Clock::ProcessCpu));

    // The inline monitor over the same streams.
    let (mut events, mut secs) = (0u64, 0.0);
    for stream in streams {
        let (_, nominal_s) = replay_inline(ctx, stream.checks.clone(), &stream.events, NTHREADS);
        ctx.layer(
            &format!("monitor.inline.{}.ns_per_event", slug(stream.bench)),
            nominal_s * 1e9 / stream.events.len().max(1) as f64,
        );
        events += stream.events.len() as u64;
        secs += nominal_s;
    }
    ctx.layer("monitor.inline.ns_per_event", secs * 1e9 / events.max(1) as f64);

    // One push and one pop of the SPSC ring, no contention.
    const OPS: u64 = 2_000_000;
    let (producer, consumer) = spsc_queue::<BranchEvent>(1024);
    let event = streams[0].events[0];
    let open = ctx.tracer.enter(Layer::Monitor, "monitor.spsc");
    ctx.meter.slice(OPS, || {
        for _ in 0..OPS {
            let _ = producer.push(std::hint::black_box(event));
            std::hint::black_box(consumer.pop());
        }
    });
    ctx.tracer.exit(open);
    let nominal_s = ctx.meter.take()[0].nominal_s;
    ctx.layer("monitor.spsc.ns_per_op", nominal_s * 1e9 / OPS as f64);

    // One four-reporter uniformity check.
    let reports: Vec<Report> =
        (0..NTHREADS as u32).map(|thread| Report { thread, witness: 42, taken: true }).collect();
    let open = ctx.tracer.enter(Layer::Monitor, "monitor.check_instance");
    ctx.meter.slice(OPS, || {
        for _ in 0..OPS {
            let _ = std::hint::black_box(check_instance(
                CheckKind::SharedUniform,
                std::hint::black_box(&reports),
            ));
        }
    });
    ctx.tracer.exit(open);
    let nominal_s = ctx.meter.take()[0].nominal_s;
    ctx.layer("monitor.check_instance.ns", nominal_s * 1e9 / OPS as f64);

    ctx.meter = wall;

    // The default ring size against a producer that never waits: the share
    // of events the sender gives up on.
    let (mut sent, mut dropped) = (0u64, 0u64);
    for stream in streams {
        let (verdict, _, _) = replay_threaded(stream, 1 << 14, &mut ctx.tracer, None);
        sent += stream.events.len() as u64;
        dropped += verdict.events_dropped;
    }
    ctx.layer("monitor.default_capacity.drop_share", dropped as f64 / sent.max(1) as f64);
}
