//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their bounds, and the per-layer metrics. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`--print-benchmark-json`)
//! and a test keeps the two equal.

use std::fmt::Write as _;

use blockwatch::Benchmark;

use crate::clock::Clock;
use crate::json::{number, quote};
use crate::workloads::{campaign, fig6, fuzz, monitor_replay, prepare, Ctx};

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

/// One workload.
#[derive(Debug)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why it was chosen, in one line.
    pub why: &'static str,
    /// The clock that times it: the CPU time the process consumes, except
    /// where the metric is how long two cooperating threads take together.
    pub clock: Clock,
    /// Runs it.
    pub run: fn(&mut Ctx),
}

/// The seven workloads.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "fig6-overhead",
        why: "Paper Figure 6: seven SPLASH ports at reference size, {4,32} threads, monitor off/on; \
              the only workload pinned to results/, and the longest interpreter+inline-monitor run",
        clock: Clock::ProcessCpu,
        run: fig6::run,
    },
    Workload {
        name: "campaign-raytrace-flip",
        why: "Branch-flip campaign on raytrace: interpreter-bound (monitor ~10% of a run), 76% Masked; \
              dispatch, snapshot and early-exit work shows here, a monitor change must not",
        clock: Clock::ProcessCpu,
        run: |ctx| campaign::run(ctx, &campaign::RAYTRACE_FLIP),
    },
    Workload {
        name: "campaign-fmm-cond",
        why: "Condition-bit-flip campaign on FMM: same fault layer, other model, monitor-bound (~65%); \
              a dispatch speed-up barely moves it, a monitor-table fix does",
        clock: Clock::ProcessCpu,
        run: |ctx| campaign::run(ctx, &campaign::FMM_COND),
    },
    Workload {
        name: "campaign-ocean-traced",
        why: "Campaign on ocean with the JSONL recorder and span sink on, then three readers parse the \
              trace: telemetry write path beside the read path; 86% Detected",
        clock: Clock::ProcessCpu,
        run: |ctx| campaign::run(ctx, &campaign::OCEAN_TRACED),
    },
    Workload {
        name: "monitor-replay",
        why: "Captured FMM and water branch events replayed through the SPSC ring to one monitor thread: \
              the paper's lock-free runtime with a real site mix and no interpreter",
        clock: Clock::Wall,
        run: monitor_replay::run,
    },
    Workload {
        name: "fuzz-oracle",
        why: "Generated modules through check_module: many tiny programs, 65% oracle runs, 19% analysis \
              parity, 7% text round-trip, a mix no SPLASH port has",
        clock: Clock::ProcessCpu,
        run: fuzz::run,
    },
    Workload {
        name: "prepare-pipeline",
        why: "Compile the seven ports and print/parse/prepare generated modules: analysis-bound, zero \
              simulated steps; where work moved into set-up by a VM change becomes visible",
        clock: Clock::ProcessCpu,
        run: prepare::run,
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Whether two runs with the same `--seed` must print the same value.
    pub exact: bool,
}

/// What a workload prints for an end-to-end metric it does not exercise.
/// Every run must print every metric and none may be 0; a constant can
/// neither regress nor improve.
pub const NOT_EXERCISED: f64 = 1.0;

/// The end-to-end metrics. `error_rate` is 0 on a healthy run and a declared
/// metric may never be 0, so it is declared as its complement,
/// `success_rate`; every run prints both. The result line's `failed` counts
/// only operations the benchmark could not carry out or whose output is wrong
/// (none on a correct run); `error_rate` also counts the generated modules
/// the program's own oracle fails or that do not prepare, 0.2–1 % of them on
/// `fuzz-oracle` at most seeds.
///
/// The issue asked for 10 % on every timed metric. Ten runs of one commit
/// at ten seeds spread 3.5–7 % (quartile distance over median) after the
/// meter's corrections, but the medians of two such sets an hour apart
/// still differed by up to 10 %, and the benchmark contract wants spreads
/// below a third of the bound; so every timed metric has the 25 % the
/// contract allows at most, and a finer claim needs alternating pairs of
/// runs, not this gate. `peak_rss_mb` repeats within 3 % except on
/// `monitor-replay`, where how far the monitor thread lags the producer
/// decides how many instances are pending at once (252–282 MB over ten
/// seeds), so it has the 25 % too.
pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, exact: false },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25, exact: false },
    // Exact per seed. From seed to seed `fuzz-oracle` reads 0.992–0.998.
    EndToEnd {
        name: "success_rate",
        unit: "share",
        better: Better::Higher,
        bound: 0.02,
        exact: true,
    },
    EndToEnd {
        name: "sim_steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "overhead_geomean_t4",
        unit: "x",
        better: Better::Lower,
        bound: 0.001,
        exact: true,
    },
    EndToEnd {
        name: "overhead_geomean_t32",
        unit: "x",
        better: Better::Lower,
        bound: 0.001,
        exact: true,
    },
    EndToEnd {
        name: "injections_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    // Exact per seed, and the seed-0 tallies are pinned by the oracle. A
    // sample statistic of 80–160 injections otherwise: it spread 1–5 %
    // over ten seeds.
    EndToEnd {
        name: "sdc_coverage",
        unit: "share",
        better: Better::Higher,
        bound: 0.2,
        exact: true,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "seeds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "modules_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "trace_read_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
];

/// One per-layer metric.
#[derive(Debug)]
pub struct PerLayer {
    /// Metric name, `<crate>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

/// Key-safe name of a SPLASH port.
pub fn slug(bench: Benchmark) -> &'static str {
    match bench {
        Benchmark::OceanContig => "ocean-contig",
        Benchmark::Fft => "fft",
        Benchmark::Fmm => "fmm",
        Benchmark::OceanNoncontig => "ocean-noncontig",
        Benchmark::Radix => "radix",
        Benchmark::Raytrace => "raytrace",
        Benchmark::WaterNsquared => "water-nsquared",
    }
}

/// The per-layer metrics, layer by layer. Times come from the traced run's
/// spans (wall-clock as measured, unless the name says otherwise), counts
/// are exact. A workload that never calls into a layer prints 0 for it.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(PerLayer { name: name.to_string(), unit, better });
    };
    add("splash.source_us", "us", Lower);
    add("splash.source_bytes", "count", Lower);

    add("ir.frontend.compile_us", "us", Lower);
    add("ir.frontend.mb_per_s", "MB/s", Higher);
    add("ir.text.print_us", "us", Lower);
    add("ir.text.parse_us", "us", Lower);
    add("ir.verify_us", "us", Lower);
    add("ir.scc_us", "us", Lower);
    add("ir.funcs", "count", Lower);
    add("ir.blocks", "count", Lower);
    add("ir.values", "count", Lower);

    add("analysis.seq_us", "us", Lower);
    add("analysis.seq_values_per_s", "1/s", Higher);
    add("analysis.par1_us", "us", Lower);
    add("analysis.par2_us", "us", Lower);
    add("analysis.plan_us", "us", Lower);
    add("analysis.branches", "count", Lower);
    add("analysis.instrumented", "count", Lower);
    for cat in ["shared", "threadid", "partial", "none"] {
        add(&format!("analysis.cat.{cat}"), "count", Lower);
    }

    add("vm.prepare_us", "us", Lower);
    add("vm.link_us", "us", Lower);
    add("vm.sim.off.steps_per_s", "1/s", Higher);
    add("vm.sim.sendonly.steps_per_s", "1/s", Higher);
    add("vm.sim.on.steps_per_s", "1/s", Higher);
    add("vm.sim.off.ns_per_step", "ns", Lower);
    for bench in Benchmark::ALL {
        add(&format!("vm.sim.{}.off_ms", slug(bench)), "ms", Lower);
        add(&format!("vm.sim.{}.on_ms", slug(bench)), "ms", Lower);
    }
    add("vm.steps", "count", Lower);
    add("vm.branches", "count", Lower);
    add("vm.events_sent", "count", Lower);
    add("vm.cycles.off", "count", Lower);
    add("vm.cycles.on", "count", Lower);

    add("monitor.inline.ns_per_event", "ns", Lower);
    for bench in Benchmark::ALL {
        add(&format!("monitor.inline.{}.ns_per_event", slug(bench)), "ns", Lower);
    }
    add("monitor.share_of_sim", "share", Lower);
    for bench in Benchmark::ALL {
        add(&format!("monitor.share_of_sim.{}", slug(bench)), "share", Lower);
    }
    add("monitor.threaded.flat.ns_per_event", "ns", Lower);
    add("monitor.send.ns_per_event", "ns", Lower);
    add("monitor.drain_wait_us", "us", Lower);
    add("monitor.spsc.ns_per_op", "ns", Lower);
    add("monitor.check_instance.ns", "ns", Lower);
    add("monitor.default_capacity.drop_share", "share", Lower);
    add("monitor.events_processed", "count", Lower);
    add("monitor.events_dropped", "count", Lower);
    add("monitor.instances", "count", Lower);
    add("monitor.violations", "count", Lower);

    add("fault.golden_us", "us", Lower);
    add("fault.plan_us", "us", Lower);
    add("fault.replay_us_p50", "us", Lower);
    add("fault.replay_us_p99", "us", Lower);
    add("fault.classify_us", "us", Lower);
    add("fault.reduce_us", "us", Lower);
    add("fault.replay_steps_ratio", "ratio", Lower);
    add("fault.pool.w2_injections_per_s", "1/s", Higher);
    for outcome in ["not_activated", "detected", "crashed", "hung", "masked", "sdc"] {
        add(&format!("fault.outcome.{outcome}"), "count", Lower);
    }

    add("gen.generate_us", "us", Lower);
    add("gen.roundtrip_us", "us", Lower);
    add("gen.parity_us", "us", Lower);
    add("gen.prepare_us", "us", Lower);
    add("gen.oracle_us", "us", Lower);
    add("gen.seed_us_p50", "us", Lower);
    add("gen.seed_us_p99", "us", Lower);
    add("gen.oracle_runs", "count", Lower);
    add("gen.failed_seeds", "count", Lower);

    add("telemetry.record.ns_per_record", "ns", Lower);
    add("telemetry.parse.records_per_s", "1/s", Higher);
    add("telemetry.sink_overhead_ratio", "ratio", Higher);
    add("telemetry.trace_records", "count", Lower);
    add("telemetry.trace_bytes", "count", Lower);

    add("core.compile_us", "us", Lower);
    add("core.campaign_runner_overhead_us", "us", Lower);
    add("core.stats_us", "us", Lower);
    add("core.report_us", "us", Lower);
    add("core.timeline_us", "us", Lower);
    add("core.chrome_us", "us", Lower);

    // The harness's own account of the traced run.
    for layer in crate::trace::Layer::PROGRAM {
        add(&format!("bench.self_ms.{}", layer.name()), "ms", Lower);
    }
    add("bench.attributed_share", "share", Higher);
    add("bench.trace_overhead_ratio", "ratio", Lower);
    add("bench.clock_ratio", "ratio", Higher);
    add("bench.spans", "count", Lower);
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ =
            writeln!(out, "    {{\"name\": {}, \"why\": {}}}{comma}", quote(w.name), quote(w.why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.word()),
            number(m.bound)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            quote(&m.name),
            quote(m.unit),
            quote(m.better.word())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.chars().count() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name.to_string()));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(names.insert(m.name.to_string()));
        }
        for m in &layers {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(names.insert(m.name.clone()), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, benchmark_json(), "regenerate with `bwbench --print-benchmark-json`");
    }
}
