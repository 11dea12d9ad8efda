//! The exhibit harnesses' tests, and — under the module path they have had
//! since before `reports.rs` was split — those of the trace views in
//! [`crate::trace`], which they drive through `parse` and `render`.

use bw_telemetry::{HistogramSnapshot, TelemetrySnapshot, Value};

use super::*;
use crate::trace::{render_telemetry, ForensicsReport, SeriesReport, TraceSummary};

#[test]
fn trace_summary_aggregates_records() {
    let trace = concat!(
        r#"{"seq":0,"t_us":1,"ev":"span","name":"campaign.plan","dur_us":10}"#, "\n",
        r#"{"seq":1,"t_us":2,"ev":"injection","index":0,"worker":0,"outcome":"sdc","dur_us":100}"#, "\n",
        r#"{"seq":2,"t_us":3,"ev":"injection","index":1,"worker":0,"outcome":"detected","dur_us":300}"#, "\n",
        r#"{"seq":3,"t_us":4,"ev":"worker","worker":0,"injections":2,"wall_us":500,"busy_us":400}"#, "\n",
        r#"{"seq":4,"t_us":5,"ev":"counter","name":"monitor.violations","value":3}"#, "\n",
        r#"{"seq":5,"t_us":6,"ev":"counter","name":"monitor.violations","value":2}"#, "\n",
        r#"{"seq":6,"t_us":7,"ev":"gauge","name":"monitor.queue_high_water","value":7}"#, "\n",
        r#"{"seq":7,"t_us":8,"ev":"histogram","name":"campaign.injection_us","count":2,"sum":400,"max":300}"#, "\n",
    );
    let s = TraceSummary::parse(trace).unwrap();
    assert_eq!(s.records, 8);
    assert_eq!(s.metrics.counters(), [("monitor.violations".to_string(), 5)]);
    assert_eq!(s.metrics.gauges(), [("monitor.queue_high_water".to_string(), 7)]);
    assert_eq!(s.injection_us.count, 2);
    assert_eq!(s.injection_us.max_us, 300);
    assert_eq!(s.workers.len(), 1);
    assert!((s.workers[0].throughput() - 4000.0).abs() < 1e-9);
    assert_eq!(s.spans.len(), 1);
    assert_eq!(s.spans[0].dur.total_us, 10);
    let rendered = s.render();
    assert!(rendered.contains("monitor.violations"));
    assert!(rendered.contains("sdc=1"));
    assert!(rendered.contains("worker 0"));
    // A `worker` record from before the step counts existed: zeros.
    assert_eq!((s.workers[0].steps_run, s.workers[0].steps_skipped), (0, 0));
    assert!(rendered.contains("steps 0 run, 0 skipped (0.0%)"), "{rendered}");
}

#[test]
fn trace_summary_renders_the_skipped_share_of_a_worker() {
    let trace = concat!(
        r#"{"seq":0,"t_us":4,"ev":"worker","worker":1,"injections":2,"wall_us":500,"#,
        r#""busy_us":400,"steps_run":300,"steps_skipped":100}"#,
        "\n",
    );
    let s = TraceSummary::parse(trace).unwrap();
    assert_eq!((s.workers[0].steps_run, s.workers[0].steps_skipped), (300, 100));
    assert!((s.workers[0].skipped_share() - 0.25).abs() < 1e-12);
    assert!(s.render().contains("steps 300 run, 100 skipped (25.0%)"), "{}", s.render());
    let json = s.to_json();
    assert!(json.contains(r#""worker.1.steps_run":300"#), "{json}");
    assert!(json.contains(r#""worker.1.steps_skipped":100"#), "{json}");
}

#[test]
fn trace_summary_renders_monitor_health() {
    // An older trace's nonzero drop counter is a counter like any other.
    let trace = concat!(
        r#"{"seq":0,"t_us":1,"ev":"counter","name":"monitor.events_dropped","value":4}"#, "\n",
        r#"{"seq":1,"t_us":2,"ev":"gauge","name":"monitor.pending_high_water","value":9}"#, "\n",
    );
    let rendered = TraceSummary::parse(trace).unwrap().render();
    assert!(rendered.contains("monitor health:"), "{rendered}");
    assert!(rendered.contains("pending-table high water: 9 instance(s)"), "{rendered}");
    assert!(!rendered.contains("events dropped"), "{rendered}");
    // Absent metrics render nothing.
    let trace = r#"{"seq":0,"t_us":1,"ev":"counter","name":"vm.instructions","value":5}"#;
    let rendered = TraceSummary::parse(trace).unwrap().render();
    assert!(!rendered.contains("monitor health"), "{rendered}");
}

#[test]
fn trace_summary_renders_per_shard_health() {
    let trace = concat!(
        r#"{"seq":0,"t_us":1,"ev":"counter","name":"monitor.shard.0.events_processed","value":120}"#, "\n",
        r#"{"seq":1,"t_us":2,"ev":"counter","name":"monitor.shard.1.events_processed","value":80}"#, "\n",
        // An older writer's per-shard drop counter, which the view skips.
        r#"{"seq":2,"t_us":3,"ev":"counter","name":"monitor.shard.1.events_dropped","value":3}"#, "\n",
        r#"{"seq":3,"t_us":4,"ev":"gauge","name":"monitor.shard.0.queue_high_water","value":17}"#, "\n",
    );
    let rendered = TraceSummary::parse(trace).unwrap().render();
    assert!(rendered.contains("monitor shards:"), "{rendered}");
    assert!(
        rendered.contains("shard 0   processed 120  queue high water 17"),
        "{rendered}"
    );
    assert!(
        rendered.contains("shard 1   processed 80  queue high water 0"),
        "{rendered}"
    );
    // Campaign traces record the golden run's telemetry under a
    // `golden.` prefix; the shard section must still pick it up.
    let trace = concat!(
        r#"{"seq":0,"t_us":1,"ev":"counter","name":"golden.monitor.shard.0.events_processed","value":300}"#, "\n",
        r#"{"seq":1,"t_us":2,"ev":"gauge","name":"golden.monitor.shard.0.queue_high_water","value":9}"#, "\n",
    );
    let rendered = TraceSummary::parse(trace).unwrap().render();
    assert!(
        rendered.contains("shard 0   processed 300  queue high water 9"),
        "{rendered}"
    );
    // Unsharded traces get no shard section.
    let trace = r#"{"seq":0,"t_us":1,"ev":"counter","name":"monitor.events_dropped","value":0}"#;
    let rendered = TraceSummary::parse(trace).unwrap().render();
    assert!(!rendered.contains("monitor shards"), "{rendered}");
}

/// A two-injection trace with one detection carrying full provenance.
fn forensics_trace() -> &'static str {
    concat!(
        r#"{"seq":0,"t_us":1,"ev":"injection","index":0,"worker":1,"outcome":"detected","branch":"2","category":"shared","dur_us":10}"#, "\n",
        r#"{"seq":1,"t_us":2,"ev":"violation","index":0,"branch":2,"site":64,"iter":5,"kind":"witness_mismatch","category":"shared","predicted":"all threads agree on the branch input","reporters":4,"detected_seq":12,"latency":"3","observed":"t0=w2a:T,t1=w63:T,t2=w63:T,t3=w63:T","deviants":"0","majority":"1,2,3","window":"t0:i5:w2a:T:s9;t1:i5:w63:T:s10","worker":1}"#, "\n",
        r#"{"seq":2,"t_us":3,"ev":"injection","index":1,"worker":0,"outcome":"sdc","branch":"7","category":"threadID","dur_us":20}"#, "\n",
    )
}

#[test]
fn forensics_report_parses_and_renders_evidence() {
    let r = ForensicsReport::parse(forensics_trace()).unwrap();
    assert!(r.has_detections());
    assert_eq!(r.injections.len(), 2);
    assert_eq!(r.violations.len(), 1);
    let v = &r.violations[0];
    assert_eq!((v.branch, v.site, v.iter), (2, 64, 5));
    assert_eq!(v.latency, Some(3));
    let text = r.render();
    assert!(text.contains("2 injection(s), 1 detected"), "{text}");
    assert!(text.contains("detected=1"), "{text}");
    // Coverage matrix: shared fully covered, threadID 0 % (1 sdc / 1 activated).
    assert!(text.contains("coverage by similarity category"), "{text}");
    assert!(text.contains("shared"), "{text}");
    assert!(text.contains("threadID"), "{text}");
    assert!(text.contains("  100.0%"), "{text}");
    assert!(text.contains("    0.0%"), "{text}");
    // Site ranking and the per-thread evidence table.
    assert!(text.contains("br2 site 0x40  1 violation(s)  [shared]"), "{text}");
    assert!(text.contains("witness_mismatch"), "{text}");
    assert!(text.contains("DEVIANT"), "{text}");
    assert_eq!(text.matches("majority").count(), 3, "{text}");
    assert!(text.contains("latency 3 message(s)"), "{text}");
    assert!(text.contains("window (2 entries)"), "{text}");
}

#[test]
fn forensics_report_unknown_latency_and_missed_branch() {
    let trace = concat!(
        r#"{"seq":0,"t_us":1,"ev":"injection","index":0,"outcome":"not_activated","branch":"-","category":"-"}"#, "\n",
        r#"{"seq":1,"t_us":2,"ev":"violation","index":1,"branch":0,"site":1,"iter":0,"kind":"tid_predicate","category":"threadID","predicted":"p","reporters":2,"detected_seq":8,"latency":"?","observed":"t0=w1:T,t1=w1:F","deviants":"1","majority":"0","window":""}"#, "\n",
    );
    let r = ForensicsReport::parse(trace).unwrap();
    assert_eq!(r.injections[0].branch, None);
    assert_eq!(r.violations[0].latency, None);
    let text = r.render();
    assert!(text.contains("latency unknown"), "{text}");
    assert!(!text.contains("window ("), "{text}");
}

#[test]
fn forensics_report_is_order_independent() {
    // Shuffled record order (as different --workers counts would produce)
    // must render byte-identically.
    let lines: Vec<&str> = forensics_trace().lines().collect();
    let shuffled = format!("{}\n{}\n{}\n", lines[2], lines[1], lines[0]);
    let a = ForensicsReport::parse(forensics_trace()).unwrap().render();
    let b = ForensicsReport::parse(&shuffled).unwrap().render();
    assert_eq!(a, b);
}

#[test]
fn forensics_report_empty_trace_has_no_detections() {
    let r = ForensicsReport::parse("").unwrap();
    assert!(!r.has_detections());
    assert!(r.render().contains("0 injection(s)"));
}

#[test]
fn trace_summary_rejects_garbage_with_line_numbers() {
    let err = TraceSummary::parse("{\"ev\":\"x\"}\nnot json\n").unwrap_err();
    assert!(err.contains("line 2"), "{err}");
    let err = TraceSummary::parse("{\"seq\":1}\n").unwrap_err();
    assert!(err.contains("no `ev`"), "{err}");
}

#[test]
fn trace_summary_histogram_quantiles_from_buckets() {
    // Two records of the same histogram merge their buckets; the render
    // then carries p50/p90/p99 estimated from them.
    let trace = concat!(
        r#"{"seq":0,"t_us":1,"ev":"histogram","name":"campaign.injection_us","count":3,"sum":30,"max":10,"buckets":"15:3"}"#, "\n",
        r#"{"seq":1,"t_us":2,"ev":"histogram","name":"campaign.injection_us","count":1,"sum":900,"max":900,"buckets":"1023:1"}"#, "\n",
    );
    let s = TraceSummary::parse(trace).unwrap();
    let expected = HistogramSnapshot { count: 4, sum: 930, max: 900, buckets: vec![(15, 3), (1023, 1)] };
    assert_eq!(s.metrics.histograms(), [("campaign.injection_us".to_string(), expected)]);
    let snap = &s.metrics.histograms()[0].1;
    assert!(snap.p50() <= 15.0, "p50 {}", snap.p50());
    assert!(snap.p99() > 100.0, "p99 {}", snap.p99());
    let rendered = s.render();
    assert!(rendered.contains("p50"), "{rendered}");
    assert!(rendered.contains("p99"), "{rendered}");
    // Pre-`buckets` traces still render, without quantiles.
    let legacy = r#"{"seq":0,"t_us":1,"ev":"histogram","name":"x","count":2,"sum":4,"max":3}"#;
    let rendered = TraceSummary::parse(legacy).unwrap().render();
    assert!(rendered.contains("count 2"), "{rendered}");
    assert!(!rendered.contains("p50"), "{rendered}");
}

#[test]
fn trace_summary_flat_json_roundtrips() {
    let trace = concat!(
        r#"{"seq":0,"t_us":1,"ev":"counter","name":"monitor.violations","value":3}"#, "\n",
        r#"{"seq":1,"t_us":2,"ev":"injection","index":0,"worker":0,"outcome":"detected","dur_us":100}"#, "\n",
        r#"{"seq":2,"t_us":3,"ev":"histogram","name":"h","count":2,"sum":6,"max":5,"buckets":"7:2"}"#, "\n",
    );
    let json = TraceSummary::parse(trace).unwrap().to_json();
    let fields =
        bw_telemetry::parse_flat_object(json.trim()).expect("flat JSON parses back");
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
    assert_eq!(get("records"), Some(Value::U64(3)));
    assert_eq!(get("counter.monitor.violations"), Some(Value::U64(3)));
    assert_eq!(get("injection.detected"), Some(Value::U64(1)));
    assert_eq!(get("hist.h.count"), Some(Value::U64(2)));
    assert!(get("hist.h.p99").is_some());
    assert_eq!(get("injection_us.count"), Some(Value::U64(1)));
}

/// A three-tick sampled campaign trace (two shards); tick 2 carries the
/// `warn` marker samplers wrote while senders could drop events.
fn series_trace() -> &'static str {
    concat!(
        r#"{"seq":0,"t_us":1,"ev":"injection","index":0,"worker":0,"outcome":"detected","dur_us":10}"#, "\n",
        r#"{"seq":1,"t_us":50000,"ev":"sample","tick":1,"dt_us":50000,"live.campaign.planned":100,"live.campaign.completed":10,"live.campaign.detected":4,"live.engine.events_processed":50000,"live.monitor.shard.0.queue_depth":3,"live.monitor.shard.1.queue_depth":1}"#, "\n",
        r#"{"seq":2,"t_us":100000,"ev":"sample","tick":2,"dt_us":50000,"live.campaign.completed":30,"live.campaign.detected":12,"live.engine.events_processed":250000,"live.monitor.shard.0.queue_depth":8,"live.monitor.shard.1.queue_depth":0,"live.monitor.events_dropped":2,"warn":"events_dropped"}"#, "\n",
        r#"{"seq":3,"t_us":150000,"ev":"sample","tick":3,"dt_us":50000,"live.campaign.completed":10,"live.campaign.detected":4,"live.engine.events_processed":250000,"live.monitor.shard.0.queue_depth":0,"live.monitor.shard.1.queue_depth":0}"#, "\n",
    )
}

#[test]
fn series_report_parses_sample_records_only() {
    let r = SeriesReport::parse(series_trace()).unwrap();
    assert_eq!(r.ticks.len(), 3);
    assert_eq!(r.ticks[0].tick, 1);
    assert_eq!(r.ticks[0].value("live.campaign.planned"), Some(100));
    assert_eq!(r.ticks[1].value("live.monitor.events_dropped"), Some(2));
    // 250000 events over 50 ms = 5M events/s.
    assert!((r.ticks[1].rate("live.engine.events_processed") - 5e6).abs() < 1.0);
    assert_eq!(r.shard_ids(), vec![0, 1]);
}

#[test]
fn series_report_renders_progress_eta_and_queues() {
    let r = SeriesReport::parse(series_trace()).unwrap();
    let text = r.render();
    assert!(text.contains("samples: 3 tick(s)"), "{text}");
    // Tick 1: 10/100 done in 50 ms → 90 remaining at 200/s → 0.5 s ETA.
    assert!(text.contains("10/100 10%"), "{text}");
    assert!(text.contains("0.5"), "{text}");
    // Tick 2 carries shard 0's depth of 8; its `warn` marker prints nothing.
    assert!(text.contains("8"), "{text}");
    assert!(text.contains("50/100 50%"), "{text}");
    assert!(!text.contains("warn") && !text.contains("dropped"), "{text}");
    assert!(text.contains("20 detected"), "{text}");
    // A sampler-less trace renders the hint, not an empty table.
    let empty = SeriesReport::parse(r#"{"seq":0,"t_us":1,"ev":"counter","name":"x","value":1}"#)
        .unwrap();
    assert!(empty.render().contains("no sample records"), "{}", empty.render());
}

#[test]
fn series_report_without_campaign_omits_progress_columns() {
    let trace = r#"{"seq":0,"t_us":1,"ev":"sample","tick":1,"dt_us":1000,"live.engine.events_processed":500}"#;
    let text = SeriesReport::parse(trace).unwrap().render();
    assert!(text.contains("events/s"), "{text}");
    assert!(!text.contains("progress"), "{text}");
    assert!(!text.contains("eta"), "{text}");
}

#[test]
fn render_telemetry_lists_all_metric_kinds() {
    let mut s = TelemetrySnapshot::new();
    s.push_counter("vm.instructions", 42);
    s.push_gauge("monitor.queue_high_water", 9);
    let h = bw_telemetry::Histogram::new();
    h.observe(5);
    s.push_histogram("campaign.injection_us", h.snapshot());
    let text = render_telemetry(&s);
    assert!(text.contains("vm.instructions"));
    assert!(text.contains("monitor.queue_high_water"));
    assert!(text.contains("campaign.injection_us"));
    assert_eq!(render_telemetry(&TelemetrySnapshot::new()), "(no telemetry recorded)\n");
}

#[test]
fn geomean_basics() {
    assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    assert!(geomean(&[]).is_nan());
}

#[test]
fn table4_covers_all_benchmarks() {
    let rows = table4(Size::Test);
    assert_eq!(rows.len(), 7);
    for row in &rows {
        assert!(row.branches >= row.parallel_branches);
        assert!(row.parallel_branches > 0, "{}", row.name);
        assert!(row.instructions >= row.parallel_instructions);
    }
}

#[test]
fn table5_shapes_match_paper() {
    let rows = table5(Size::Test);
    assert_eq!(rows.len(), 7);
    // Paper: 49–98 % of branches are similar in every program.
    for row in &rows {
        let f = row.similar_fraction();
        assert!(f >= 0.45, "{}: similar fraction {f}", row.name);
    }
    // ocean-contiguous is partial-dominated.
    let ocean = &rows[0];
    assert!(ocean.partial * 100 >= ocean.total * 70, "{ocean:?}");
    // FMM and raytrace have the largest `none` shares.
    let fmm_none = rows[2].none as f64 / rows[2].total as f64;
    let ray_none = rows[5].none as f64 / rows[5].total as f64;
    for (i, row) in rows.iter().enumerate() {
        if i != 2 && i != 5 {
            let none_frac = row.none as f64 / row.total.max(1) as f64;
            assert!(
                none_frac <= fmm_none.max(ray_none) + 1e-9,
                "{} none fraction {none_frac} exceeds FMM/raytrace",
                row.name
            );
        }
    }
}

#[test]
fn renders_aligned_table() {
    let t = exhibits::render_table(
        &["name", "value"],
        &[vec!["a".into(), "1".into()], vec!["longer".into(), "22".into()]],
    );
    assert!(t.contains("name"));
    assert!(t.lines().count() >= 4);
}

#[test]
fn pct_formats() {
    assert_eq!(exhibits::pct(0.975), "97.5%");
}

/// The three exhibits that take milliseconds render `results/` byte for
/// byte; `scripts/ci.sh exhibits` checks all ten.
#[test]
fn the_tables_render_their_archived_text() {
    assert_eq!(exhibits::table3(), include_str!("../../../../results/table3.txt"));
    assert_eq!(exhibits::table4(), include_str!("../../../../results/table4.txt"));
    assert_eq!(exhibits::table5(), include_str!("../../../../results/table5.txt"));
}
