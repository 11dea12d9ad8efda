use super::*;

/// A hand-written trace: two sim threads over two phases, thread 1
/// straggling hard in phase 0; one shard lane; a verdict flow pair.
fn fixture() -> String {
    [
        r#"{"seq":0,"t_us":1,"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_phase","name":"phase 0","ts":0,"dur":100,"steps":50,"branches":5}"#,
        r#"{"seq":1,"t_us":2,"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 0","ts":0,"dur":900,"steps":420,"branches":41}"#,
        r#"{"seq":2,"t_us":3,"ev":"tspan","kind":"span","dom":"cyc","track":"t2","cat":"barrier_phase","name":"phase 0","ts":0,"dur":104,"steps":51,"branches":5}"#,
        r#"{"seq":3,"t_us":4,"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_wait","name":"barrier (phase 0)","ts":100,"dur":800}"#,
        r#"{"seq":4,"t_us":5,"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_phase","name":"phase 1","ts":900,"dur":60,"steps":30,"branches":3}"#,
        r#"{"seq":5,"t_us":6,"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 1","ts":900,"dur":62,"steps":30,"branches":3}"#,
        r#"{"seq":6,"t_us":7,"ev":"tspan","kind":"span","dom":"cyc","track":"t2","cat":"barrier_phase","name":"phase 1","ts":900,"dur":58,"steps":29,"branches":3}"#,
        r#"{"seq":7,"t_us":8,"ev":"tspan","kind":"flow_start","dom":"cyc","track":"t1","cat":"branch_event","name":"site 9","ts":700,"flow":0,"site":9}"#,
        r#"{"seq":8,"t_us":9,"ev":"tspan","kind":"flow_end","dom":"cyc","track":"monitor","cat":"verdict","name":"site 9","ts":700,"flow":0,"site":9}"#,
        r#"{"seq":9,"t_us":10,"ev":"tspan","kind":"instant","dom":"cyc","track":"monitor","cat":"violation","name":"site 9","ts":700,"site":9}"#,
        r#"{"seq":10,"t_us":11,"ev":"tspan","kind":"span","dom":"us","track":"shard0","cat":"flush_batch","name":"drain","ts":5,"dur":3,"events":17}"#,
        r#"{"seq":11,"t_us":12,"ev":"sample","tick":1}"#,
    ]
    .join("\n")
}

#[test]
fn parses_only_tspan_records() {
    let trace = fixture();
    let report = TimelineReport::parse(&trace).unwrap();
    assert_eq!(report.events.len(), 11, "sample record skipped");
    assert_eq!(report.domains(), vec![TimeDomain::Cycles, TimeDomain::WallUs]);
    let first = &report.events[0];
    assert_eq!(first.kind, SpanKind::Span);
    assert_eq!(first.track, "t0");
    assert_eq!(first.dur, 100);
    assert_eq!(first.arg_u64("steps"), Some(50));
    assert!(first.args.iter().all(|(k, _)| k != "seq" && k != "ts"));
    let flow = &report.events[7];
    assert_eq!(flow.kind, SpanKind::FlowStart);
    assert_eq!(flow.flow, Some(0));
}

#[test]
fn lane_render_orders_tracks_and_draws_spans() {
    let trace = fixture();
    let report = TimelineReport::parse(&trace).unwrap();
    let text = report.render();
    let t0 = text.find("  t0 ").expect("t0 lane");
    let t1 = text.find("  t1 ").expect("t1 lane");
    let monitor = text.find("  monitor").expect("monitor lane");
    assert!(t0 < t1 && t1 < monitor, "threads before named lanes:\n{text}");
    assert!(text.contains("timeline [cyc]"));
    assert!(text.contains("timeline [us]"));
    assert!(text.contains('='), "phase glyphs drawn");
    assert!(text.contains('!'), "violation instant drawn");

    // Two names for thread 1: two lanes, each drawn and exported once.
    let span = |track: &str| {
        format!(r#"{{"ev":"tspan","kind":"span","dom":"cyc","track":"{track}","cat":"c","name":"x","ts":0,"dur":1}}"#)
    };
    let trace = [span("t1"), span("t01"), span("t1")].join("\n");
    let report = TimelineReport::parse(&trace).unwrap();
    let text = report.render();
    assert_eq!((text.matches("  t1 ").count(), text.matches("  t01 ").count()), (1, 1), "{text}");
    assert!(text.find("  t01 ") < text.find("  t1 "), "{text}");
    assert_eq!(report.to_chrome_json().matches("thread_name").count(), 2);
}

/// The busy column is the time a lane spends under a work span, less the
/// waits inside it: a lock hold inside its barrier phase is not counted on
/// top of the phase (120 % before the fix), a lock wait inside it is not
/// busy at all.
#[test]
fn busy_counts_nested_work_once_and_leaves_the_waits_out() {
    let span = |cat: &str, ts: u64, dur: u64| {
        format!(
            r#"{{"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"{cat}","name":"x","ts":{ts},"dur":{dur}}}"#
        )
    };
    let lane = [span("barrier_phase", 0, 100), span("lock_wait", 10, 10), span("lock_hold", 20, 20)];
    let text = TimelineReport::parse(&lane.join("\n")).unwrap().render();
    assert!(text.contains("3 ev, busy  90.0%"), "{text}");
    // Disjoint and overlapping spans, waits outside any work span.
    assert_eq!(covered(vec![(0, 10), (5, 20), (30, 40), (32, 35)]), 30);
    let lane = [span("stage", 0, 50), span("queue_wait", 50, 50)];
    let text = TimelineReport::parse(&lane.join("\n")).unwrap().render();
    assert!(text.contains("2 ev, busy  50.0%"), "{text}");
}

#[test]
fn empty_trace_renders_a_hint() {
    let report = TimelineReport::parse(r#"{"ev":"sample","tick":1}"#).unwrap();
    assert!(report.render().contains("--trace-spans"));
    assert!(report.phase_profile().render().contains("--trace-spans"));
}

#[test]
fn chrome_export_has_required_structure() {
    let trace = fixture();
    let report = TimelineReport::parse(&trace).unwrap();
    let json = report.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"ph\":\"X\""), "duration events");
    assert!(json.contains("\"ph\":\"M\""), "metadata events");
    assert!(json.contains("\"ph\":\"i\""), "instant events");
    assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""), "flow pair");
    assert!(json.contains("\"process_name\""));
    assert!(json.contains("sim (cycles)"));
    assert!(json.contains("wall (us)"));
    assert!(json.contains("\"tid\":"));
    assert!(json.contains("\"args\":{"));
    // Braces and brackets balance (the splicing is by hand).
    let balance = |open: char, close: char| {
        json.chars().filter(|&c| c == open).count()
            == json.chars().filter(|&c| c == close).count()
    };
    assert!(balance('{', '}') && balance('[', ']'));
}

#[test]
fn phase_profile_flags_the_straggler() {
    let trace = fixture();
    let report = TimelineReport::parse(&trace).unwrap();
    let profile = report.phase_profile();
    assert_eq!(profile.dom, "cyc");
    assert_eq!(profile.phases.len(), 2);
    assert_eq!(profile.deviant_threads(), vec![1], "t1 straggles in phase 0");
    let p0 = &profile.phases[0];
    assert!(p0.has_deviant());
    assert_eq!(p0.median_dur, 104);
    let t1 = p0.threads.iter().find(|t| t.tid == 1).unwrap();
    assert!(t1.deviant && t1.distance > 5.0, "{t1:?}");
    assert!(!profile.phases[1].has_deviant(), "phase 1 is symmetric");
    let text = profile.render();
    assert!(text.contains("DEVIANT"));
    assert!(text.contains("deviant thread(s): t1"));
}

#[test]
fn symmetric_phases_report_all_threads_similar() {
    let lines: Vec<String> = (0..4)
        .map(|t| {
            format!(
                r#"{{"ev":"tspan","kind":"span","dom":"cyc","track":"t{t}","cat":"barrier_phase","name":"phase 0","ts":0,"dur":{},"steps":100,"branches":10}}"#,
                500 + t
            )
        })
        .collect();
    let trace = lines.join("\n");
    let report = TimelineReport::parse(&trace).unwrap();
    let profile = report.phase_profile();
    assert!(profile.deviant_threads().is_empty());
    assert!(profile.render().contains("all threads similar in every phase"));
}

#[test]
fn two_thread_phases_are_never_flagged() {
    let text = [
        r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_phase","name":"phase 0","ts":0,"dur":10,"steps":5,"branches":1}"#,
        r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 0","ts":0,"dur":9000,"steps":4000,"branches":400}"#,
    ]
    .join("\n");
    let profile = TimelineReport::parse(&text).unwrap().phase_profile();
    assert!(
        profile.deviant_threads().is_empty(),
        "no majority with two threads: {profile:?}"
    );
}

/// A campaign trace: the golden run's spans plus, per injection, the
/// same lanes over the same cycles again. The lanes show the golden run
/// alone; the worker lane (wall clock) keeps its injection spans; the
/// Chrome export keeps everything.
#[test]
fn injection_scoped_spans_stay_out_of_the_cycle_lanes() {
    let golden = |t: u32| {
        format!(
            r#"{{"ev":"tspan","kind":"span","dom":"cyc","track":"t{t}","cat":"barrier_phase","name":"phase 0","ts":0,"dur":1000,"steps":50,"branches":5}}"#
        )
    };
    let injected = |t: u32, inj: u32| {
        format!(
            r#"{{"ev":"tspan","kind":"span","dom":"cyc","track":"t{t}","cat":"barrier_phase","name":"phase 0","ts":0,"dur":990,"steps":50,"branches":5,"inj":{inj},"wid":0}}"#
        )
    };
    let worker = |inj: u32| {
        format!(
            r#"{{"ev":"tspan","kind":"span","dom":"us","track":"w0","cat":"injection","name":"inj {inj}","ts":{},"dur":40,"outcome":"masked","inj":{inj},"wid":0}}"#,
            inj * 40
        )
    };
    let mut lines = vec![golden(0), golden(1)];
    for inj in 0..2 {
        lines.extend([injected(0, inj), injected(1, inj), worker(inj)]);
    }
    let trace = lines.join("\n");
    let report = TimelineReport::parse(&trace).unwrap();
    let text = report.render();
    assert!(
        text.contains("timeline [cyc] 2 spans over 0..1000 cycles (4 spans of 2 injections left out"),
        "{text}"
    );
    assert!(text.contains("timeline [us] 2 spans over 0..80 us\n"), "{text}");
    let busy: Vec<f64> = text
        .lines()
        .filter_map(|l| l.split("busy").nth(1))
        .map(|pct| pct.trim().trim_end_matches('%').parse().expect("a percentage"))
        .collect();
    assert_eq!(busy, vec![100.0; 3], "t0, t1 and w0: {text}");
    let chrome = report.to_chrome_json();
    assert_eq!(chrome.matches(r#""ph":"X""#).count(), 8, "every span exported");
}

#[test]
fn injection_scoped_phases_are_excluded_from_the_profile() {
    let text = [
        r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_phase","name":"phase 0","ts":0,"dur":100,"steps":50,"branches":5}"#,
        r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 0","ts":0,"dur":101,"steps":50,"branches":5}"#,
        r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t2","cat":"barrier_phase","name":"phase 0","ts":0,"dur":99,"steps":50,"branches":5}"#,
        r#"{"ev":"tspan","kind":"span","dom":"cyc","track":"t1","cat":"barrier_phase","name":"phase 0","ts":0,"dur":99999,"steps":9000,"branches":900,"inj":3,"wid":0}"#,
    ]
    .join("\n");
    let profile = TimelineReport::parse(&text).unwrap().phase_profile();
    assert_eq!(profile.phases[0].threads.len(), 3, "faulty-run span excluded");
    assert!(profile.deviant_threads().is_empty());
}
