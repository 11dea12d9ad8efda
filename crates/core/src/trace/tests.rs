use crate::{ForensicsReport, SeriesReport, TimelineReport, TraceSummary};

/// What each of the four views says about `trace`.
fn errors(trace: &str) -> [Option<String>; 4] {
    [
        TraceSummary::parse(trace).err(),
        SeriesReport::parse(trace).err(),
        ForensicsReport::parse(trace).err(),
        TimelineReport::parse(trace).err(),
    ]
}

#[test]
fn all_four_views_reject_a_malformed_trace_with_the_same_words() {
    const GOOD: &str = r#"{"seq":0,"t_us":1,"ev":"counter","name":"c","value":3}"#;

    // Bad JSON on line 3 (the blank line 2 is skipped, not counted out).
    let bad_json = format!("{GOOD}\n\n{{\"seq\":1,\"ev\":\n{GOOD}\n");
    let said = errors(&bad_json);
    let first = said[0].clone().expect("bad JSON is an error");
    assert!(first.starts_with("line 3: ") && first.contains("(offset "), "{first}");
    assert!(said.iter().all(|e| e.as_ref() == Some(&first)), "{said:?}");

    // A record without `ev` — `bw timeline` used to skip it in silence —
    // and one whose `ev` is not a string.
    for untagged in [r#"{"seq":1,"t_us":2,"name":"c"}"#, r#"{"seq":1,"ev":7}"#] {
        let said = errors(&format!("{GOOD}\n{untagged}\n"));
        let expected = Some("line 2: record has no `ev` field".to_string());
        assert!(said.iter().all(|e| *e == expected), "{untagged}: {said:?}");
    }

    // A mistyped field is not a zero, whichever view reads the kind: a
    // worker with no injections, a zero-length span, a sample without time.
    for (mistyped, field, ty) in [
        (r#"{"ev":"worker","injections":"x"}"#, "injections", "a non-negative integer"),
        (r#"{"ev":"tspan","kind":"span","dom":"cyc","ts":0,"dur":-5}"#, "dur", "a non-negative integer"),
        (r#"{"ev":"sample","tick":1,"dt_us":1.5}"#, "dt_us", "a non-negative integer"),
        (r#"{"ev":"histogram","name":"h","buckets":3}"#, "buckets", "a string"),
        (r#"{"ev":"injection","index":0,"outcome":null}"#, "outcome", "a string"),
        (r#"{"ev":"violation","index":0,"site":"0x40"}"#, "site", "a non-negative integer"),
        (r#"{"ev":"violation","index":0,"latency":"soon"}"#, "latency", "a message count or `?`"),
        (r#"{"ev":"span","name":7,"dur_us":1}"#, "name", "a string"),
    ] {
        let said = errors(&format!("{GOOD}\n{mistyped}\n"));
        let expected = Some(format!("line 2: `{field}` is not {ty}"));
        assert!(said.iter().all(|e| *e == expected), "{mistyped}: {said:?}");
    }

    // An absent optional field keeps its default; an unknown kind is counted.
    let old = r#"{"ev":"worker","worker":0,"injections":2}"#;
    assert_eq!(errors(&format!("{GOOD}\n\n{GOOD}\n{old}\n{{\"ev\":\"fuzz.seed\"}}\n")), [None, None, None, None]);
}

#[test]
fn the_summary_carries_the_series_the_series_view_reads() {
    let trace = concat!(
        r#"{"ev":"counter","name":"c","value":3}"#, "\n",
        r#"{"ev":"sample","tick":1,"dt_us":1000,"live.engine.events_processed":500}"#, "\n",
        r#"{"ev":"histogram","name":"h","count":1,"sum":5,"max":5,"buckets":"7:1"}"#, "\n",
    );
    let summary = TraceSummary::parse(trace).unwrap();
    assert_eq!(summary.records, 3);
    assert_eq!(summary.series.ticks.len(), 1);
    assert_eq!(summary.series.render(), SeriesReport::parse(trace).unwrap().render());
}

/// Every record kind twice, every numeric field of each `u64::MAX` (the
/// `latency` and `branch` strings too): a hostile trace the writers never
/// produce but the readers must survive. Each view's sums saturate. The
/// second injection is numbered 0, as the same campaign's next one (a
/// repeated index is a second campaign), and both carry the `image` field
/// older writers put on them, which the readers skip.
fn saturated_trace() -> String {
    const M: u64 = u64::MAX;
    let lines = [
        format!(r#"{{"ev":"counter","name":"monitor.shard.0.events_processed","value":{M}}}"#),
        format!(r#"{{"ev":"counter","name":"golden.monitor.shard.0.events_processed","value":{M}}}"#),
        format!(r#"{{"ev":"counter","name":"monitor.shard.0.events_dropped","value":{M}}}"#),
        format!(r#"{{"ev":"counter","name":"golden.monitor.shard.0.events_dropped","value":{M}}}"#),
        format!(r#"{{"ev":"gauge","name":"monitor.shard.0.queue_high_water","value":{M}}}"#),
        format!(r#"{{"ev":"histogram","name":"h","count":{M},"sum":{M},"max":{M},"buckets":"{M}:{M}"}}"#),
        format!(
            r#"{{"ev":"sample","tick":{M},"dt_us":{M},"live.engine.events_processed":{M},"live.campaign.planned":{M},"live.campaign.completed":{M},"live.campaign.detected":{M},"live.monitor.shard.0.queue_depth":{M},"warn":"events_dropped"}}"#
        ),
        format!(r#"{{"ev":"span","name":"s","dur_us":{M}}}"#),
        format!(
            r#"{{"ev":"tspan","kind":"span","dom":"cyc","track":"t0","cat":"barrier_phase","name":"phase {M}","ts":{M},"dur":{M},"steps":{M},"branches":{M}}}"#
        ),
        format!(r#"{{"ev":"tspan","kind":"flow_start","dom":"us","track":"w0","cat":"c","name":"n","ts":{M},"flow":{M},"inj":{M}}}"#),
        format!(
            r#"{{"ev":"injection","image":{M},"index":{M},"worker":{M},"outcome":"detected","branch":"{M}","category":"shared","dur_us":{M}}}"#
        ),
        format!(
            r#"{{"ev":"violation","image":{M},"index":{M},"branch":{M},"site":{M},"iter":{M},"reporters":{M},"detected_seq":{M},"latency":"{M}","category":"shared"}}"#
        ),
        format!(
            r#"{{"ev":"worker","worker":{M},"injections":{M},"wall_us":{M},"busy_us":{M},"steps_run":{M},"steps_skipped":{M}}}"#
        ),
    ];
    let again = lines.iter().map(|l| l.replace(&format!(r#""index":{M},"#), r#""index":0,"#));
    lines.iter().cloned().chain(again).map(|l| format!("{l}\n")).collect()
}

#[test]
fn u64_max_in_every_numeric_field_saturates_in_all_four_views() {
    let trace = saturated_trace();
    let m = u64::MAX.to_string();

    let summary = TraceSummary::parse(&trace).unwrap();
    let stats = summary.render() + &summary.to_json();
    assert!(stats.contains(&format!("shard 0   processed {m}  dropped {m}  queue high water {m}")), "{stats}");
    assert!(stats.contains(&format!("count 2  total {m} us")), "{stats}");
    assert!(stats.contains("over 2 runs"), "{stats}");

    let series = SeriesReport::parse(&trace).unwrap().render();
    assert!(series.contains(&format!("totals: {m} events")), "{series}");
    assert!(series.contains(&format!("{m}/{m} injections")), "{series}");

    let forensics = ForensicsReport::parse(&trace).unwrap().render();
    assert!(forensics.contains(&format!("/ {m}\n")), "{forensics}");
    assert!(forensics.contains(&format!("latency {m} message(s)")), "{forensics}");

    let timeline = TimelineReport::parse(&trace).unwrap();
    let drawn = timeline.render() + &timeline.to_chrome_json() + &timeline.phase_profile().render();
    assert!(drawn.contains(&format!("timeline [cyc] 2 spans over {m}..{m} cycles")), "{drawn}");
}
