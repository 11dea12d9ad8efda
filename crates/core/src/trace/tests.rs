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
