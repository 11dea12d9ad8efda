//! The JSONL trace format, held from three sides.
//!
//! * **Golden fixtures** (`tests/fixtures/`): one traced, sampled campaign
//!   written by the binary of the commit before the format got its owners
//!   (`bw campaign splash:fft --injections 12 --workers 2 --telemetry T.jsonl
//!   --trace-spans --sample-interval-ms 5`) and that binary's rendering of it
//!   by every trace subcommand. Today's `bw` must reproduce each byte for
//!   byte. FFT takes no lock, so the busy column is the one the old
//!   arithmetic printed too.
//! * **Hostile input**: every single-byte substitution, deletion and
//!   truncation of one fixture line per record kind goes through all four
//!   views and yields `Ok` or a `line N:` error — the same from each.
//! * **DESIGN's "Trace schema" table** is diffed against what each owner's
//!   encoder writes, so the document cannot drift from the code.

use std::path::{Path, PathBuf};
use std::process::Command;

use blockwatch::fault::{TraceInjection, WorkerStats};
use blockwatch::monitor::TraceViolation;
use blockwatch::telemetry::{
    record_flow, record_sample, record_span, records, sample_fields, Histogram, Recorder,
    SpanRecord, TelemetrySnapshot, TimeDomain, TraceBuffer, Value,
};
use blockwatch::{ForensicsReport, SeriesReport, TimelineReport, TraceSummary};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(name: &str) -> String {
    let path = root().join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Stdout of `bw <args>` on the fixture trace.
fn bw(args: &[&str]) -> String {
    let trace = root().join("tests/fixtures/campaign.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_bw")).args(args).arg(trace).output().expect("bw runs");
    assert!(out.status.success(), "bw {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8")
}

#[test]
fn every_trace_subcommand_reproduces_the_parents_rendering_of_the_fixture() {
    for (args, golden) in [
        (&["stats"][..], "campaign.stats.txt"),
        (&["stats", "--format", "json"], "campaign.stats.json"),
        (&["stats", "--series"], "campaign.series.txt"),
        (&["top"], "campaign.top.txt"),
        (&["report"], "campaign.report.txt"),
        (&["timeline", "--phase-profile"], "campaign.timeline.txt"),
    ] {
        assert!(bw(args) == fixture(golden), "`bw {}` no longer prints {golden}", args.join(" "));
    }
    let chrome = std::env::temp_dir().join(format!("bw-fixture-{}.chrome.json", std::process::id()));
    bw(&["timeline", "--chrome", chrome.to_str().unwrap()]);
    let written = std::fs::read_to_string(&chrome).expect("the export was written");
    let _ = std::fs::remove_file(&chrome);
    assert!(written == fixture("campaign.chrome.json"), "the Chrome export changed");
}

/// The views as a library say what the subcommands print (`bwbench` calls
/// these entry points, not the binary).
#[test]
fn the_parse_entry_points_agree_with_the_fixture() {
    let trace = fixture("campaign.jsonl");
    let summary = TraceSummary::parse(&trace).unwrap();
    assert!(summary.render() == fixture("campaign.stats.txt"));
    assert!(summary.to_json() == fixture("campaign.stats.json"));
    assert!(ForensicsReport::parse(&trace).unwrap().render() == fixture("campaign.report.txt"));
    let timeline = TimelineReport::parse(&trace).unwrap();
    assert!(timeline.to_chrome_json() == fixture("campaign.chrome.json"));
    let text = timeline.render() + &timeline.phase_profile().render();
    assert!(text == fixture("campaign.timeline.txt"));
    let series = SeriesReport::parse(&trace).unwrap();
    assert!(fixture("campaign.series.txt").ends_with(&series.render()));
}

/// What each view makes of `trace`: its error, or `None`.
fn verdicts(trace: &str) -> [Option<String>; 4] {
    [
        TraceSummary::parse(trace).map(|s| s.render()).err(),
        SeriesReport::parse(trace).map(|s| s.render()).err(),
        ForensicsReport::parse(trace).map(|r| r.render()).err(),
        TimelineReport::parse(trace)
            .map(|t| t.render() + &t.to_chrome_json() + &t.phase_profile().render())
            .err(),
    ]
}

#[test]
fn no_single_byte_mutation_of_a_fixture_line_panics_or_splits_the_views() {
    // The first line of each record kind, and of each kind of tspan.
    let trace = fixture("campaign.jsonl");
    let mut seen = Vec::new();
    let mut lines = Vec::new();
    for (rec, line) in records(&trace).zip(trace.lines()) {
        let rec = rec.unwrap();
        let kind = rec.field("kind").and_then(Value::as_str).unwrap_or_default();
        let key = format!("{} {kind}", rec.ev());
        if !seen.contains(&key) {
            seen.push(key);
            lines.push(line.as_bytes());
        }
    }
    assert!(lines.len() >= 11, "nine kinds, three of them tspans: {seen:?}");

    const HOSTILE: &[u8] = b"\"\\{}[],:-+.09eEx \n\t\x00\x7f\x80\xff";
    let (mut tried, mut rejected) = (0u32, 0u32);
    let mut check = |bytes: &[u8]| {
        // Led by an intact record, so an error must say `line 2`.
        let text = format!("{}\n{}", trace.lines().next().unwrap(), String::from_utf8_lossy(bytes));
        let said = verdicts(&text);
        assert!(said.iter().all(|e| *e == said[0]), "{text}\n{said:?}");
        if let Some(error) = &said[0] {
            // (A substituted newline splits the line, so a later one may fail.)
            assert!(error.starts_with("line 2: ") || error.starts_with("line 3: "), "{text}\n{error}");
            rejected += 1;
        }
        tried += 1;
    };
    for line in lines {
        for at in 0..line.len() {
            check(&line[..at]);
            check(&[&line[..at], &line[at + 1..]].concat());
            for &byte in HOSTILE {
                check(&[&line[..at], &[byte], &line[at + 1..]].concat());
            }
        }
    }
    assert!(rejected > tried / 4 && rejected < tried, "{rejected} of {tried} rejected");
}

/// One record of every decoded kind, written by its owner's encoder with
/// every optional field present, keyed by `ev`: the field names after the
/// envelope, in wire order (a tspan is a span and a flow end in one).
fn encoded_fields() -> Vec<(String, Vec<String>)> {
    let buf = TraceBuffer::default();
    let rec = buf.recorder();
    let mut snapshot = TelemetrySnapshot::new();
    snapshot.push_counter("c", 1);
    snapshot.push_gauge("g", 1);
    let h = Histogram::new();
    h.observe(5);
    snapshot.push_histogram("h", h.snapshot());
    snapshot.record_to(&rec);
    let mut dropped = TelemetrySnapshot::new();
    dropped.push_counter("live.monitor.events_dropped", 1);
    record_sample(&rec, &sample_fields(&TelemetrySnapshot::new(), &dropped, 1, 1));
    SpanRecord { name: "stage".into(), dur_us: 1 }.record_to(&rec, &[]);
    record_span(&rec, TimeDomain::Cycles, "t0", "barrier_phase", "phase 0", 0, 1, &[]);
    record_flow(&rec, TimeDomain::Cycles, "t0", "verdict", "site 1", 0, 1, true, &[]);
    TraceInjection::default().record_to(&rec);
    TraceViolation::default().record_to(&rec);
    WorkerStats::default().record_to(&rec);
    rec.flush();

    let mut kinds: Vec<(String, Vec<String>)> = Vec::new();
    for rec in records(&buf.text()) {
        let rec = rec.unwrap();
        let ev = rec.ev().to_string();
        let at = kinds.iter().position(|(k, _)| *k == ev).unwrap_or_else(|| {
            kinds.push((ev, Vec::new()));
            kinds.len() - 1
        });
        for (name, _) in rec.fields.iter().skip(3) {
            // A sample's metric values are named by the registry.
            let name = if name.starts_with("live.") { "<metric>" } else { &**name };
            if !kinds[at].1.iter().any(|n| n == name) {
                kinds[at].1.push(name.to_string());
            }
        }
    }
    kinds
}

/// The backticked words of a Markdown table cell.
fn ticked(cell: &str) -> Vec<String> {
    cell.split('`').skip(1).step_by(2).map(str::to_string).collect()
}

#[test]
fn designs_trace_schema_table_is_what_the_owners_write() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let table = design.split("**Trace schema.**").nth(1).expect("DESIGN has a Trace schema table");
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    let encoded = encoded_fields();
    let mut documented = Vec::new();
    for row in &rows {
        let [kind, fields, owner, _views] = row[..] else { panic!("four columns: {row:?}") };
        let (kind, fields, owner) = (ticked(kind).remove(0), ticked(fields), ticked(owner).remove(0));
        let source = std::fs::read_to_string(root().join(&owner))
            .unwrap_or_else(|e| panic!("{kind}: owner file {owner}: {e}"));
        for field in fields.iter().filter(|f| *f != "<metric>") {
            assert!(source.contains(&format!("\"{field}\"")), "{owner} never spells `{field}`");
        }
        match encoded.iter().find(|(ev, _)| *ev == kind) {
            Some((_, written)) => assert_eq!(&fields, written, "DESIGN's row for `{kind}`"),
            // Written, counted, decoded by nobody.
            None => assert_eq!(kind, "fuzz.seed", "no encoder was run for `{kind}`"),
        }
        documented.push(kind);
    }
    for (ev, _) in &encoded {
        assert!(documented.contains(ev), "DESIGN's table has no row for `{ev}`");
    }
}
