//! The bytes and the order of the lines a [`JsonlRecorder`] writes.
//!
//! The recorder renders each record straight into a line buffer it keeps;
//! these tests pin what comes out: the exact line for given fields (the
//! envelope `seq`, `t_us`, `ev` in front, then the caller's fields as
//! [`write_json_object`] renders them), and `seq` strictly increasing in
//! file order whatever the number of writing threads.

use std::io::{self, Write};
use std::sync::{Arc, Barrier, Mutex};

use bw_telemetry::{
    parse_flat_object, record_span, write_json_object, JsonlRecorder, Recorder, TimeDomain,
    TraceScope, Value,
};

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

/// `line` with the digits of its `t_us` (wall clock) replaced by `T`.
fn without_time(line: &str) -> String {
    let key = "\"t_us\":";
    let start = line.find(key).expect("a t_us field") + key.len();
    let digits = line[start..].find(|c: char| !c.is_ascii_digit()).expect("a field after t_us");
    format!("{}T{}", &line[..start], &line[start + digits..])
}

#[test]
fn lines_are_byte_for_byte_what_the_fields_say() {
    let buf = SharedBuf::default();
    let rec = JsonlRecorder::new(Box::new(buf.clone()));
    rec.record("alpha", &[]);
    rec.record(
        "be\"ta\n",
        &[
            ("n", Value::U64(u64::MAX)),
            ("neg", Value::I64(-3)),
            ("x", Value::F64(0.25)),
            ("nan", Value::F64(f64::NAN)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            ("s\\k", Value::from("tab\there \u{1} é😀")),
        ],
    );
    {
        let _scope = TraceScope::enter(&[("inj", Value::U64(7)), ("wid", Value::U64(1))]);
        record_span(
            &rec,
            TimeDomain::Cycles,
            "t2",
            "barrier_phase",
            "phase 1",
            100,
            40,
            &[("steps", Value::U64(12)), ("branches", Value::U64(3))],
        );
    }
    rec.flush();
    let text = buf.text();
    let lines: Vec<String> = text.lines().map(without_time).collect();
    let expected = vec![
        r#"{"seq":0,"t_us":T,"ev":"alpha"}"#.to_string(),
        concat!(
            r#"{"seq":1,"t_us":T,"ev":"be\"ta\n","n":18446744073709551615,"neg":-3,"x":0.25,"#,
            r#""nan":null,"ok":true,"none":null,"s\\k":"tab\there \u0001 é😀"}"#
        )
        .to_string(),
        concat!(
            r#"{"seq":2,"t_us":T,"ev":"tspan","kind":"span","dom":"cyc","track":"t2","#,
            r#""cat":"barrier_phase","name":"phase 1","ts":100,"dur":40,"steps":12,"#,
            r#""branches":3,"inj":7,"wid":1}"#
        )
        .to_string(),
    ];
    assert_eq!(lines, expected);
    assert!(text.ends_with('\n'));

    // And each line is the object `write_json_object` renders from the
    // envelope followed by the fields.
    for line in text.lines() {
        let fields = parse_flat_object(line).expect("a flat object");
        let mut again = String::new();
        write_json_object(&mut again, &fields);
        assert_eq!(again, line);
    }
}

#[test]
fn seq_increases_in_file_order_under_concurrent_writers() {
    const THREADS: usize = 4;
    const RECORDS: u64 = 1_000;
    let buf = SharedBuf::default();
    let rec = JsonlRecorder::new(Box::new(buf.clone()));
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (rec, start) = (&rec, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..RECORDS {
                    rec.record("e", &[("t", Value::from(t)), ("i", Value::U64(i))]);
                }
            });
        }
    });
    rec.flush();
    assert_eq!(rec.records_emitted(), THREADS as u64 * RECORDS);
    let text = buf.text();
    let mut next = vec![0u64; THREADS];
    for (n, line) in text.lines().enumerate() {
        let fields = parse_flat_object(line).expect("a whole line: writers do not interleave");
        let field = |key: &str| {
            fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_u64()).expect(key)
        };
        assert_eq!(field("seq"), n as u64, "line {n}");
        // Each thread's own records stay in the order it wrote them.
        let t = field("t") as usize;
        assert_eq!(field("i"), next[t], "line {n}");
        next[t] += 1;
    }
    assert_eq!(next, vec![RECORDS; THREADS]);
}
