//! In-memory spans around the calls into each crate.
//!
//! The traced run wraps every public call it makes in a span (name, layer,
//! start, end, parent, op id), keeps them in memory, and writes them as
//! JSON Lines when the workload ends. A layer's self time is its spans'
//! durations minus the parts their child spans cover. With the tracer
//! disabled (`--trace 0`) every method is a no-op, so the untraced run
//! carries no span cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The crate a span's call goes into; `Bench` is the harness's own glue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code between calls.
    Bench,
    /// `bw-splash`.
    Splash,
    /// `bw-ir`.
    Ir,
    /// `bw-analysis`.
    Analysis,
    /// `bw-vm`.
    Vm,
    /// `bw-monitor`.
    Monitor,
    /// `bw-fault`.
    Fault,
    /// `bw-gen`.
    Gen,
    /// `bw-telemetry`.
    Telemetry,
    /// `blockwatch` (the umbrella crate).
    Core,
}

impl Layer {
    /// The nine program layers, in dependency order.
    pub const PROGRAM: [Layer; 9] = [
        Layer::Splash,
        Layer::Ir,
        Layer::Analysis,
        Layer::Vm,
        Layer::Monitor,
        Layer::Fault,
        Layer::Gen,
        Layer::Telemetry,
        Layer::Core,
    ];

    /// Lowercase name, as used in metric names and trace records.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Splash => "splash",
            Layer::Ir => "ir",
            Layer::Analysis => "analysis",
            Layer::Vm => "vm",
            Layer::Monitor => "monitor",
            Layer::Fault => "fault",
            Layer::Gen => "gen",
            Layer::Telemetry => "telemetry",
            Layer::Core => "core",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one operation (injection, seed,
    /// module, run).
    pub op: u64,
    /// The layer called into.
    pub layer: Layer,
    /// What was called.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Sets the operation id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, layer: Layer, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            op: self.op,
            layer,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes `open` and every span still open inside it — for when the
    /// call a span was wrapped around panicked and was caught.
    pub fn abandon(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `work` inside a span.
    pub fn span<R>(&mut self, layer: Layer, name: &str, work: impl FnOnce() -> R) -> R {
        let open = self.enter(layer, name);
        let out = work();
        self.exit(open);
        out
    }

    /// Every recorded span, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Total seconds in the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Mean microseconds per call of the spans called `name` (0 when there
    /// is none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() * 1e6 / d.len() as f64
        }
    }

    /// Self time of every span: its duration minus its children's.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.secs();
            }
        }
        own
    }

    /// Self time per layer, in seconds, over the spans below `root`
    /// (`root` included).
    pub fn layer_self_secs(&self, root: usize) -> BTreeMap<Layer, f64> {
        let own = self.self_secs();
        let mut below = vec![false; self.spans.len()];
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            // Parents are always entered before their children.
            below[id] = id == root || span.parent.is_some_and(|p| below[p]);
            if below[id] {
                *out.entry(span.layer).or_insert(0.0) += own[id];
            }
        }
        out
    }

    /// Index of the first span called `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Renders the spans as JSON Lines, `header` (a complete JSON object)
    /// first.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str(header);
        out.push('\n');
        for (id, span) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\":{id},\"parent\":");
            match span.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"op\":{},\"layer\":\"{}\",\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                span.op,
                span.layer.name(),
                crate::json::quote(&span.name),
                span.start_ns as f64 * 1e-3,
                span.end_ns as f64 * 1e-3,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds spans with fixed times so self-time arithmetic is exact.
    fn fixed(spans: &[(Option<usize>, Layer, &str, u64, u64)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(parent, layer, name, start_ns, end_ns) in spans {
            t.spans.push(Span { parent, op: 1, layer, name: name.into(), start_ns, end_ns });
        }
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = fixed(&[
            (None, Layer::Bench, "timed", 0, 1000),
            (Some(0), Layer::Fault, "injection", 100, 900),
            (Some(1), Layer::Vm, "replay", 200, 700),
            (Some(1), Layer::Fault, "classify", 700, 800),
            (None, Layer::Vm, "outside", 2000, 2500),
        ]);
        let own = t.self_secs();
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(own.iter().map(|&s| ns(s)).collect::<Vec<_>>(), vec![200, 200, 500, 100, 500]);
        let layers = t.layer_self_secs(0);
        assert_eq!(ns(layers[&Layer::Bench]), 200);
        assert_eq!(ns(layers[&Layer::Fault]), 300);
        // The span outside the root is not counted.
        assert_eq!(ns(layers[&Layer::Vm]), 500);
        assert_eq!(t.find("replay"), Some(2));
        assert!((t.mean_us("replay") - 0.5).abs() < 1e-9);
    }

    #[test]
    fn abandon_closes_everything_a_caught_panic_left_open() {
        let mut t = Tracer::new(true);
        let outer = t.enter(Layer::Gen, "gen.seed");
        let _inner = t.enter(Layer::Analysis, "analysis.seq");
        t.abandon(outer);
        assert!(t.stack.is_empty());
        // The tracer is usable again.
        t.span(Layer::Gen, "gen.seed", || ());
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span(Layer::Vm, "run", || 5), 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.mean_us("run"), 0.0);
    }

    #[test]
    fn nesting_and_jsonl() {
        let mut t = Tracer::new(true);
        t.set_op(9);
        let outer = t.enter(Layer::Core, "outer");
        t.span(Layer::Ir, "in\"ner", || ());
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        let text = t.to_jsonl("{\"schema\":\"x\"}");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("{\"id\":0,\"parent\":null,\"op\":9,\"layer\":\"core\""));
        assert!(lines[2].contains("\"name\":\"in\\\"ner\""));
    }
}
