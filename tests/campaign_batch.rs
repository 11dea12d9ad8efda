//! Cross-image campaign batching: a `CampaignBatch` over many prepared
//! images must produce, for every image, exactly the deterministic payload
//! a standalone `run_campaign` on that image produces — at any worker
//! count, with the whole batch sharing one worker pool.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use blockwatch::fault::{run_campaign, CampaignBatch, CampaignConfig, FaultModel, TraceInjection};
use blockwatch::gen::{generate_module, GenConfig};
use blockwatch::telemetry::{Recorder, TraceBuffer, Value};
use blockwatch::vm::{ExecConfig, ProgramImage};

/// Held by every test here: the span sink the last one installs is
/// process-global, and a campaign on another test thread would write into
/// it.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn sink_lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const NTHREADS: u32 = 4;
const INJECTIONS: usize = 6;
const IMAGES: u64 = 8;

/// One fuzz-generator image per seed, prepared with default analysis —
/// eight structurally different programs, exactly how the fuzz driver's
/// injection stage feeds the batch.
fn images() -> Vec<(u64, Arc<ProgramImage>)> {
    (0..IMAGES)
        .map(|seed| {
            let module = generate_module(seed, &GenConfig::default());
            (seed, Arc::new(ProgramImage::prepare_default(module)))
        })
        .collect()
}

fn config_for(seed: u64) -> CampaignConfig {
    let sim = ExecConfig::new(NTHREADS).seed(seed).max_steps(2_000_000);
    CampaignConfig::new(INJECTIONS, FaultModel::BranchFlip, NTHREADS).seed(seed).sim(sim)
}

#[test]
fn batch_is_bitwise_identical_to_sequential_campaigns_at_any_worker_count() {
    let _lock = sink_lock();
    let images = images();

    // Ground truth: one sequential, single-worker campaign per image.
    let sequential: Vec<_> = images
        .iter()
        .map(|(seed, image)| {
            run_campaign(image, &config_for(*seed).workers(1)).expect("campaign runs")
        })
        .collect();

    for pool in [1usize, 4] {
        let mut batch = CampaignBatch::new().workers(pool);
        for (seed, image) in &images {
            batch.push(Arc::clone(image), config_for(*seed));
        }
        let outcome = batch.run();
        assert_eq!(outcome.results.len(), images.len());
        assert!(
            !outcome.worker_stats.is_empty(),
            "shared pool must report worker statistics"
        );

        for (i, (result, alone)) in outcome.results.iter().zip(&sequential).enumerate() {
            let batched = result.as_ref().expect("batched campaign runs");
            let seed = images[i].0;
            assert_eq!(batched.records, alone.records, "records diverge for seed {seed}");
            assert_eq!(batched.counts, alone.counts, "counts diverge for seed {seed}");
        }
    }
}

/// Campaigns longer than the window a pool worker claims at a time (32
/// plans, forked from one prefix): each image's windows are claimed in
/// order from its own counter, so the payload is still the standalone
/// campaign's, and every planned injection of every image runs once — one
/// `injection` record per `(image, index)`, and each image's
/// `campaign.injection_us` histogram and `campaign.injections` counter
/// count its plans.
#[test]
fn batches_of_multi_window_campaigns_equal_sequential_campaigns() {
    const PLANS: usize = 70;
    let _lock = sink_lock();
    let images: Vec<_> = images().into_iter().take(3).collect();
    let config_for = |seed: u64| {
        CampaignConfig::new(PLANS, FaultModel::ConditionBitFlip, NTHREADS)
            .seed(seed)
            .sim(ExecConfig::new(NTHREADS).seed(seed).max_steps(2_000_000))
    };
    for pool in [1usize, 3] {
        let mut batch = CampaignBatch::new().workers(pool);
        for (seed, image) in &images {
            batch.push(Arc::clone(image), config_for(*seed));
        }
        let buf = TraceBuffer::default();
        let outcome = batch.run_recorded(&buf.recorder());
        for ((seed, image), result) in images.iter().zip(&outcome.results) {
            let batched = result.as_ref().expect("batched campaign runs");
            let alone = run_campaign(image, &config_for(*seed).workers(1)).expect("campaign runs");
            assert_eq!(batched.records, alone.records, "seed {seed}, pool {pool}");
            assert_eq!(batched.counts, alone.counts, "seed {seed}, pool {pool}");
            assert_eq!(
                batched.telemetry.deterministic_part().counters(),
                alone.telemetry.deterministic_part().counters(),
                "seed {seed}, pool {pool}"
            );
            let telemetry = &batched.telemetry;
            assert_eq!(
                (
                    telemetry.histogram("campaign.injection_us").map(|h| h.count),
                    telemetry.counter("campaign.injections"),
                ),
                (Some(PLANS as u64), Some(PLANS as u64)),
                "seed {seed}, pool {pool}"
            );
        }

        let trace = buf.text();
        let mut injections: Vec<(Option<u64>, u64)> = blockwatch::telemetry::records(&trace)
            .map(|record| record.expect("the trace parses"))
            .filter(|record| record.ev() == TraceInjection::EV)
            .map(|record| {
                let injection = TraceInjection::from_record(record).expect("an injection record");
                (injection.image, injection.index)
            })
            .collect();
        injections.sort_unstable();
        let planned: Vec<_> = (0..images.len() as u64)
            .flat_map(|image| (0..PLANS as u64).map(move |index| (Some(image), index)))
            .collect();
        assert_eq!(injections, planned, "pool {pool}");
        let executed: u64 = outcome.worker_stats.iter().map(|w| w.injections).sum();
        assert_eq!(executed, planned.len() as u64, "pool {pool}");
    }
}

#[test]
fn two_batch_runs_are_bitwise_identical() {
    let _lock = sink_lock();
    let images = images();
    let run = |pool: usize| {
        let mut batch = CampaignBatch::new().workers(pool);
        for (seed, image) in &images {
            batch.push(Arc::clone(image), config_for(*seed));
        }
        batch.run()
    };
    let a = run(3);
    let b = run(5);
    for (seed, (ra, rb)) in images.iter().map(|(s, _)| s).zip(a.results.iter().zip(&b.results))
    {
        let (ra, rb) = (ra.as_ref().unwrap(), rb.as_ref().unwrap());
        assert_eq!(ra.records, rb.records, "seed {seed}");
        assert_eq!(ra.counts, rb.counts, "seed {seed}");
    }
}

/// A span sink that keeps the records it is sent.
#[derive(Default)]
struct Capture(Mutex<Vec<Vec<(String, Value<'static>)>>>);

impl Recorder for Capture {
    fn record(&self, _event: &str, fields: &[(&str, Value)]) {
        let fields = fields.iter().map(|(k, v)| (k.to_string(), v.clone().into_owned())).collect();
        self.0.lock().unwrap().push(fields);
    }
}

impl Capture {
    /// The simulated-cycle records of injected runs captured since the last
    /// call, by `(image, inj)`, each group in the order written and less
    /// those two fields and the `wid` of whichever worker ran it.
    fn take(&self) -> BTreeMap<(Option<u64>, u64), Vec<String>> {
        let mut grouped = BTreeMap::<_, Vec<String>>::new();
        for fields in std::mem::take(&mut *self.0.lock().unwrap()) {
            let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let (dom, inj) = (field("dom").and_then(Value::as_str), field("inj"));
            if let (Some("cyc"), Some(inj)) = (dom, inj.and_then(Value::as_u64)) {
                let image = field("image").and_then(Value::as_u64);
                let scope = ["image", "inj", "wid"];
                let rest: Vec<_> =
                    fields.iter().filter(|(k, _)| !scope.contains(&k.as_str())).collect();
                grouped.entry((image, inj)).or_default().push(format!("{rest:?}"));
            }
        }
        grouped
    }
}

/// Every job of a batch numbers its injections from 0, so under a span
/// sink an injection's records are scoped with the job's batch position
/// (`image`) beside `inj` — the tag its `injection` record carries: keyed
/// by both, the spans are those of the images' standalone campaigns.
#[test]
fn a_traced_batch_keeps_the_spans_of_its_images_apart() {
    let _lock = sink_lock();
    let images: Vec<_> = images().into_iter().take(3).collect();
    let capture = Arc::new(Capture::default());
    blockwatch::telemetry::set_trace_sink(Some(Arc::clone(&capture) as Arc<dyn Recorder>));

    let mut batch = CampaignBatch::new().workers(2);
    for (seed, image) in &images {
        batch.push(Arc::clone(image), config_for(*seed));
    }
    let outcome = batch.run();
    assert!(outcome.results.iter().all(Result::is_ok));
    let batched = capture.take();

    let mut alone = BTreeMap::new();
    for (position, (seed, image)) in images.iter().enumerate() {
        run_campaign(image, &config_for(*seed).workers(1)).expect("campaign runs");
        for ((image, inj), spans) in capture.take() {
            assert_eq!(image, None, "a campaign on its own has no batch position");
            alone.insert((Some(position as u64), inj), spans);
        }
    }
    blockwatch::telemetry::set_trace_sink(None);

    assert!(!batched.is_empty());
    assert_eq!(batched.keys().collect::<Vec<_>>(), alone.keys().collect::<Vec<_>>());
    for (key, spans) in &alone {
        assert_eq!(&batched[key], spans, "(image, inj) = {key:?}");
    }
}
