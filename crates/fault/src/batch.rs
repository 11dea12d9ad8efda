//! Cross-image campaign batching: many prepared images, one worker pool.
//!
//! The per-image campaign engine of [`crate::campaign`] pays its pool
//! startup/teardown and its tail latency (workers idling while the last
//! injection of an image finishes) once per image. A nightly fuzz sweep
//! runs a small campaign against *every* passing seed — hundreds of images
//! with a handful of injections each — where that overhead dominates.
//! [`CampaignBatch`] plans injections across all images up front and feeds
//! one shared worker pool, the batching structure compositional injection
//! studies like FastFlip use to get their throughput.
//!
//! Determinism is preserved **per image**: the pool is the single-image
//! engine's own (`campaign::run_pool`), which takes the images in order
//! and claims windows from each image's own counter until every one of
//! its plans has run, and each image's records pass through the same
//! index-order reduce. The per-image deterministic payload — records,
//! counts and `campaign.*` outcome counters — is therefore
//! bitwise-identical to running [`run_campaign`] on that image alone, at
//! any pool width. Only the wall-clock artifacts (worker stats, the
//! `campaign.workers` gauge, the `campaign.injection_us` histogram's
//! durations) depend on the pool.
//!
//! [`run_campaign`]: crate::campaign::run_campaign

use std::sync::Arc;

use bw_telemetry::{Recorder, Span, Value, NULL_RECORDER};
use bw_vm::{Engine, ProgramImage, RunResult, SimEngine};

use crate::campaign::{
    run_pool, CampaignConfig, CampaignError, CampaignJob, CampaignResult, WorkerStats,
};

/// Result of one [`CampaignBatch`] run.
#[derive(Debug)]
#[non_exhaustive]
pub struct BatchResult {
    /// Per-image campaign results, in the order the images were pushed.
    /// Each `Ok` carries the image's full [`CampaignResult`] with the
    /// deterministic payload identical to a standalone [`run_campaign`]
    /// (see the module docs for the exact surface); its
    /// [`CampaignResult::worker_stats`] is empty because workers belong to
    /// the pool, not to any one image.
    ///
    /// [`run_campaign`]: crate::campaign::run_campaign
    pub results: Vec<Result<CampaignResult, CampaignError>>,
    /// The shared pool's execution statistics, one entry per pool worker.
    pub worker_stats: Vec<WorkerStats>,
}

/// A set of per-image campaigns executed by one shared worker pool.
///
/// ```
/// use std::sync::Arc;
/// use bw_fault::{CampaignBatch, CampaignConfig, FaultModel};
/// use bw_vm::ProgramImage;
///
/// let image = Arc::new(ProgramImage::prepare_default(
///     bw_ir::frontend::compile(
///         "shared int n = 8;
///          @spmd func f() {
///              for (var i: int = 0; i < n; i = i + 1) {
///                  if (i == threadid()) { output(i); }
///              }
///          }",
///     )
///     .unwrap(),
/// ));
/// let mut batch = CampaignBatch::new().workers(2);
/// for seed in 0..4u64 {
///     batch.push(
///         Arc::clone(&image),
///         CampaignConfig::new(5, FaultModel::BranchFlip, 2).seed(seed),
///     );
/// }
/// let outcome = batch.run();
/// assert_eq!(outcome.results.len(), 4);
/// for result in &outcome.results {
///     assert_eq!(result.as_ref().unwrap().records.len(), 5);
/// }
/// ```
#[derive(Default)]
pub struct CampaignBatch {
    items: Vec<(Arc<ProgramImage>, CampaignConfig)>,
    workers: usize,
}

impl CampaignBatch {
    /// An empty batch.
    pub fn new() -> Self {
        CampaignBatch { items: Vec::new(), workers: 0 }
    }

    /// Sets the shared pool's worker count (`0` = available parallelism).
    /// The per-image `workers` settings of pushed configs are ignored —
    /// the pool is the batch's.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Adds one image's campaign to the batch. Results come back in push
    /// order.
    pub fn push(&mut self, image: Arc<ProgramImage>, config: CampaignConfig) {
        self.items.push((image, config));
    }

    /// Number of campaigns in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the batch has no campaigns.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Runs every campaign through one shared worker pool.
    pub fn run(&self) -> BatchResult {
        self.run_recorded(&NULL_RECORDER)
    }

    /// [`CampaignBatch::run`] with a structured-event [`Recorder`]: stage
    /// spans (`batch.prepare`, `batch.execute`, `batch.reduce`) plus one
    /// `injection` event per experiment (tagged with its image index) and
    /// one `worker` event per pool worker.
    pub fn run_recorded(&self, recorder: &dyn Recorder) -> BatchResult {
        // Stage 1 (per image): golden run, validation, plan derivation.
        // Goldens run sequentially — they are few and the deterministic
        // engine is single-threaded anyway.
        let span = Span::enter(recorder, "batch.prepare");
        let goldens: Vec<Option<RunResult>> = self
            .items
            .iter()
            .map(|(image, config)| {
                (config.sim.nthreads != 0).then(|| SimEngine.run(image, &config.sim))
            })
            .collect();
        let mut jobs: Vec<CampaignJob<'_>> = Vec::new();
        let mut refused: Vec<Option<CampaignError>> = Vec::with_capacity(self.items.len());
        for (item, ((image, config), golden)) in self.items.iter().zip(&goldens).enumerate() {
            let job = golden
                .as_ref()
                .ok_or(CampaignError::NoThreads)
                .and_then(|golden| CampaignJob::new(Some(item), image, config, golden, None));
            refused.push(match job {
                Ok(job) => {
                    jobs.push(job);
                    None
                }
                Err(error) => Some(error),
            });
        }
        span.finish(&[
            ("images", Value::from(jobs.len())),
            ("injections", Value::from(jobs.iter().map(CampaignJob::planned).sum::<usize>())),
        ]);

        // Stage 2: one pool over all images, the campaign engine's own.
        let span = Span::enter(recorder, "batch.execute");
        let worker_stats = run_pool(&jobs, self.workers, recorder);
        span.finish(&[("workers", Value::from(worker_stats.len()))]);

        // Stage 3 (per image): the same index-order reduce as the
        // single-image engine; the jobs are in push order, so each image
        // that was not refused takes the next one.
        let span = Span::enter(recorder, "batch.reduce");
        let mut reduced = jobs.into_iter().map(|job| job.reduce(worker_stats.len(), Vec::new()));
        let results: Vec<Result<CampaignResult, CampaignError>> = refused
            .into_iter()
            .map(|refusal| match refusal {
                Some(error) => Err(error),
                None => Ok(reduced.next().expect("a job for every image not refused")),
            })
            .collect();
        span.finish(&[("images", Value::from(results.len()))]);
        worker_stats.iter().for_each(|w| w.record_to(recorder));
        recorder.flush();

        BatchResult { results, worker_stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::injector::FaultModel;

    fn image(src: &str) -> Arc<ProgramImage> {
        Arc::new(ProgramImage::prepare_default(bw_ir::frontend::compile(src).expect("compile")))
    }

    const SRC: &str = r#"
        shared int n = 12;
        @spmd func f() {
            var t: int = threadid();
            for (var i: int = 0; i < n; i = i + 1) {
                if (i == t) { output(i * 2); }
            }
        }
    "#;

    #[test]
    fn empty_batch_runs() {
        let outcome = CampaignBatch::new().run();
        assert!(outcome.results.is_empty());
    }

    #[test]
    fn batch_matches_sequential_campaigns() {
        let img = image(SRC);
        let configs: Vec<CampaignConfig> = (0..4)
            .map(|i| CampaignConfig::new(8, FaultModel::BranchFlip, 2).seed(0x1000 + i))
            .collect();
        let mut batch = CampaignBatch::new().workers(3);
        for config in &configs {
            batch.push(Arc::clone(&img), config.clone());
        }
        let outcome = batch.run();
        for (config, result) in configs.iter().zip(&outcome.results) {
            let batched = result.as_ref().expect("batch campaign failed");
            let alone = run_campaign(&img, &config.clone().workers(1)).expect("campaign");
            assert_eq!(batched.records, alone.records);
            assert_eq!(batched.counts, alone.counts);
        }
    }

    #[test]
    fn per_image_errors_do_not_poison_the_batch() {
        let img = image(SRC);
        let mut batch = CampaignBatch::new().workers(2);
        batch.push(Arc::clone(&img), CampaignConfig::new(4, FaultModel::BranchFlip, 0));
        batch.push(Arc::clone(&img), CampaignConfig::new(4, FaultModel::BranchFlip, 2));
        let outcome = batch.run();
        assert_eq!(outcome.results.len(), 2);
        assert!(matches!(outcome.results[0], Err(CampaignError::NoThreads)));
        assert_eq!(outcome.results[1].as_ref().unwrap().records.len(), 4);
    }
}
