//! `bw fuzz --inject`: every seed the oracle passes gets its own campaign,
//! run right after its oracle. The session's injection counts must be the
//! sum of standalone campaigns on those seeds, and its trace must hold
//! exactly the injections the campaigns planned.

use blockwatch::fault::{run_campaign, CampaignConfig, FaultModel, OutcomeCounts, TraceInjection};
use blockwatch::gen::{generate_module, run_fuzz, FuzzConfig, GenConfig};
use blockwatch::telemetry::{records, TraceBuffer, Value, NULL_RECORDER};
use blockwatch::vm::{ExecConfig, ProgramImage};
use blockwatch::AnalysisConfig;

const INJECTIONS: usize = 4;

#[test]
fn the_injection_stage_is_the_standalone_campaigns_of_the_passing_seeds() {
    let config = FuzzConfig { seeds: 32, injections: INJECTIONS, ..FuzzConfig::default() };
    let buf = TraceBuffer::default();
    let report = run_fuzz(&config, &buf.recorder());
    assert_eq!(report, run_fuzz(&config, &NULL_RECORDER), "the recorder changes nothing");
    let trace = buf.text();

    // Each seed's `fuzz.seed` record, then its campaign's injections.
    let mut injections: Vec<(u64, Vec<u64>)> = Vec::new();
    for rec in records(&trace) {
        let rec = rec.unwrap();
        match &*rec.ev() {
            "fuzz.seed" if rec.field("status").and_then(Value::as_str) == Some("ok") => {
                injections.push((rec.field("seed").and_then(Value::as_u64).unwrap(), Vec::new()));
            }
            "fuzz.seed" => {}
            TraceInjection::EV => {
                let index = TraceInjection::from_record(rec).unwrap().index;
                injections.last_mut().expect("a campaign follows its seed").1.push(index);
            }
            _ => {}
        }
    }
    assert!(injections.len() > 16, "too few seeds passed: {}", report.render());
    assert_eq!(injections.len() as u64 + report.failures.len() as u64, config.seeds);

    let nthreads = config.threads.iter().copied().max().unwrap();
    let gen = GenConfig { max_threads: nthreads.max(GenConfig::default().max_threads), ..config.gen };
    let mut expected = OutcomeCounts::default();
    for (seed, mut indices) in injections {
        indices.sort_unstable();
        assert_eq!(indices, (0..INJECTIONS as u64).collect::<Vec<_>>(), "seed {seed:#x}");
        let image = ProgramImage::prepare(generate_module(seed, &gen), AnalysisConfig::default());
        let sim = ExecConfig::new(nthreads).seed(seed).max_steps(2_000_000);
        let campaign = CampaignConfig::new(INJECTIONS, FaultModel::BranchFlip, nthreads)
            .seed(seed)
            .sim(sim);
        let counts = run_campaign(&image, &campaign).expect("the oracle passed it").counts;
        expected.not_activated += counts.not_activated;
        expected.detected += counts.detected;
        expected.crashed += counts.crashed;
        expected.hung += counts.hung;
        expected.masked += counts.masked;
        expected.sdc += counts.sdc;
    }
    assert_eq!(report.injection_counts, expected);
}
