//! The paper's Section IV false-positive experiment, as a test: repeated
//! fault-free runs of every instrumented benchmark report zero violations.
//! (The full 100-run sweep is `bw false_positives`; this test keeps CI
//! time bounded with a smaller sweep over more configurations.)

use blockwatch::reports::false_positive_sweep;
use blockwatch::Size;

#[test]
fn no_false_positives_across_seeds_and_thread_counts() {
    for nthreads in [2u32, 4, 8] {
        for (name, fps) in false_positive_sweep(Size::Test, nthreads, 5) {
            assert_eq!(fps, 0, "{name} at {nthreads} threads produced false positives");
        }
    }
}
