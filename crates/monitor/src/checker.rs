//! Per-category instance checkers: given every thread's report for one
//! runtime instance of a branch, decide whether the reports are consistent
//! with the statically inferred similarity.

use bw_analysis::{CheckKind, TidCheck};

/// One thread's report for a branch instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Report {
    /// Reporting thread id.
    pub thread: u32,
    /// Condition witness hash.
    pub witness: u64,
    /// Branch outcome.
    pub taken: bool,
}

/// Why an instance violated its check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// A `shared` (or threadID) branch saw differing condition witnesses.
    WitnessMismatch,
    /// A `shared` branch saw differing outcomes.
    DirectionMismatch,
    /// Threads with equal witnesses took different directions.
    GroupMismatch,
    /// The outcomes violated the thread-ID predicate.
    TidPredicate,
}

/// Checks one instance's reports against `kind`.
///
/// Checks need at least two reporters (the paper: "BLOCKWATCH needs a
/// minimum of two threads"); instances with fewer pass vacuously.
///
/// # Errors
///
/// Returns the kind of violation when the reports are inconsistent with the
/// statically inferred similarity.
pub fn check_instance(kind: CheckKind, reports: &[Report]) -> Result<(), ViolationKind> {
    if reports.len() < 2 {
        return Ok(());
    }
    match kind {
        CheckKind::SharedUniform => {
            let w0 = reports[0].witness;
            if reports.iter().any(|r| r.witness != w0) {
                return Err(ViolationKind::WitnessMismatch);
            }
            let t0 = reports[0].taken;
            if reports.iter().any(|r| r.taken != t0) {
                return Err(ViolationKind::DirectionMismatch);
            }
            Ok(())
        }
        CheckKind::GroupByWitness => check_groups(reports),
        CheckKind::ThreadIdPredicate(tid) => {
            // The witness carries the shared side of the comparison: it must
            // agree across threads.
            let w0 = reports[0].witness;
            if reports.iter().any(|r| r.witness != w0) {
                return Err(ViolationKind::WitnessMismatch);
            }
            check_tid(tid, reports)
        }
    }
}

fn check_groups(reports: &[Report]) -> Result<(), ViolationKind> {
    // Group sizes are tiny (≤ nthreads); quadratic scan beats allocation.
    for (i, a) in reports.iter().enumerate() {
        for b in &reports[i + 1..] {
            if a.witness == b.witness && a.taken != b.taken {
                return Err(ViolationKind::GroupMismatch);
            }
        }
    }
    Ok(())
}

fn check_tid(tid: TidCheck, reports: &[Report]) -> Result<(), ViolationKind> {
    match tid {
        TidCheck::AtMostOneTaken => {
            if reports.iter().filter(|r| r.taken).count() > 1 {
                Err(ViolationKind::TidPredicate)
            } else {
                Ok(())
            }
        }
        TidCheck::AtMostOneNotTaken => {
            if reports.iter().filter(|r| !r.taken).count() > 1 {
                Err(ViolationKind::TidPredicate)
            } else {
                Ok(())
            }
        }
        TidCheck::TakenIsPrefix => check_monotone(reports, true),
        TidCheck::TakenIsSuffix => check_monotone(reports, false),
    }
}

/// For `tid < shared`-style predicates the takers form a prefix of the
/// thread IDs: whenever `t1 < t2` and `t2` took the branch, `t1` must have
/// too (suffix is the mirror image).
fn check_monotone(reports: &[Report], prefix: bool) -> Result<(), ViolationKind> {
    for a in reports {
        for b in reports {
            let (lo, hi) = if a.thread < b.thread { (a, b) } else { continue };
            let violated = if prefix { hi.taken && !lo.taken } else { lo.taken && !hi.taken };
            if violated {
                return Err(ViolationKind::TidPredicate);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(thread: u32, witness: u64, taken: bool) -> Report {
        Report { thread, witness, taken }
    }

    #[test]
    fn single_reporter_passes_vacuously() {
        for kind in [
            CheckKind::SharedUniform,
            CheckKind::GroupByWitness,
            CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken),
        ] {
            assert_eq!(check_instance(kind, &[r(0, 1, true)]), Ok(()));
            assert_eq!(check_instance(kind, &[]), Ok(()));
        }
    }

    #[test]
    fn shared_uniform_accepts_agreement() {
        let reports = [r(0, 42, true), r(1, 42, true), r(2, 42, true)];
        assert_eq!(check_instance(CheckKind::SharedUniform, &reports), Ok(()));
    }

    #[test]
    fn shared_uniform_flags_witness_mismatch() {
        let reports = [r(0, 42, true), r(1, 43, true)];
        assert_eq!(
            check_instance(CheckKind::SharedUniform, &reports),
            Err(ViolationKind::WitnessMismatch)
        );
    }

    #[test]
    fn shared_uniform_flags_direction_mismatch() {
        let reports = [r(0, 42, true), r(1, 42, false)];
        assert_eq!(
            check_instance(CheckKind::SharedUniform, &reports),
            Err(ViolationKind::DirectionMismatch)
        );
    }

    #[test]
    fn group_check_allows_distinct_groups() {
        let reports = [r(0, 1, true), r(1, 1, true), r(2, 2, false), r(3, 2, false)];
        assert_eq!(check_instance(CheckKind::GroupByWitness, &reports), Ok(()));
    }

    #[test]
    fn group_check_flags_split_group() {
        let reports = [r(0, 1, true), r(1, 2, false), r(2, 1, false)];
        assert_eq!(
            check_instance(CheckKind::GroupByWitness, &reports),
            Err(ViolationKind::GroupMismatch)
        );
    }

    #[test]
    fn at_most_one_taken() {
        let kind = CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken);
        assert_eq!(check_instance(kind, &[r(0, 0, true), r(1, 0, false)]), Ok(()));
        assert_eq!(check_instance(kind, &[r(0, 0, false), r(1, 0, false)]), Ok(()));
        assert_eq!(
            check_instance(kind, &[r(0, 0, true), r(1, 0, true)]),
            Err(ViolationKind::TidPredicate)
        );
    }

    #[test]
    fn at_most_one_not_taken() {
        let kind = CheckKind::ThreadIdPredicate(TidCheck::AtMostOneNotTaken);
        assert_eq!(check_instance(kind, &[r(0, 0, false), r(1, 0, true)]), Ok(()));
        assert_eq!(
            check_instance(kind, &[r(0, 0, false), r(1, 0, false), r(2, 0, true)]),
            Err(ViolationKind::TidPredicate)
        );
    }

    #[test]
    fn prefix_predicate() {
        let kind = CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix);
        // tid < 2: threads 0,1 take, 2,3 don't.
        let good = [r(0, 9, true), r(1, 9, true), r(2, 9, false), r(3, 9, false)];
        assert_eq!(check_instance(kind, &good), Ok(()));
        // Hole in the prefix: thread 1 flipped.
        let bad = [r(0, 9, true), r(1, 9, false), r(2, 9, true)];
        assert_eq!(check_instance(kind, &bad), Err(ViolationKind::TidPredicate));
    }

    #[test]
    fn suffix_predicate() {
        let kind = CheckKind::ThreadIdPredicate(TidCheck::TakenIsSuffix);
        let good = [r(0, 9, false), r(1, 9, false), r(2, 9, true), r(3, 9, true)];
        assert_eq!(check_instance(kind, &good), Ok(()));
        let bad = [r(0, 9, true), r(1, 9, false)];
        assert_eq!(check_instance(kind, &bad), Err(ViolationKind::TidPredicate));
    }

    #[test]
    fn prefix_works_on_subset_of_threads() {
        let kind = CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix);
        // Only threads 1 and 3 reported; 3 took, 1 did not → violation.
        let bad = [r(1, 9, false), r(3, 9, true)];
        assert_eq!(check_instance(kind, &bad), Err(ViolationKind::TidPredicate));
    }

    /// Every kind the plan can ask for.
    const KINDS: [CheckKind; 6] = [
        CheckKind::SharedUniform,
        CheckKind::GroupByWitness,
        CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken),
        CheckKind::ThreadIdPredicate(TidCheck::AtMostOneNotTaken),
        CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix),
        CheckKind::ThreadIdPredicate(TidCheck::TakenIsSuffix),
    ];

    /// The reports of `reports` that `mask` keeps, in order.
    fn subsequence(reports: &[Report], mask: u64) -> Vec<Report> {
        reports.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, r)| *r).collect()
    }

    /// What makes a flush that skips instances exact: an instance with
    /// fewer than two reports passes, and every check is hereditary —
    /// reports that pass keep passing with any of them left out. Checked
    /// on every arrival order of up to four of four threads, witnesses in
    /// {0, 1, 2}, both directions, every subsequence of each passing set.
    #[test]
    fn checks_pass_below_two_reports_and_are_hereditary() {
        let mut sets = vec![Vec::new()];
        let mut frontier = vec![Vec::new()];
        for _ in 0..4 {
            let mut next = Vec::new();
            for set in &frontier {
                for thread in (0..4).filter(|t| set.iter().all(|r: &Report| r.thread != *t)) {
                    for (witness, taken) in (0..3).flat_map(|w| [(w, false), (w, true)]) {
                        let mut longer = set.clone();
                        longer.push(r(thread, witness, taken));
                        next.push(longer);
                    }
                }
            }
            sets.extend(next.iter().cloned());
            frontier = next;
        }
        assert_eq!(sets.len(), 1 + 4 * 6 + 12 * 36 + 24 * 216 + 24 * 1296);
        for kind in KINDS {
            // Four-report sets that pass: some must, and not all.
            let mut passing = 0;
            for (case, set) in sets.iter().enumerate() {
                let passed = check_instance(kind, set).is_ok();
                if set.len() < 2 {
                    assert!(passed, "{kind:?}, case {case}: {set:?} fails with one reporter");
                }
                if !passed {
                    continue;
                }
                passing += usize::from(set.len() == 4);
                for mask in 0..1u64 << set.len() {
                    let sub = subsequence(set, mask);
                    assert_eq!(
                        check_instance(kind, &sub),
                        Ok(()),
                        "{kind:?}, case {case}: {set:?} passes, its subsequence {sub:?} fails"
                    );
                }
            }
            assert!(passing > 0 && passing < 24 * 1296, "{kind:?}: {passing} sets of 4 pass");
        }
    }

    /// The same at 32 reporters, sampled: each case draws a rule for the
    /// directions (uniform, by thread-id cut, one thread singled out, by
    /// witness, or random) so that every kind sees passing sets, then
    /// perturbs a report now and then, and tries 64 random subsequences of
    /// each passing set.
    #[test]
    fn checks_are_hereditary_at_32_reporters() {
        let mut rng = bw_vm::SplitMix64::new(1);
        let mut passing = [0usize; KINDS.len()];
        for case in 0..4000 {
            let mut threads: Vec<u32> = (0..48).collect();
            for i in (1..threads.len()).rev() {
                threads.swap(i, rng.below(i as i64 + 1) as usize);
            }
            let witnesses = 1 + rng.below(3) as u64;
            let (rule, cut) = (rng.below(6), rng.below(48) as u32);
            let mut reports: Vec<Report> = threads[..32]
                .iter()
                .map(|&thread| {
                    let witness = rng.below(witnesses as i64) as u64;
                    let taken = match rule {
                        0 => cut % 2 == 0,
                        1 => thread < cut,
                        2 => thread > cut,
                        3 => thread == cut,
                        4 => witness == 1,
                        _ => rng.below(2) == 1,
                    };
                    r(thread, witness, taken)
                })
                .collect();
            if rng.below(4) == 0 {
                let flip = rng.below(32) as usize;
                reports[flip].taken = !reports[flip].taken;
            }
            for (k, kind) in KINDS.into_iter().enumerate() {
                if check_instance(kind, &reports).is_err() {
                    continue;
                }
                passing[k] += 1;
                for _ in 0..64 {
                    let sub = subsequence(&reports, rng.next_u64() & 0xffff_ffff);
                    assert_eq!(
                        check_instance(kind, &sub),
                        Ok(()),
                        "{kind:?}, case {case}: {reports:?} passes, its subsequence {sub:?} fails"
                    );
                }
            }
        }
        assert!(passing.iter().all(|&n| n >= 100), "passing sets per kind: {passing:?}");
    }

    #[test]
    fn tid_predicate_checks_shared_witness_too() {
        let kind = CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken);
        let reports = [r(0, 1, true), r(1, 2, false)];
        assert_eq!(check_instance(kind, &reports), Err(ViolationKind::WitnessMismatch));
    }
}
