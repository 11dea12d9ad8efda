//! Property tests for the monitor infrastructure: the SPSC queue against a
//! sequential model, key hashing, and checker invariants.

use bw_analysis::{CheckKind, TidCheck};
use bw_monitor::{check_instance, hash_words, spsc_queue, Report};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Clone, Debug)]
enum QueueOp {
    Push(u64),
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<QueueOp>> {
    proptest::collection::vec(
        prop_oneof![any::<u64>().prop_map(QueueOp::Push), Just(QueueOp::Pop)],
        0..200,
    )
}

proptest! {
    /// The SPSC queue behaves exactly like a bounded FIFO model under any
    /// sequential operation interleaving.
    #[test]
    fn spsc_matches_fifo_model(ops in ops(), capacity in 1usize..16) {
        let (producer, consumer) = spsc_queue(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                QueueOp::Push(v) => {
                    let pushed = producer.push(v).is_ok();
                    let model_pushed = model.len() < capacity;
                    prop_assert_eq!(pushed, model_pushed);
                    if model_pushed {
                        model.push_back(v);
                    }
                }
                QueueOp::Pop => {
                    prop_assert_eq!(consumer.pop(), model.pop_front());
                }
            }
            prop_assert_eq!(producer.len(), model.len());
        }
    }

    /// Key hashing separates what the runtime keys must keep apart: two word
    /// sequences of one length that differ in exactly one position hash
    /// differently. Every case also flips bit 63 alone, which a step with an
    /// even multiplier would shift out of the state.
    #[test]
    fn one_word_apart_hashes_apart(
        words in proptest::collection::vec(any::<u64>(), 1..8),
        at in any::<usize>(),
        delta in 1u64..u64::MAX,
    ) {
        let at = at % words.len();
        for delta in [delta, 1 << 63] {
            let mut other = words.clone();
            other[at] ^= delta;
            prop_assert_ne!(hash_words(words.iter().copied()), hash_words(other));
        }
    }

    /// A set of reports that all agree passes every check kind.
    #[test]
    fn agreement_passes_all_checks(
        nthreads in 2u32..16,
        witness in any::<u64>(),
        taken in any::<bool>(),
    ) {
        let reports: Vec<Report> =
            (0..nthreads).map(|t| Report { thread: t, witness, taken }).collect();
        for kind in [CheckKind::SharedUniform, CheckKind::GroupByWitness] {
            prop_assert!(check_instance(kind, &reports).is_ok());
        }
        // Uniform outcomes satisfy every ordered tid predicate; the
        // equality predicates need the dissenter bound to hold.
        for tid in [TidCheck::TakenIsPrefix, TidCheck::TakenIsSuffix] {
            prop_assert!(check_instance(CheckKind::ThreadIdPredicate(tid), &reports).is_ok());
        }
    }

    /// Checker verdicts are invariant under permutation of the reports.
    #[test]
    fn verdicts_are_permutation_invariant(
        mut reports in proptest::collection::vec(
            (0u32..8, 0u64..4, any::<bool>())
                .prop_map(|(thread, witness, taken)| Report { thread, witness, taken }),
            2..8,
        ),
    ) {
        // Deduplicate thread ids (the table does this in production).
        reports.sort_by_key(|r| r.thread);
        reports.dedup_by_key(|r| r.thread);
        for kind in [
            CheckKind::SharedUniform,
            CheckKind::GroupByWitness,
            CheckKind::ThreadIdPredicate(TidCheck::AtMostOneTaken),
            CheckKind::ThreadIdPredicate(TidCheck::TakenIsPrefix),
        ] {
            let forward = check_instance(kind, &reports);
            let mut reversed = reports.clone();
            reversed.reverse();
            prop_assert_eq!(forward, check_instance(kind, &reversed));
        }
    }

    /// A single dissenting direction within a witness group is always
    /// caught by the group check.
    #[test]
    fn split_group_is_always_caught(
        nthreads in 3u32..12,
        witness in any::<u64>(),
        dissenter in 0u32..3,
    ) {
        let dissenter = dissenter % nthreads;
        let reports: Vec<Report> = (0..nthreads)
            .map(|t| Report { thread: t, witness, taken: t == dissenter })
            .collect();
        prop_assert!(check_instance(CheckKind::GroupByWitness, &reports).is_err());
        prop_assert!(check_instance(CheckKind::SharedUniform, &reports).is_err());
    }
}
