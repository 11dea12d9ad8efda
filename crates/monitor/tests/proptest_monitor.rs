//! Property tests for the monitor infrastructure: the SPSC queue against a
//! sequential model, key hashing, and checker invariants. Each runs 64
//! cases from a fixed-seed SplitMix64; a failure names its case index and
//! input.

use bw_analysis::{CheckKind, TidCheck};
use bw_monitor::{check_instance, hash_words, spsc_queue, Report};
use bw_vm::SplitMix64;
use std::collections::VecDeque;

#[derive(Debug)]
enum QueueOp {
    Push(u64),
    Pop,
}

/// Up to 199 pushes and pops, half of each.
fn ops(rng: &mut SplitMix64) -> Vec<QueueOp> {
    (0..rng.below(200))
        .map(|_| if rng.below(2) == 0 { QueueOp::Push(rng.next_u64()) } else { QueueOp::Pop })
        .collect()
}

/// The SPSC queue behaves exactly like a bounded FIFO model under any
/// sequential operation interleaving.
#[test]
fn spsc_matches_fifo_model() {
    let mut rng = SplitMix64::new(1);
    for case in 0..64 {
        let (ops, capacity) = (ops(&mut rng), 1 + rng.below(15) as usize);
        let what = format!("case {case}: capacity {capacity}, {ops:?}");
        let (producer, consumer) = spsc_queue(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                QueueOp::Push(v) => {
                    let pushed = producer.push(v).is_ok();
                    let model_pushed = model.len() < capacity;
                    assert_eq!(pushed, model_pushed, "{what}");
                    if model_pushed {
                        model.push_back(v);
                    }
                }
                QueueOp::Pop => {
                    assert_eq!(consumer.pop(), model.pop_front(), "{what}");
                }
            }
            assert_eq!(producer.len(), model.len(), "{what}");
        }
    }
}

/// Key hashing separates what the runtime keys must keep apart: two word
/// sequences of one length that differ in exactly one position hash
/// differently. Every case also flips bit 63 alone, which a step with an
/// even multiplier would shift out of the state.
#[test]
fn one_word_apart_hashes_apart() {
    let mut rng = SplitMix64::new(2);
    for case in 0..64 {
        let words: Vec<u64> = (0..1 + rng.below(7)).map(|_| rng.next_u64()).collect();
        let at = rng.below(words.len() as i64) as usize;
        let delta = 1 + rng.next_u64() % (u64::MAX - 1);
        for delta in [delta, 1 << 63] {
            let mut other = words.clone();
            other[at] ^= delta;
            let what = format!("case {case}: {words:?}, word {at} ^ {delta:#x}");
            assert_ne!(hash_words(words.iter().copied()), hash_words(other), "{what}");
        }
    }
}

/// A set of reports that all agree passes every check kind.
#[test]
fn agreement_passes_all_checks() {
    let mut rng = SplitMix64::new(3);
    for case in 0..64 {
        let nthreads = 2 + rng.below(14) as u32;
        let (witness, taken) = (rng.next_u64(), rng.below(2) == 1);
        let reports: Vec<Report> =
            (0..nthreads).map(|t| Report { thread: t, witness, taken }).collect();
        let what = format!("case {case}: {nthreads} threads, witness {witness}, taken {taken}");
        for kind in [CheckKind::SharedUniform, CheckKind::GroupByWitness] {
            assert!(check_instance(kind, &reports).is_ok(), "{what}: {kind:?}");
        }
        // Uniform outcomes satisfy every ordered tid predicate; the
        // equality predicates need the dissenter bound to hold.
        for tid in [TidCheck::TakenIsPrefix, TidCheck::TakenIsSuffix] {
            let kind = CheckKind::ThreadIdPredicate(tid);
            assert!(check_instance(kind, &reports).is_ok(), "{what}: {kind:?}");
        }
    }
}

/// Checker verdicts are invariant under permutation of the reports.
#[test]
fn verdicts_are_permutation_invariant() {
    let mut rng = SplitMix64::new(4);
    for case in 0..64 {
        let mut reports: Vec<Report> = (0..2 + rng.below(6))
            .map(|_| Report {
                thread: rng.below(8) as u32,
                witness: rng.below(4) as u64,
                taken: rng.below(2) == 1,
            })
            .collect();
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
            let what = format!("case {case}: {kind:?}, {reports:?}");
            assert_eq!(forward, check_instance(kind, &reversed), "{what}");
        }
    }
}

/// A single dissenting direction within a witness group is always caught by
/// the group check.
#[test]
fn split_group_is_always_caught() {
    let mut rng = SplitMix64::new(5);
    for case in 0..64 {
        let nthreads = 3 + rng.below(9) as u32;
        let witness = rng.next_u64();
        let dissenter = rng.below(3) as u32 % nthreads;
        let reports: Vec<Report> =
            (0..nthreads).map(|t| Report { thread: t, witness, taken: t == dissenter }).collect();
        let what =
            format!("case {case}: {nthreads} threads, witness {witness}, thread {dissenter}");
        assert!(check_instance(CheckKind::GroupByWitness, &reports).is_err(), "{what}");
        assert!(check_instance(CheckKind::SharedUniform, &reports).is_err(), "{what}");
    }
}
