//! Every topology against a passive [`Monitor`], at queue budgets down to
//! one slot: a sender waits on a full queue instead of dropping, so every
//! run processes every event and reaches exactly the passive verdict.

use bw_analysis::CheckKind;
use bw_monitor::{BranchEvent, CheckTable, Monitor, MonitorBuilder, MonitorTopology, Violation};

const NTHREADS: usize = 4;
const SITES: u64 = 8;
const ITERS: u64 = 25;

fn checks() -> CheckTable {
    CheckTable::from_kinds(vec![Some(CheckKind::SharedUniform)])
}

/// Thread `t`'s stream: thread 1 lies about the witness at iteration 7 of
/// every odd site.
fn stream(t: usize) -> impl Iterator<Item = BranchEvent> {
    (0..SITES).flat_map(move |site| {
        (0..ITERS).map(move |iter| {
            let lie = t == 1 && site % 2 == 1 && iter == 7;
            BranchEvent {
                branch: 0,
                thread: t as u32,
                site,
                iter,
                witness: if lie { 0xbad } else { iter },
                taken: true,
            }
        })
    })
}

fn sorted(mut violations: Vec<Violation>) -> Vec<Violation> {
    violations.sort_unstable_by_key(|v| (v.site, v.branch, v.iter, v.kind));
    violations
}

#[test]
fn every_topology_matches_the_passive_monitor_at_any_capacity() {
    let mut passive = Monitor::new(checks(), NTHREADS);
    for t in 0..NTHREADS {
        stream(t).for_each(|e| passive.process(e));
    }
    passive.flush();
    let expected = sorted(passive.violations().to_vec());
    assert_eq!(expected.len(), (SITES / 2) as usize);

    for topology in [
        MonitorTopology::Flat,
        MonitorTopology::Sharded { shards: 1 },
        MonitorTopology::Sharded { shards: 2 },
        MonitorTopology::Sharded { shards: 4 },
    ] {
        for capacity in [1usize, 2, 16, 1 << 14] {
            let (senders, handle) = MonitorBuilder::new(checks(), NTHREADS)
                .topology(topology)
                .queue_capacity(capacity)
                .spawn();
            let producers: Vec<_> = senders
                .into_iter()
                .enumerate()
                .map(|(t, mut sender)| {
                    std::thread::spawn(move || {
                        stream(t).for_each(|e| sender.send(e));
                        sender.sent()
                    })
                })
                .collect();
            let sent: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
            let verdict = handle.join();
            let ctx = format!("{topology:?} capacity {capacity}");
            assert_eq!(sent, NTHREADS as u64 * SITES * ITERS, "{ctx}");
            assert_eq!(verdict.events_processed, sent, "{ctx}: every event is checked");
            assert_eq!(verdict.violations, expected, "{ctx}");
        }
    }
}
