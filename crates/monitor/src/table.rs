//! The monitor's back-end: the table correlating branch reports across
//! threads, laid out flat.
//!
//! The paper's two keys are kept: level 1 is `(static branch id, call-site
//! path)` — the "function's call site ID and static branch identifier" —
//! and level 2 adds the enclosing-loop iteration hash. What is not kept is
//! a map per level-1 key. Level 1 is the site table
//! ([`crate::FlightRecorder`], which exists only with the `provenance`
//! feature: nothing else needs per-site state); level 2 is the
//! [`BranchTable`] here, keyed by the full `(branch, site, iter)` key. Both
//! are a [`KeyIndex`] — an open-addressing array of `hash tag | row` words —
//! over a dense `Vec` of 32-byte rows, and the reports of an instance are a
//! chain through one shared arena, one node per report received. Nothing is
//! allocated per key: the arenas and indexes grow by doubling, completed
//! chains and rows go onto free lists, and an event costs one probe here
//! (and one in the site table).
//!
//! An instance accumulates one report per thread; when `nthreads` threads
//! have reported it is handed out for its eager check and removed. Entries
//! with fewer reporters are checked at [`BranchTable::drain_pending`] (end
//! of the parallel phase), since the monitor cannot know statically how
//! many threads execute a branch that is itself under divergent control.
//!
//! A thread reporting a key it has already reported is defined behaviour,
//! not a sign of a hash collision: while the instance is pending the first
//! report wins and later ones from that thread are dropped; after it has
//! completed, the next report opens a new instance under the same key. A
//! sender that truncates the `iter` key at the paper's six-loop cutoff
//! repeats a key once per iteration of the loops beyond it, and
//! [`crate::Monitor::process`] takes any stream. (This repository's engines
//! happen not to: the VM hashes the whole loop stack and leaves branches
//! nested deeper than the cutoff uninstrumented instead — no re-report in
//! the seven ports at any size, nor in 1,200 injected runs.)

use crate::checker::Report;

/// End of a chain, or an empty list. Arena indices stay below it.
pub(crate) const NIL: u32 = Link::NEXT;

/// A chain link: the arena index of the next node in the low 31 bits and
/// the node's own branch direction in the top one, which keeps a report
/// node at 16 bytes and a recorder node at 24.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Link(u32);

impl Link {
    const NEXT: u32 = u32::MAX >> 1;

    pub(crate) fn new(next: u32, taken: bool) -> Self {
        Link(next | (u32::from(taken) << 31))
    }

    pub(crate) fn next(self) -> u32 {
        self.0 & Self::NEXT
    }

    pub(crate) fn taken(self) -> bool {
        self.0 > Self::NEXT
    }

    pub(crate) fn set_next(&mut self, next: u32) {
        self.0 = (self.0 & !Self::NEXT) | next;
    }
}

/// Appends `node` to `arena` and returns its index.
pub(crate) fn push_node<T>(arena: &mut Vec<T>, node: T) -> u32 {
    let index = arena.len();
    assert!(index < NIL as usize, "monitor arena exceeds 2^31 nodes");
    arena.push(node);
    index as u32
}

/// Hashes a runtime key. `site` and `iter` are FNV hashes already and the
/// only party choosing keys is the program being monitored, so two folded
/// multiplies to spread them over the index are enough; a keyed hash
/// (SipHash) would defend against nothing here.
#[inline]
pub(crate) fn mix_key(branch: u32, site: u64, iter: u64) -> u64 {
    fn fold(a: u64, b: u64) -> u64 {
        let product = u128::from(a) * u128::from(b);
        (product as u64) ^ ((product >> 64) as u64)
    }
    let keys = fold(site ^ 0x9e37_79b9_7f4a_7c15, iter ^ 0xc2b2_ae3d_27d4_eb4f);
    fold(keys ^ u64::from(branch), 0x1656_67b1_9e37_79f9)
}

/// Open-addressing index from a key's hash to the row that holds the key
/// in some dense arena. A slot is zero when empty, else the upper half of
/// the hash above `row + 1`; the stored half also gives the slot's home
/// position, so growing and deleting never look at a key. Linear probing,
/// at most three quarters full, deletion by backward shift (no tombstones).
#[derive(Debug, Default)]
pub(crate) struct KeyIndex {
    slots: Vec<u64>,
    used: usize,
}

impl KeyIndex {
    const MIN_SLOTS: usize = 16;

    /// Makes room for one more key; call before [`KeyIndex::probe`].
    #[inline]
    pub(crate) fn reserve(&mut self) {
        if (self.used + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
    }

    #[cold]
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let mask = slots - 1;
        for slot in std::mem::replace(&mut self.slots, vec![0; slots]) {
            if slot != 0 {
                let mut pos = (slot >> 32) as usize & mask;
                while self.slots[pos] != 0 {
                    pos = (pos + 1) & mask;
                }
                self.slots[pos] = slot;
            }
        }
    }

    /// Looks for the key with `hash` for which `is_key(row)` holds:
    /// `Ok(position)` of its slot, or `Err(position)` of the empty slot it
    /// would go into. The index must hold at least one slot.
    #[inline]
    pub(crate) fn probe(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let tag = hash >> 32;
        let mut pos = tag as usize & mask;
        loop {
            let slot = self.slots[pos];
            if slot == 0 {
                return Err(pos);
            }
            if slot >> 32 == tag && is_key(slot as u32 - 1) {
                return Ok(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The row of the key with `hash`, if it is in the index (a read that,
    /// unlike [`KeyIndex::probe`], needs no slots).
    #[cfg(any(feature = "provenance", test))]
    pub(crate) fn get(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash, is_key).ok().map(|pos| self.row(pos))
    }

    /// The row stored at an occupied position.
    #[inline]
    pub(crate) fn row(&self, pos: usize) -> u32 {
        self.slots[pos] as u32 - 1
    }

    /// Fills the empty position a probe for `hash` ended on.
    #[inline]
    pub(crate) fn insert(&mut self, pos: usize, hash: u64, row: u32) {
        self.slots[pos] = (hash >> 32 << 32) | u64::from(row + 1);
        self.used += 1;
    }

    /// Empties an occupied position, shifting the rest of its cluster back
    /// so that every remaining key is still reachable from its home.
    pub(crate) fn remove(&mut self, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut hole = pos;
        let mut next = (pos + 1) & mask;
        while self.slots[next] != 0 {
            let home = (self.slots[next] >> 32) as usize & mask;
            // Movable unless its home lies after the hole (cyclically).
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole] = 0;
        self.used -= 1;
    }

    /// Number of keys held.
    pub(crate) fn len(&self) -> usize {
        self.used
    }

    /// Forgets every key, keeping the slots.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(0);
        self.used = 0;
    }
}

/// One pending instance: its key and the chain of its reports, in arrival
/// order. A row on the free list has `count == 0` and its successor in
/// `head`.
#[derive(Debug)]
struct Row {
    site: u64,
    iter: u64,
    branch: u32,
    head: u32,
    tail: u32,
    count: u32,
}

/// One report in the arena; `link` chains it to the instance's next report
/// (or, on the free list, to the next free node).
#[derive(Debug)]
struct ReportNode {
    witness: u64,
    thread: u32,
    link: Link,
}

impl ReportNode {
    fn new(report: Report) -> Self {
        ReportNode {
            witness: report.witness,
            thread: report.thread,
            link: Link::new(NIL, report.taken),
        }
    }
}

/// What [`BranchTable::record`] did with a report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Recorded {
    /// The report opened a new instance.
    pub(crate) opened: bool,
    /// The report was the `nthreads`-th; the instance was handed out and
    /// removed.
    pub(crate) completed: bool,
}

/// The level-2 table: every pending instance by its full runtime key.
#[derive(Debug)]
pub(crate) struct BranchTable {
    index: KeyIndex,
    rows: Vec<Row>,
    free_row: u32,
    reports: Vec<ReportNode>,
    free_report: u32,
}

impl Default for BranchTable {
    fn default() -> Self {
        BranchTable {
            index: KeyIndex::default(),
            rows: Vec::new(),
            free_row: NIL,
            reports: Vec::new(),
            free_report: NIL,
        }
    }
}

impl BranchTable {
    /// Records a report. If it is the `nthreads`-th of its instance, the
    /// instance's reports are left in `full` (arrival order) and the
    /// instance is removed — time to check it eagerly. A second report
    /// from a thread the pending instance already has is dropped.
    pub(crate) fn record(
        &mut self,
        branch: u32,
        site: u64,
        iter: u64,
        report: Report,
        nthreads: usize,
        full: &mut Vec<Report>,
    ) -> Recorded {
        self.index.reserve();
        let hash = mix_key(branch, site, iter);
        let rows = &self.rows;
        let found = self.index.probe(hash, |row| {
            let row = &rows[row as usize];
            row.site == site && row.iter == iter && row.branch == branch
        });
        let (pos, row, opened) = match found {
            Ok(pos) => {
                let row = self.index.row(pos);
                let mut node = self.rows[row as usize].head;
                while node != NIL {
                    if self.reports[node as usize].thread == report.thread {
                        return Recorded::default();
                    }
                    node = self.reports[node as usize].link.next();
                }
                let node = self.new_report(report);
                let entry = &mut self.rows[row as usize];
                self.reports[entry.tail as usize].link.set_next(node);
                entry.tail = node;
                entry.count += 1;
                (pos, row, false)
            }
            Err(pos) => {
                let node = self.new_report(report);
                let entry = Row { site, iter, branch, head: node, tail: node, count: 1 };
                let row = if self.free_row == NIL {
                    push_node(&mut self.rows, entry)
                } else {
                    let row = self.free_row;
                    self.free_row = std::mem::replace(&mut self.rows[row as usize], entry).head;
                    row
                };
                self.index.insert(pos, hash, row);
                (pos, row, true)
            }
        };
        let completed = self.rows[row as usize].count as usize >= nthreads;
        if completed {
            self.index.remove(pos);
            self.release(row, full);
        }
        Recorded { opened, completed }
    }

    /// Takes a node for `report` off the free list, or grows the arena.
    fn new_report(&mut self, report: Report) -> u32 {
        let node = ReportNode::new(report);
        if self.free_report == NIL {
            return push_node(&mut self.reports, node);
        }
        let index = self.free_report;
        self.free_report = std::mem::replace(&mut self.reports[index as usize], node).link.next();
        index
    }

    /// Copies a row's reports into `out` and puts the row and its whole
    /// chain (one splice) onto the free lists.
    fn release(&mut self, row: u32, out: &mut Vec<Report>) {
        let Row { head, tail, .. } = self.rows[row as usize];
        out.clear();
        let mut node = head;
        while node != NIL {
            let ReportNode { witness, thread, link } = self.reports[node as usize];
            out.push(Report { thread, witness, taken: link.taken() });
            node = link.next();
        }
        self.reports[tail as usize].link.set_next(self.free_report);
        self.free_report = head;
        let entry = &mut self.rows[row as usize];
        entry.count = 0;
        entry.head = self.free_row;
        self.free_row = row;
    }

    /// Removes every pending (partially reported) instance, passing each to
    /// `visit` as `(branch, site, iter, reports)` in no particular order;
    /// `reports` is the buffer they are copied through. The table keeps its
    /// memory for the next phase.
    pub(crate) fn drain_pending(
        &mut self,
        reports: &mut Vec<Report>,
        mut visit: impl FnMut(u32, u64, u64, &[Report]),
    ) {
        for row in 0..self.rows.len() {
            let Row { site, iter, branch, count, .. } = self.rows[row];
            if count != 0 {
                self.release(row as u32, reports);
                visit(branch, site, iter, reports);
            }
        }
        self.index.clear();
        self.rows.clear();
        self.reports.clear();
        self.free_row = NIL;
        self.free_report = NIL;
    }

    /// Number of pending instances: each holds one key of the index.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(thread: u32, taken: bool) -> Report {
        Report { thread, witness: 0, taken }
    }

    /// `record` with the buffer thrown away.
    fn rec(t: &mut BranchTable, key: (u32, u64, u64), report: Report, n: usize) -> Recorded {
        t.record(key.0, key.1, key.2, report, n, &mut Vec::new())
    }

    fn drained(t: &mut BranchTable) -> Vec<(u32, u64, u64, Vec<Report>)> {
        let mut out = Vec::new();
        t.drain_pending(&mut Vec::new(), |b, s, i, reports| out.push((b, s, i, reports.to_vec())));
        out.sort_by_key(|(b, s, i, _)| (*b, *s, *i));
        out
    }

    #[test]
    fn completes_at_nthreads() {
        let mut t = BranchTable::default();
        let mut full = Vec::new();
        let first = t.record(1, 0, 0, r(0, true), 3, &mut full);
        assert_eq!(first, Recorded { opened: true, completed: false });
        assert_eq!(t.record(1, 0, 0, r(1, false), 3, &mut full), Recorded::default());
        let last = t.record(1, 0, 0, r(2, true), 3, &mut full);
        assert_eq!(last, Recorded { opened: false, completed: true });
        assert_eq!(full, vec![r(0, true), r(1, false), r(2, true)], "arrival order");
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn a_single_thread_completes_what_it_opens() {
        let mut t = BranchTable::default();
        let mut full = Vec::new();
        let only = t.record(1, 0, 0, r(0, true), 1, &mut full);
        assert_eq!(only, Recorded { opened: true, completed: true });
        assert_eq!(full, vec![r(0, true)]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn distinct_instances_do_not_mix() {
        let mut t = BranchTable::default();
        rec(&mut t, (1, 0, 0), r(0, true), 2);
        rec(&mut t, (1, 0, 1), r(1, true), 2); // different loop iteration
        rec(&mut t, (2, 0, 0), r(1, true), 2); // different branch
        rec(&mut t, (1, 7, 0), r(1, true), 2); // different call path
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn first_report_wins_while_pending_and_a_completed_key_reopens() {
        let mut t = BranchTable::default();
        let mut full = Vec::new();
        assert!(t.record(1, 0, 0, r(0, true), 2, &mut full).opened);
        // Thread 0 comes round to the same key (a sender truncating `iter`).
        assert_eq!(t.record(1, 0, 0, r(0, false), 2, &mut full), Recorded::default());
        assert_eq!(t.len(), 1);
        assert!(t.record(1, 0, 0, r(1, true), 2, &mut full).completed);
        assert_eq!(full, vec![r(0, true), r(1, true)], "the dropped report left no trace");
        // After completion the key is free again: the next report opens a
        // new instance rather than joining the old one.
        assert!(t.record(1, 0, 0, r(0, false), 2, &mut full).opened);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn drain_returns_every_pending_instance_and_resets() {
        let mut t = BranchTable::default();
        rec(&mut t, (2, 0, 5), r(0, true), 4);
        rec(&mut t, (1, 0, 3), r(0, true), 4);
        rec(&mut t, (1, 0, 1), r(1, false), 4);
        rec(&mut t, (1, 0, 3), r(2, false), 4);
        for thread in 0..4 {
            rec(&mut t, (9, 9, 9), r(thread, true), 4); // completes: not pending
        }
        assert_eq!(
            drained(&mut t),
            vec![
                (1, 0, 1, vec![r(1, false)]),
                (1, 0, 3, vec![r(0, true), r(2, false)]),
                (2, 0, 5, vec![r(0, true)]),
            ]
        );
        assert_eq!(t.len(), 0);
        assert!(drained(&mut t).is_empty());
        // Usable afterwards, from a clean slate.
        assert!(rec(&mut t, (1, 0, 3), r(0, true), 4).opened);
    }

    #[test]
    fn completed_instances_recycle_their_rows_and_nodes() {
        let mut t = BranchTable::default();
        for iter in 0..1000u64 {
            for thread in 0..4 {
                rec(&mut t, (0, 0, iter), r(thread, true), 4);
            }
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.rows.len(), 1, "one instance in flight at a time");
        assert_eq!(t.reports.len(), 4);
    }

    #[test]
    fn index_survives_growth_and_removal_inside_clusters() {
        // Every tag has the same low bits, so all keys share one home and
        // form a single cluster; rows double as the key.
        let hash = |row: u32| (u64::from(row) << 40) | (5 << 32);
        let mut index = KeyIndex::default();
        let insert = |index: &mut KeyIndex, row: u32| {
            index.reserve();
            let pos = index.probe(hash(row), |r| r == row).expect_err("not yet present");
            index.insert(pos, hash(row), row);
        };
        assert_eq!(index.get(hash(0), |r| r == 0), None, "an empty index has no slots");
        for row in 0..100 {
            insert(&mut index, row);
        }
        for row in (0..100).step_by(3) {
            let pos = index.probe(hash(row), |r| r == row).expect("present");
            index.remove(pos);
        }
        for row in 0..100 {
            assert_eq!(index.get(hash(row), |r| r == row), (row % 3 != 0).then_some(row));
        }
        insert(&mut index, 0);
        assert_eq!(index.get(hash(0), |r| r == 0), Some(0));
        index.clear();
        assert_eq!(index.get(hash(1), |r| r == 1), None);
    }

    #[test]
    fn nodes_are_the_size_the_memory_budget_assumes() {
        assert_eq!(std::mem::size_of::<Row>(), 32);
        assert_eq!(std::mem::size_of::<ReportNode>(), 16);
        let mut link = Link::new(7, true);
        link.set_next(NIL);
        assert!(link.taken() && link.next() == NIL);
        assert!(!Link::new(NIL, false).taken());
    }
}
