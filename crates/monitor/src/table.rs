//! The monitor's back-end: the table correlating branch reports across
//! threads, laid out flat.
//!
//! The paper's two keys are kept: level 1 is `(static branch id, call-site
//! path)` — the "function's call site ID and static branch identifier" —
//! and level 2 adds the enclosing-loop iteration hash. What is not kept is
//! a map per level-1 key. Level 2 is the [`BranchTable`] here, keyed by the
//! full `(branch, site, iter)` key, and it is the only table an event
//! touches. Level 1 is the site table of `provenance.rs`, which holds
//! nothing but the evidence a violation report needs and is reached only
//! when an instance leaves this table. Both are a [`KeyIndex`] — an
//! open-addressing array of `hash tag | row` words — over a dense `Vec` of
//! rows, and every report is a node in one shared arena ([`Nodes`]): a
//! pending instance's reports are a chain in arrival order, and when the
//! instance leaves, the chain is handed on whole to its site's history.
//! Each node carries an arrival stamp, so the site table can put a site's
//! reports back in the order they came. Nothing is allocated per key: the
//! arenas and indexes grow by doubling, rows and nodes go onto free lists,
//! and an event costs one probe.
//!
//! An instance accumulates one report per thread; when `nthreads` threads
//! have reported it is handed out for its eager check and removed. Entries
//! with fewer reporters are checked at the flush (end of the parallel
//! phase, [`BranchTable::pending_row`]), since the monitor cannot know
//! statically how many threads execute a branch that is itself under
//! divergent control. A check needs two reporters, so the flush checks
//! only the rows of a bitset the table keeps of the instances holding two
//! or more ([`BranchTable::flush_word`]); after
//! [`BranchTable::scope_flush`], only those a report has joined since.
//! The flush leaves the rows in place until the next report arrives
//! ([`BranchTable::file_drained`]): a monitor that is never fed again never
//! files them.
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
/// node at 24 bytes.
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

/// Hashes a runtime key. `site` and `iter` are hashes already
/// ([`crate::KeyHasher`]) and the only party choosing keys is the program
/// being monitored, so two folded multiplies to spread them over the index
/// are enough; a keyed hash (SipHash) would defend against nothing here.
#[inline]
pub(crate) fn mix_key(branch: u32, site: u64, iter: u64) -> u64 {
    fn fold(a: u64, b: u64) -> u64 {
        let product = u128::from(a) * u128::from(b);
        (product as u64) ^ ((product >> 64) as u64)
    }
    let keys = fold(site ^ 0x9e37_79b9_7f4a_7c15, iter ^ 0xc2b2_ae3d_27d4_eb4f);
    fold(keys ^ u64::from(branch), 0x1656_67b1_9e37_79f9)
}

/// Starts loading the cache line holding `value` into every cache level.
#[cfg(target_arch = "x86_64")]
#[inline]
fn prefetch_read<T>(value: &T) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch never faults and writes nothing, whatever address
    // it is given (here a live reference), and SSE, which provides it, is
    // part of the x86_64 baseline.
    unsafe { _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast::<i8>()) }
}

/// Other targets get no prefetch: the probe takes its miss as it comes.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn prefetch_read<T>(_value: &T) {}

/// Open-addressing index from a key's hash to the row that holds the key
/// in some dense arena. A slot is zero when empty, else the upper half of
/// the hash above `row + 1`; the stored half also gives the slot's home
/// position, so growing and deleting never look at a key. Linear probing,
/// at most three quarters full, deletion by backward shift (no tombstones).
#[derive(Clone, Debug, Default)]
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

    /// Asks the cache for the home slot of `hash`, where a
    /// [`KeyIndex::probe`] for it starts. Only a hint: a slot a growth or a
    /// removal has moved since costs a wasted load, never a wrong answer.
    #[inline]
    pub(crate) fn prefetch(&self, hash: u64) {
        let mask = self.slots.len().wrapping_sub(1);
        // An empty index has no slot: `get` yields `None` for it.
        if let Some(slot) = self.slots.get((hash >> 32) as usize & mask) {
            prefetch_read(slot);
        }
    }

    /// The row of the key with `hash`, if it is in the index (a read that,
    /// unlike [`KeyIndex::probe`], needs no slots).
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
/// order. The chain's length and last node are found by walking it, which
/// a report joining the instance does anyway to drop a repeat. A row on the
/// free list has `head == NIL` and its successor in `iter`.
#[derive(Clone, Debug)]
struct Row {
    site: u64,
    iter: u64,
    branch: u32,
    head: u32,
}

/// One report in the arena. `stamp` numbers the instrumented events the
/// monitor has received, in arrival order; `link` chains the node to the
/// next report of its chain (or, on the free list, to the next free node).
#[derive(Clone, Debug)]
pub(crate) struct ReportNode {
    pub(crate) witness: u64,
    pub(crate) stamp: u64,
    pub(crate) thread: u32,
    pub(crate) link: Link,
}

impl ReportNode {
    pub(crate) fn report(&self) -> Report {
        Report { thread: self.thread, witness: self.witness, taken: self.link.taken() }
    }
}

/// The report nodes of every chain — pending instances' and site
/// histories' alike — in one arena with a free list.
#[derive(Clone, Debug)]
pub(crate) struct Nodes {
    arena: Vec<ReportNode>,
    free: u32,
}

impl Default for Nodes {
    fn default() -> Self {
        Nodes { arena: Vec::new(), free: NIL }
    }
}

impl Nodes {
    /// Takes a node off the free list, or grows the arena.
    fn alloc(&mut self, node: ReportNode) -> u32 {
        if self.free == NIL {
            return push_node(&mut self.arena, node);
        }
        let index = self.free;
        self.free = std::mem::replace(&mut self.arena[index as usize], node).link.next();
        index
    }

    /// Puts one node onto the free list.
    pub(crate) fn free(&mut self, node: u32) {
        self.arena[node as usize].link.set_next(self.free);
        self.free = node;
    }

    /// Puts every node of `chain` onto the free list.
    #[cfg(test)]
    fn free_chain(&mut self, chain: Chain) {
        let mut node = chain.head;
        while node != NIL {
            let next = self.arena[node as usize].link.next();
            self.free(node);
            node = next;
        }
    }

    pub(crate) fn get(&self, node: u32) -> &ReportNode {
        &self.arena[node as usize]
    }

    /// The nodes of the chain that starts at `head`, in order.
    pub(crate) fn chain(&self, head: u32) -> impl Iterator<Item = &ReportNode> + '_ {
        let mut node = head;
        std::iter::from_fn(move || {
            // `NIL` is past the end of any arena.
            let current = self.arena.get(node as usize)?;
            node = current.link.next();
            Some(current)
        })
    }
}

/// A chain of reports out of the instance table, oldest first, its last
/// node linking to `NIL`: a completed or flushed instance's reports, or a
/// single dropped re-report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Chain {
    /// The instance's level-2 key.
    pub(crate) iter: u64,
    pub(crate) head: u32,
    pub(crate) len: u32,
}

/// What [`BranchTable::record`] did with a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Recorded {
    /// The report opened or joined a pending instance.
    Pending,
    /// The thread had already reported the pending instance: the report is
    /// not part of it and comes back as a one-node chain.
    Dropped(Chain),
    /// The report was the `nthreads`-th: the instance left the table, its
    /// reports are in `full` and its chain comes back.
    Completed(Chain),
}

/// The level-2 table: every pending instance by its full runtime key.
#[derive(Clone, Debug)]
pub(crate) struct BranchTable {
    index: KeyIndex,
    rows: Vec<Row>,
    free_row: u32,
    /// The rows a flush checks, a bit each: those whose pending instance
    /// a report has joined (so it holds two or more) since the set was
    /// last cleared — by a flush, or by [`BranchTable::scope_flush`]. One
    /// word per 64 rows of `rows`' capacity, so it grows when `rows`
    /// reallocates and not in between.
    multi: Vec<u64>,
    /// The rows holding an instance, a bit each, laid out like `multi`:
    /// pending ones, and after a flush the drained ones until they are
    /// filed. What a walk over the instances visits, in ascending row
    /// order, instead of every row the arena has ever had.
    occupied: Vec<u64>,
    /// Every report node, the chains the site histories hold included.
    pub(crate) nodes: Nodes,
    /// The stamp of the next report.
    stamp: u64,
    /// Whether `rows` holds the instances the last flush checked, not yet
    /// filed.
    drained: bool,
}

impl Default for BranchTable {
    fn default() -> Self {
        BranchTable {
            index: KeyIndex::default(),
            rows: Vec::new(),
            free_row: NIL,
            multi: Vec::new(),
            occupied: Vec::new(),
            nodes: Nodes::default(),
            stamp: 0,
            drained: false,
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
        debug_assert!(!self.drained, "file the drained instances first");
        self.index.reserve();
        let node = ReportNode {
            witness: report.witness,
            stamp: self.stamp,
            thread: report.thread,
            link: Link::new(NIL, report.taken),
        };
        self.stamp += 1;
        let hash = mix_key(branch, site, iter);
        let rows = &self.rows;
        let found = self.index.probe(hash, |row| {
            let row = &rows[row as usize];
            row.site == site && row.iter == iter && row.branch == branch
        });
        let (pos, row, len) = match found {
            Ok(pos) => {
                let row = self.index.row(pos);
                let (mut last, mut len) = (self.rows[row as usize].head, 1);
                loop {
                    let current = self.nodes.get(last);
                    if current.thread == report.thread {
                        let head = self.nodes.alloc(node);
                        return Recorded::Dropped(Chain { iter, head, len: 1 });
                    }
                    let next = current.link.next();
                    if next == NIL {
                        break;
                    }
                    (last, len) = (next, len + 1);
                }
                let node = self.nodes.alloc(node);
                self.nodes.arena[last as usize].link.set_next(node);
                self.multi[row as usize / 64] |= 1 << (row % 64);
                (pos, row, len + 1)
            }
            Err(pos) => {
                let entry = Row { site, iter, branch, head: self.nodes.alloc(node) };
                let row = if self.free_row == NIL {
                    let row = push_node(&mut self.rows, entry);
                    if self.rows.len() > self.multi.len() * 64 {
                        self.grow_multi();
                    }
                    row
                } else {
                    let row = self.free_row;
                    let free = std::mem::replace(&mut self.rows[row as usize], entry);
                    self.free_row = free.iter as u32;
                    row
                };
                self.occupied[row as usize / 64] |= 1 << (row % 64);
                self.index.insert(pos, hash, row);
                (pos, row, 1)
            }
        };
        if (len as usize) < nthreads {
            return Recorded::Pending;
        }
        self.index.remove(pos);
        self.multi[row as usize / 64] &= !(1 << (row % 64));
        self.occupied[row as usize / 64] &= !(1 << (row % 64));
        let entry = &mut self.rows[row as usize];
        let head = std::mem::replace(&mut entry.head, NIL);
        entry.iter = u64::from(self.free_row);
        self.free_row = row;
        self.copy_reports(head, full);
        Recorded::Completed(Chain { iter, head, len })
    }

    /// Covers the capacity `rows` has just grown to: one reallocation of
    /// each bitset each time `rows` doubles.
    #[cold]
    fn grow_multi(&mut self) {
        self.multi.resize(self.rows.capacity().div_ceil(64), 0);
        self.occupied.resize(self.multi.len(), 0);
    }

    /// The rows holding an instance, in ascending order.
    fn occupied_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.occupied.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(word * 64 + bit)
            })
        })
    }

    /// Scopes the flush to the instances a report joins from now on, by
    /// clearing the set of rows it checks: a report joining an instance
    /// sets its bit again. The caller vouches that every instance pending
    /// now passes its check as it stands.
    pub(crate) fn scope_flush(&mut self) {
        self.multi.fill(0);
    }

    /// Prefetches the index slot where [`BranchTable::record`] will start
    /// looking for the key `(branch, site, iter)`.
    #[inline]
    pub(crate) fn prefetch(&self, branch: u32, site: u64, iter: u64) {
        self.index.prefetch(mix_key(branch, site, iter));
    }

    fn copy_reports(&self, head: u32, out: &mut Vec<Report>) {
        out.clear();
        out.extend(self.nodes.chain(head).map(ReportNode::report));
    }

    /// Number of words [`BranchTable::flush_word`] takes.
    pub(crate) fn flush_words(&self) -> usize {
        self.multi.len()
    }

    /// The rows `64 * word + i` a flush checks, as the set bits `i`: those
    /// whose pending instance holds two or more reports — a check passes
    /// fewer without looking — and, once the flush is scoped, that a report
    /// has joined since.
    #[inline]
    pub(crate) fn flush_word(&self, word: usize) -> u64 {
        self.multi[word]
    }

    /// The key of the instance pending in `row`, its reports copied into
    /// `out` in arrival order; `None` for a free row. A flush visits the
    /// rows of [`BranchTable::flush_word`] this way, then calls
    /// [`BranchTable::close_flush`].
    pub(crate) fn pending_row(&self, row: usize, out: &mut Vec<Report>) -> Option<(u32, u64, u64)> {
        let Row { site, iter, branch, head } = self.rows[row];
        if head == NIL {
            return None;
        }
        self.copy_reports(head, out);
        Some((branch, site, iter))
    }

    /// Ends a flush: every pending instance has been checked and leaves the
    /// index. The rows stay as they are — the evidence of a violation found
    /// at the flush reads them — until [`BranchTable::file_drained`].
    pub(crate) fn close_flush(&mut self) {
        if self.index.len() > 0 {
            self.index.clear();
            self.multi.fill(0);
            self.drained = true;
        }
    }

    /// Whether rows hold instances a flush drained and nobody filed yet.
    pub(crate) fn has_drained(&self) -> bool {
        self.drained
    }

    /// Hands the chain of every instance the last flush drained to `file`
    /// as `(nodes, branch, site, chain)`, in ascending row order, then
    /// forgets the rows.
    pub(crate) fn file_drained(&mut self, mut file: impl FnMut(&mut Nodes, u32, u64, Chain)) {
        for word in 0..self.occupied.len() {
            let mut bits = std::mem::take(&mut self.occupied[word]);
            while bits != 0 {
                let Row { site, iter, branch, head } = self.rows[word * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                let len = self.nodes.chain(head).count() as u32;
                file(&mut self.nodes, branch, site, Chain { iter, head, len });
            }
        }
        self.rows.clear();
        self.free_row = NIL;
        self.drained = false;
    }

    /// The `(iter, head)` of each instance pending at `(branch, site)`, in
    /// ascending row order: a scan of the occupied rows, made only for a
    /// violation's evidence. During a flush it reads the instances the
    /// flush is draining.
    pub(crate) fn pending_at(
        &self,
        branch: u32,
        site: u64,
    ) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.occupied_rows()
            .map(|row| &self.rows[row])
            .filter(move |row| row.site == site && row.branch == branch)
            .map(|row| (row.iter, row.head))
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

    /// Every instance a flush drains, sorted by key; the table is closed
    /// after.
    fn drained(t: &mut BranchTable) -> Vec<(u32, u64, u64, Vec<Report>)> {
        let mut out = Vec::new();
        let mut reports = Vec::new();
        for row in 0..t.rows.len() {
            if let Some((b, s, i)) = t.pending_row(row, &mut reports) {
                out.push((b, s, i, reports.clone()));
            }
        }
        t.close_flush();
        out.sort_by_key(|(b, s, i, _)| (*b, *s, *i));
        out
    }

    /// The rows a flush checks, in the order it checks them.
    fn flushed_rows(t: &BranchTable) -> Vec<usize> {
        let mut rows = Vec::new();
        for word in 0..t.flush_words() {
            let mut bits = t.flush_word(word);
            while bits != 0 {
                rows.push(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        rows
    }

    /// The reports and stamps of a chain, in order.
    fn chain(t: &BranchTable, chain: Chain) -> Vec<(Report, u64)> {
        let nodes: Vec<_> = t.nodes.chain(chain.head).map(|n| (n.report(), n.stamp)).collect();
        assert_eq!(nodes.len(), chain.len as usize);
        nodes
    }

    #[test]
    fn completes_at_nthreads() {
        let mut t = BranchTable::default();
        let mut full = Vec::new();
        assert_eq!(t.record(1, 0, 0, r(0, true), 3, &mut full), Recorded::Pending);
        assert_eq!(t.record(1, 0, 0, r(1, false), 3, &mut full), Recorded::Pending);
        let Recorded::Completed(last) = t.record(1, 0, 0, r(2, true), 3, &mut full) else {
            panic!("the third of three reports completes the instance");
        };
        assert_eq!(full, vec![r(0, true), r(1, false), r(2, true)], "arrival order");
        assert_eq!(chain(&t, last), vec![(r(0, true), 0), (r(1, false), 1), (r(2, true), 2)]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn a_single_thread_completes_what_it_opens() {
        let mut t = BranchTable::default();
        let mut full = Vec::new();
        let only = t.record(1, 0, 7, r(0, true), 1, &mut full);
        assert!(matches!(only, Recorded::Completed(Chain { iter: 7, len: 1, .. })), "{only:?}");
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
        assert_eq!(t.pending_at(1, 0).count(), 2);
        assert_eq!(t.pending_at(1, 7).count(), 1);
        assert_eq!(t.pending_at(3, 0).count(), 0);
    }

    #[test]
    fn first_report_wins_while_pending_and_a_completed_key_reopens() {
        let mut t = BranchTable::default();
        let mut full = Vec::new();
        assert_eq!(t.record(1, 0, 0, r(0, true), 2, &mut full), Recorded::Pending);
        // Thread 0 comes round to the same key (a sender truncating `iter`).
        let Recorded::Dropped(dropped) = t.record(1, 0, 0, r(0, false), 2, &mut full) else {
            panic!("a second report from thread 0 is dropped");
        };
        assert_eq!(chain(&t, dropped), vec![(r(0, false), 1)], "handed back, stamped");
        assert_eq!(t.len(), 1);
        assert!(matches!(t.record(1, 0, 0, r(1, true), 2, &mut full), Recorded::Completed(_)));
        assert_eq!(full, vec![r(0, true), r(1, true)], "the dropped report is not the instance's");
        // After completion the key is free again: the next report opens a
        // new instance rather than joining the old one.
        assert_eq!(t.record(1, 0, 0, r(0, false), 2, &mut full), Recorded::Pending);
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
        // The drained chains wait in their rows until they are filed.
        assert!(t.has_drained());
        assert_eq!(t.pending_at(1, 0).count(), 2, "a flush's evidence reads them");
        let mut filed = Vec::new();
        t.file_drained(|_, branch, site, c| filed.push((branch, site, c.iter, c.len)));
        filed.sort_unstable();
        assert_eq!(filed, vec![(1, 0, 1, 1), (1, 0, 3, 2), (2, 0, 5, 1)]);
        assert!(!t.has_drained());
        assert!(drained(&mut t).is_empty());
        // Usable afterwards, from a clean slate.
        assert_eq!(rec(&mut t, (1, 0, 3), r(0, true), 4), Recorded::Pending);
        assert_eq!(t.len(), 1);
    }

    /// Row `k` holds the instance at `iter` `k`: `reports[k]` threads report
    /// it, in a table expecting four.
    fn table_of(reports: &[u32]) -> BranchTable {
        let mut t = BranchTable::default();
        for (iter, &n) in reports.iter().enumerate() {
            for thread in 0..n {
                rec(&mut t, (1, 0, iter as u64), r(thread, true), 4);
            }
        }
        t
    }

    #[test]
    fn the_flush_checks_the_instances_with_two_reports_in_row_order() {
        // Rows 0..200: one, two, three, one, ... reporters; none complete.
        let counts: Vec<u32> = (0..200).map(|k| k % 3 + 1).collect();
        let mut t = table_of(&counts);
        let multi: Vec<usize> = (0..200).filter(|k| counts[*k] >= 2).collect();
        assert_eq!(flushed_rows(&t), multi);
        // A completed instance leaves the set, and its row, reused, holds
        // one report.
        for thread in 1..4 {
            rec(&mut t, (1, 0, 5), r(thread, true), 4);
        }
        rec(&mut t, (1, 0, 1000), r(0, true), 4);
        assert_eq!(t.pending_row(5, &mut Vec::new()), Some((1, 0, 1000)));
        assert!(!flushed_rows(&t).contains(&5));
        // The flush empties the set.
        drained(&mut t);
        assert!(flushed_rows(&t).is_empty());
    }

    #[test]
    fn a_scoped_flush_checks_what_a_report_joined_since() {
        let mut t = table_of(&[2, 2, 1, 3, 1]);
        t.scope_flush();
        assert!(flushed_rows(&t).is_empty(), "nothing reported since");
        // Row 0 gains a report, row 2 its second, row 1 none, row 3 its
        // fourth (it completes), row 4 a repeat of thread 0's (dropped); a
        // new instance opens with two in row 3, which the completed one
        // freed, and another with one in row 5.
        for (iter, thread) in [(0, 2), (2, 1), (3, 3), (4, 0), (5, 0), (5, 1), (6, 0)] {
            rec(&mut t, (1, 0, iter), r(thread, true), 4);
        }
        assert_eq!(t.pending_row(3, &mut Vec::new()), Some((1, 0, 5)));
        assert_eq!(flushed_rows(&t), vec![0, 2, 3]);
    }

    /// The walks over the instances — a violation's evidence and the filing
    /// of what a flush drained — visit the occupied rows only, in ascending
    /// row order, whatever order the rows were filled and freed in.
    #[test]
    fn walks_visit_the_occupied_rows_in_row_order() {
        // 130 instances at one site, rows 0..130; then every instance whose
        // row is not a multiple of 3 completes, and two new ones reuse the
        // freed rows 128 and 127 (the free list is last in, first out).
        let mut t = table_of(&[1; 130]);
        for iter in (0..130u64).filter(|k| k % 3 != 0) {
            for thread in 1..4 {
                rec(&mut t, (1, 0, iter), r(thread, true), 4);
            }
        }
        rec(&mut t, (1, 0, 500), r(0, true), 4);
        rec(&mut t, (1, 0, 501), r(0, true), 4);
        rec(&mut t, (2, 0, 0), r(0, true), 4); // another branch: not at (1, 0)
        let mut expect: Vec<u64> = (0..130).filter(|k| k % 3 == 0).collect();
        expect.insert(expect.iter().position(|&k| k > 127).unwrap(), 501); // row 127
        expect.insert(expect.iter().position(|&k| k == 129).unwrap(), 500); // row 128
        let at: Vec<u64> = t.pending_at(1, 0).map(|(iter, _)| iter).collect();
        assert_eq!(at, expect);
        assert_eq!(t.occupied_rows().count(), expect.len() + 1);
        // The flush drains them; filing them walks the same rows in order.
        drained(&mut t);
        let mut filed = Vec::new();
        t.file_drained(|_, branch, _, chain| filed.push((branch, chain.iter)));
        let row_of_other = t.rows.len(); // the rows are forgotten
        assert_eq!(row_of_other, 0);
        let mine: Vec<u64> = filed.iter().filter(|f| f.0 == 1).map(|f| f.1).collect();
        assert_eq!(mine, expect);
        assert_eq!(filed.len(), expect.len() + 1);
        assert_eq!(t.occupied_rows().count(), 0);
    }

    /// The bitset reallocates when the rows do, not every 64 rows.
    #[test]
    fn the_bitset_grows_with_the_rows_capacity() {
        let mut t = BranchTable::default();
        let mut growths = 0;
        for iter in 0..10_000u64 {
            let before = t.multi.capacity();
            rec(&mut t, (1, 0, iter), r(0, true), 4);
            growths += usize::from(t.multi.capacity() != before);
            assert!(t.multi.len() * 64 >= t.rows.capacity());
        }
        assert!(growths <= 10, "{growths} reallocations for 10,000 rows");
    }

    #[test]
    fn completed_instances_recycle_their_rows_and_nodes() {
        let mut t = BranchTable::default();
        for iter in 0..1000u64 {
            for thread in 0..4 {
                if let Recorded::Completed(chain) = rec(&mut t, (0, 0, iter), r(thread, true), 4) {
                    t.nodes.free_chain(chain); // as a full site history does
                }
            }
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.rows.len(), 1, "one instance in flight at a time");
        assert_eq!(t.nodes.arena.len(), 4);
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

    /// A row per instance and a report node per event, its arrival stamp
    /// included, are what `tests/alloc_budget.rs` holds FMM to.
    #[test]
    fn nodes_are_the_size_the_memory_budget_assumes() {
        assert_eq!(std::mem::size_of::<Row>(), 24);
        assert_eq!(std::mem::size_of::<ReportNode>(), 24);
        let mut link = Link::new(7, true);
        link.set_next(NIL);
        assert!(link.taken() && link.next() == NIL);
        assert!(!Link::new(NIL, false).taken());
    }
}
