//! Seeded random generation of well-formed SPMD modules.
//!
//! The generator is a structured, Csmith-style program synthesizer over the
//! `bw-ir` vocabulary: thread-ID intrinsics, shared/global loads, phi nodes,
//! nested counted loops, critical sections, barriers, helper calls and
//! indirect calls. Every program it emits is:
//!
//! - **well-formed**: it passes [`bw_ir::verify_module`] (asserted before
//!   returning);
//! - **terminating**: all loops are counted with small constant bounds and
//!   barriers are emitted only at thread-uniform program points;
//! - **schedule-deterministic**: the program-visible results (outputs,
//!   per-thread step counts) are independent of thread interleaving. Shared
//!   state written during the parallel section is either per-thread-disjoint
//!   (array slots indexed by the thread ID) or reduced under *one* mutex —
//!   the same for every critical section, or two sections could interleave
//!   their read-modify-writes of the accumulator — with commutative
//!   operators whose intermediate values never escape into the
//!   value pool. This is the property that makes the differential
//!   (instrumented vs. uninstrumented) oracle sound: the monitor perturbs
//!   only timing, never results.
//!
//! Reproducibility: generation is a pure function of `(seed, GenConfig)`,
//! driven by a [`SplitMix64`] stream.

use bw_ir::{
    verify_module, BarrierId, BinOp, CmpOp, FuncId, FunctionBuilder, GlobalId, Module, MutexId,
    Type, Val, ValueId,
};
use bw_vm::SplitMix64;

/// Tuning knobs for the generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Approximate statement budget for the SPMD body.
    pub max_stmts: u32,
    /// The largest thread count the program must be safe at. Written shared
    /// arrays are sized to at least this, so per-thread slots stay disjoint.
    pub max_threads: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { max_stmts: 40, max_threads: 8 }
    }
}

/// Maximum nesting depth of ifs and loops.
const MAX_DEPTH: u32 = 3;

struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // Offset the stream so module seed 0 still produces variety.
        Rng(SplitMix64::new(seed ^ 0x6765_6e5f_6277_6972))
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.0.next_u64() % n
        }
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Binary operators safe on arbitrary i64 operands (no division).
const ARITH: [BinOp; 10] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
];

/// Commutative, associative reductions: order-independent under a mutex.
const REDUCE: [BinOp; 4] = [BinOp::Add, BinOp::Xor, BinOp::Min, BinOp::Max];

const CMPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// Generates a verified, deterministic SPMD module from `seed`.
///
/// # Panics
///
/// Panics if the generated module fails verification — that is a generator
/// bug, and the panic message carries the seed needed to reproduce it.
pub fn generate_module(seed: u64, cfg: &GenConfig) -> Module {
    let mut rng = Rng::new(seed);
    let mut m = Module::new(format!("fuzz_{seed:08x}"));

    // Read-only shared scalars: loads seed the `shared` category.
    let nscalars = 2 + rng.below(3);
    let ro_scalars: Vec<GlobalId> = (0..nscalars)
        .map(|i| {
            m.add_global(format!("gsh{i}"), Type::I64, Val::I64(rng.range(1, 9)), true)
        })
        .collect();
    // Read-only shared array, loaded at uniform or tid-masked indices.
    let tab_len = 4 + rng.below(5);
    let tab = m.add_array("gtab", Type::I64, tab_len, Val::I64(rng.range(0, 8)), true);
    // Written shared array: per-thread-disjoint slots (indexed by tid), so it
    // must not feed the `shared` category.
    let buf_len = u64::from(cfg.max_threads) + rng.below(8);
    let buf = m.add_array("gbuf", Type::I64, buf_len, Val::I64(rng.range(0, 4)), false);
    // Mutex-guarded commutative accumulator.
    let acc = m.add_global("gacc", Type::I64, Val::I64(0), false);
    // Thread-ID-style counter, bumped and discarded.
    let cnt = m.add_global("gcnt", Type::I64, Val::I64(0), false);
    m.mark_tid_counter(cnt);

    let mutexes: Vec<MutexId> = (0..1 + rng.below(2)).map(|_| m.add_mutex()).collect();
    // One reduction operator for the whole module: individual REDUCE ops are
    // commutative and associative, but two *different* ones do not commute
    // with each other (`(a + x) max y != (a max y) + x`), so mixing them
    // across critical sections would make the accumulator depend on lock
    // acquisition order — which the monitor's event costs legitimately
    // perturb. (Found by this crate's own oracle.)
    let reduce = rng.pick(&REDUCE);
    let barrier = m.add_barrier();

    let helpers: Vec<FuncId> =
        (0..rng.below(3)).map(|i| gen_helper(&mut m, &mut rng, i)).collect();
    let table = if helpers.len() >= 2 && rng.chance(50) {
        Some(m.add_table("htab", vec![helpers[0], helpers[1]]))
    } else {
        None
    };

    let init = if rng.chance(70) { Some(gen_init(&mut m, &mut rng, &ro_scalars, tab, tab_len)) } else { None };

    let spmd = {
        let b = FunctionBuilder::new("spmd", vec![], None);
        let g = BodyGen {
            m: &mut m,
            rng: &mut rng,
            b,
            budget: cfg.max_stmts as i64,
            tid: ValueId(0), // placeholder, set below
            shared_vals: Vec::new(),
            helpers: helpers.clone(),
            table,
            ro_scalars: ro_scalars.clone(),
            tab,
            buf,
            acc,
            cnt,
            mutexes: mutexes.clone(),
            reduce,
            barrier,
            barriers_left: 2,
        };
        g.build_spmd()
    };
    let spmd = m.add_func(spmd);

    let fini = gen_fini(&mut m, &mut rng, &ro_scalars, tab, buf, buf_len, acc, cnt);

    m.init = init;
    m.spmd_entry = Some(spmd);
    m.fini = Some(fini);

    verify_module(&m).unwrap_or_else(|e| {
        panic!("generator bug: seed {seed:#x} produced an invalid module: {e}")
    });
    m
}

fn gen_helper(m: &mut Module, rng: &mut Rng, idx: u64) -> FuncId {
    let mut b =
        FunctionBuilder::new(format!("helper{idx}"), vec![Type::I64, Type::I64], Some(Type::I64));
    let mut pool = vec![b.param(0), b.param(1), b.const_i64(rng.range(1, 8))];
    for _ in 0..1 + rng.below(3) {
        let op = rng.pick(&ARITH);
        let (l, r) = (rng.pick(&pool), rng.pick(&pool));
        let v = b.bin(op, l, r);
        pool.push(v);
    }
    if rng.chance(50) {
        let (l, r) = (rng.pick(&pool), rng.pick(&pool));
        let c = b.cmp(rng.pick(&CMPS), l, r);
        let then_bb = b.add_block("h_then");
        let else_bb = b.add_block("h_else");
        let merge = b.add_block("h_merge");
        b.br(c, then_bb, else_bb);
        b.switch_to(then_bb);
        let (l, r) = (rng.pick(&pool), rng.pick(&pool));
        let tv = b.bin(rng.pick(&ARITH), l, r);
        b.jump(merge);
        b.switch_to(else_bb);
        let (l, r) = (rng.pick(&pool), rng.pick(&pool));
        let ev = b.bin(rng.pick(&ARITH), l, r);
        b.jump(merge);
        b.switch_to(merge);
        let p = b.phi(Type::I64, vec![(then_bb, tv), (else_bb, ev)]);
        pool.push(p);
    }
    let out = rng.pick(&pool);
    b.ret(Some(out));
    m.add_func(b.finish())
}

fn gen_init(
    m: &mut Module,
    rng: &mut Rng,
    ro_scalars: &[GlobalId],
    tab: GlobalId,
    tab_len: u64,
) -> FuncId {
    let mut b = FunctionBuilder::new("init", vec![], None);
    // Writing shared=true globals is safe here: init runs single-threaded
    // before the parallel section, so parallel loads still observe one value.
    for &g in ro_scalars {
        if rng.chance(50) {
            let v = b.const_i64(rng.range(1, 9));
            b.store_global(g, v);
        }
    }
    for _ in 0..rng.below(3) {
        let idx = b.const_i64(rng.range(0, tab_len as i64));
        let v = b.const_i64(rng.range(0, 16));
        b.store_index(tab, idx, v);
    }
    b.ret(None);
    m.add_func(b.finish())
}

#[allow(clippy::too_many_arguments)]
fn gen_fini(
    m: &mut Module,
    rng: &mut Rng,
    ro_scalars: &[GlobalId],
    tab: GlobalId,
    buf: GlobalId,
    buf_len: u64,
    acc: GlobalId,
    cnt: GlobalId,
) -> FuncId {
    let mut b = FunctionBuilder::new("fini", vec![], None);
    // After the join every write has landed; reading all slots is
    // deterministic and makes parallel-section stores program-visible.
    for &g in ro_scalars {
        let v = b.load_global(m, g);
        b.output(v);
    }
    for which in [acc, cnt] {
        let v = b.load_global(m, which);
        b.output(v);
    }
    let nslots = buf_len.min(4 + rng.below(3));
    for i in 0..nslots {
        let idx = b.const_i64(i as i64);
        let v = b.load_index(m, buf, idx);
        b.output(v);
    }
    let idx = b.const_i64(0);
    let v = b.load_index(m, tab, idx);
    b.output(v);
    b.ret(None);
    m.add_func(b.finish())
}

struct BodyGen<'a> {
    m: &'a mut Module,
    rng: &'a mut Rng,
    b: FunctionBuilder,
    budget: i64,
    tid: ValueId,
    /// Runtime-uniform values defined in the entry block: constants,
    /// `numthreads`, and loads of read-only shared scalars. Safe to use from
    /// any later block (the entry dominates everything).
    shared_vals: Vec<ValueId>,
    helpers: Vec<FuncId>,
    table: Option<bw_ir::TableId>,
    ro_scalars: Vec<GlobalId>,
    tab: GlobalId,
    buf: GlobalId,
    acc: GlobalId,
    cnt: GlobalId,
    mutexes: Vec<MutexId>,
    /// The module-wide accumulator reduction operator (see
    /// [`generate_module`] for why there is exactly one).
    reduce: BinOp,
    barrier: BarrierId,
    barriers_left: u32,
}

impl BodyGen<'_> {
    fn build_spmd(mut self) -> bw_ir::Function {
        self.tid = self.b.thread_id();
        let nth = self.b.num_threads();
        let mut pool = vec![self.tid, nth];
        self.shared_vals.push(nth);
        for _ in 0..3 {
            let lo = self.rng.range(1, 9);
            let c = self.b.const_i64(lo);
            pool.push(c);
            self.shared_vals.push(c);
        }
        for g in self.ro_scalars.clone() {
            let v = self.b.load_global(self.m, g);
            pool.push(v);
            self.shared_vals.push(v);
        }
        self.seq(&mut pool, 0, true);
        // At least one program-visible per-thread result.
        let out = self.rng.pick(&pool);
        self.b.output(out);
        self.b.ret(None);
        self.b.finish()
    }

    fn seq(&mut self, pool: &mut Vec<ValueId>, depth: u32, top: bool) {
        let n = 2 + self.rng.below(4) + if top { 4 } else { 0 };
        for _ in 0..n {
            if self.budget <= 0 {
                break;
            }
            self.budget -= 1;
            self.stmt(pool, depth, top);
        }
    }

    fn stmt(&mut self, pool: &mut Vec<ValueId>, depth: u32, top: bool) {
        let roll = self.rng.below(100);
        match roll {
            0..=19 => self.arith(pool),
            20..=33 if depth < MAX_DEPTH => self.if_stmt(pool, depth),
            34..=43 if depth < MAX_DEPTH => self.loop_stmt(pool, depth),
            44..=53 => self.array_op(pool),
            54..=60 => self.critical_section(pool),
            61..=66 => self.rand_stmt(pool),
            67..=72 if !self.helpers.is_empty() => self.call_stmt(pool),
            73..=76 => self.fetchadd_stmt(),
            77..=81 => {
                let v = self.rng.pick(pool);
                self.b.output(v);
            }
            82..=86 if top && self.barriers_left > 0 => {
                // Thread-uniform point only: every thread executes the
                // top-level straight line, so nobody is left waiting.
                self.barriers_left -= 1;
                self.b.barrier(self.barrier);
            }
            _ => self.arith(pool),
        }
    }

    fn arith(&mut self, pool: &mut Vec<ValueId>) {
        let op = self.rng.pick(&ARITH);
        let (l, r) = (self.rng.pick(pool), self.rng.pick(pool));
        let v = self.b.bin(op, l, r);
        pool.push(v);
    }

    fn cond_operands(&mut self, pool: &[ValueId]) -> (ValueId, ValueId) {
        let roll = self.rng.below(100);
        if roll < 40 {
            // Direct `tid ⋈ shared` comparison: the threadID-category shape
            // that derives a TidCheck predicate.
            (self.tid, self.rng.pick(&self.shared_vals))
        } else if roll < 70 {
            // Uniform-only operands: the `shared` category.
            (self.rng.pick(&self.shared_vals), self.rng.pick(&self.shared_vals))
        } else {
            (self.rng.pick(pool), self.rng.pick(pool))
        }
    }

    fn if_stmt(&mut self, pool: &mut Vec<ValueId>, depth: u32) {
        let (l, r) = self.cond_operands(pool);
        let c = self.b.cmp(self.rng.pick(&CMPS), l, r);
        let then_bb = self.b.add_block("then");
        let else_bb = self.b.add_block("else");
        let merge = self.b.add_block("merge");
        self.b.br(c, then_bb, else_bb);

        self.b.switch_to(then_bb);
        let mut tp = pool.clone();
        self.seq(&mut tp, depth + 1, false);
        let tv = self.rng.pick(&tp);
        let t_end = self.b.current_block();
        self.b.jump(merge);

        self.b.switch_to(else_bb);
        let mut ep = pool.clone();
        self.seq(&mut ep, depth + 1, false);
        let ev = self.rng.pick(&ep);
        let e_end = self.b.current_block();
        self.b.jump(merge);

        self.b.switch_to(merge);
        if self.rng.chance(60) {
            let p = self.b.phi(Type::I64, vec![(t_end, tv), (e_end, ev)]);
            pool.push(p);
        }
    }

    fn loop_stmt(&mut self, pool: &mut Vec<ValueId>, depth: u32) {
        let k = self.rng.range(1, 5);
        let zero = self.b.const_i64(0);
        let one = self.b.const_i64(1);
        let bound = self.b.const_i64(k);
        let header = self.b.add_block("loop_header");
        let body = self.b.add_block("loop_body");
        let exit = self.b.add_block("loop_exit");
        let pre = self.b.current_block();
        self.b.jump(header);

        self.b.switch_to(header);
        let i = self.b.phi(Type::I64, vec![(pre, zero)]);
        let c = self.b.cmp(CmpOp::Lt, i, bound);
        self.b.br(c, body, exit);

        self.b.switch_to(body);
        let mut bp = pool.clone();
        bp.push(i);
        self.seq(&mut bp, depth + 1, false);
        let next = self.b.add(i, one);
        let latch = self.b.current_block();
        self.b.jump(header);
        self.b.add_phi_incoming(i, latch, next);

        self.b.switch_to(exit);
        // On exit the phi equals the (uniform) bound; usable and checkable.
        pool.push(i);
    }

    fn array_op(&mut self, pool: &mut Vec<ValueId>) {
        let roll = self.rng.below(100);
        if roll < 40 {
            // Own slot only: tid < max_threads <= buf_len keeps writes
            // disjoint across threads.
            let v = self.rng.pick(pool);
            self.b.store_index(self.buf, self.tid, v);
        } else if roll < 70 {
            let v = self.b.load_index(self.m, self.buf, self.tid);
            pool.push(v);
        } else {
            // Read-only table, tid-masked index (the paper's `partial`
            // shape). tab_len >= 4, so the mask keeps it in bounds.
            let mask = self.b.const_i64(3);
            let idx = self.b.bin(BinOp::And, self.tid, mask);
            let v = self.b.load_index(self.m, self.tab, idx);
            pool.push(v);
        }
    }

    fn critical_section(&mut self, pool: &[ValueId]) {
        // Every section updates the one accumulator, so every section takes
        // the one mutex; the draw stays so the RNG stream — and with it
        // every generated shape — is what it was when sections drew theirs.
        let _ = self.rng.pick(&self.mutexes);
        let mtx = self.mutexes[0];
        let term = self.rng.pick(pool);
        self.b.mutex_lock(mtx);
        // The loaded intermediate is order-dependent, so it must never
        // escape into the pool — only the commutative reduction lands.
        let cur = self.b.load_global(self.m, self.acc);
        let newv = self.b.bin(self.reduce, cur, term);
        self.b.store_global(self.acc, newv);
        self.b.mutex_unlock(mtx);
    }

    fn rand_stmt(&mut self, pool: &mut Vec<ValueId>) {
        let bound = self.b.const_i64(self.rng.range(1, 17));
        let v = self.b.rand(bound);
        pool.push(v);
    }

    fn call_stmt(&mut self, pool: &mut Vec<ValueId>) {
        let (a0, a1) = (self.rng.pick(pool), self.rng.pick(pool));
        let v = if let Some(tbl) = self.table.filter(|_| self.rng.chance(40)) {
            let sel = if self.rng.chance(50) {
                let one = self.b.const_i64(1);
                self.b.bin(BinOp::And, self.tid, one)
            } else {
                self.b.const_i64(self.rng.range(0, 2))
            };
            self.b.call_indirect(self.m, tbl, sel, vec![a0, a1])
        } else {
            let f = self.rng.pick(&self.helpers);
            self.b.call(self.m, f, vec![a0, a1])
        };
        pool.push(v.expect("helpers return i64"));
    }

    fn fetchadd_stmt(&mut self) {
        let d = self.b.const_i64(self.rng.range(1, 4));
        // The fetched value is admission-order-dependent; discard it so
        // program-visible results stay schedule-deterministic. The counter's
        // final value (read in fini) is a commutative sum.
        let _ = self.b.atomic_fetch_add(self.cnt, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_verified() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let a = generate_module(seed, &cfg);
            let b = generate_module(seed, &cfg);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(a.spmd_entry.is_some());
            assert!(a.num_insts() > 10, "seed {seed} degenerate");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        let a = generate_module(1, &cfg);
        let b = generate_module(2, &cfg);
        assert_ne!(a.funcs, b.funcs);
    }
}
