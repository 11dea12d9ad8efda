//! Memory backends: shared memory (per-global regions) and thread-local
//! allocation arenas.
//!
//! Two shared-memory implementations exist behind [`SharedMemory`]:
//! a plain single-threaded one for the deterministic simulator, and an
//! atomic one (values stored as `AtomicU64` bit patterns, with the element
//! type taken from the global's declaration) for the real-threads engine,
//! where concurrent relaxed accesses must not be undefined behaviour.

use std::sync::atomic::{AtomicU64, Ordering};

use bw_ir::{Module, Ptr, Space, Type, Val};

use crate::trap::TrapKind;

/// Shared memory abstraction used by the interpreter core.
pub trait SharedMemory {
    /// Loads the word at `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::OutOfBounds`] for accesses outside the region.
    fn load(&self, ptr: Ptr) -> Result<Val, TrapKind>;

    /// Loads the word at `ptr` into `dst`, which is left alone on a trap:
    /// [`SharedMemory::load`] without the `Result<Val, _>` in between, which
    /// the interpreter's `load` would copy through the stack.
    ///
    /// # Errors
    ///
    /// As [`SharedMemory::load`].
    #[inline]
    fn load_to(&self, ptr: Ptr, dst: &mut Val) -> Result<(), TrapKind> {
        *dst = self.load(ptr)?;
        Ok(())
    }

    /// Stores `value` at `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::OutOfBounds`] for accesses outside the region.
    fn store(&self, ptr: Ptr, value: Val) -> Result<(), TrapKind>;

    /// Atomically adds `delta` to the scalar global `region` and returns
    /// the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::OutOfBounds`] if the region does not exist or
    /// [`TrapKind::TypeError`] if it is not an integer scalar.
    fn fetch_add(&self, region: u32, delta: i64) -> Result<i64, TrapKind>;
}

fn check_bounds(len: usize, ptr: Ptr) -> Result<usize, TrapKind> {
    if ptr.offset < 0 {
        return Err(TrapKind::OutOfBounds);
    }
    let off = ptr.offset as usize;
    if off >= len {
        return Err(TrapKind::OutOfBounds);
    }
    Ok(off)
}

/// Plain shared memory for the single-OS-thread simulator.
///
/// [`SharedMemory`] stores through `&self`, and the simulator interprets
/// every thread on one OS thread, so each word is a [`Cell`](std::cell::Cell):
/// `Val` is `Copy`, which makes `get`/`set` all that is needed — no `unsafe`,
/// no `RefCell` borrow flag. (It also makes `SimMemory` `!Sync`, so it cannot
/// end up under the real-threads engine by mistake.)
#[derive(Clone)]
pub struct SimMemory {
    regions: Vec<Vec<std::cell::Cell<Val>>>,
}

impl SimMemory {
    /// Allocates and initializes shared memory from the module's globals.
    pub fn new(module: &Module) -> Self {
        let regions = module
            .globals
            .iter()
            .map(|g| (0..g.len).map(|_| std::cell::Cell::new(g.init)).collect())
            .collect();
        SimMemory { regions }
    }

    fn region(&self, ptr: Ptr) -> Result<&Vec<std::cell::Cell<Val>>, TrapKind> {
        self.regions.get(ptr.region as usize).ok_or(TrapKind::OutOfBounds)
    }
}

impl SharedMemory for SimMemory {
    fn load(&self, ptr: Ptr) -> Result<Val, TrapKind> {
        let region = self.region(ptr)?;
        let off = check_bounds(region.len(), ptr)?;
        Ok(region[off].get())
    }

    #[inline]
    fn load_to(&self, ptr: Ptr, dst: &mut Val) -> Result<(), TrapKind> {
        let region = self.region(ptr)?;
        let off = check_bounds(region.len(), ptr)?;
        *dst = region[off].get();
        Ok(())
    }

    fn store(&self, ptr: Ptr, value: Val) -> Result<(), TrapKind> {
        let region = self.region(ptr)?;
        let off = check_bounds(region.len(), ptr)?;
        region[off].set(value);
        Ok(())
    }

    fn fetch_add(&self, region: u32, delta: i64) -> Result<i64, TrapKind> {
        let r = self.regions.get(region as usize).ok_or(TrapKind::OutOfBounds)?;
        let cell = r.first().ok_or(TrapKind::OutOfBounds)?;
        let old = cell.get().as_i64().ok_or(TrapKind::TypeError)?;
        cell.set(Val::I64(old.wrapping_add(delta)));
        Ok(old)
    }
}

/// Atomic shared memory for the real-threads engine. Values are stored as
/// their 64-bit encodings; the element type comes from the global
/// declaration, so every slot has a fixed type.
pub struct AtomicMemory {
    regions: Vec<(Type, Vec<AtomicU64>)>,
}

impl AtomicMemory {
    /// Allocates and initializes shared memory from the module's globals.
    pub fn new(module: &Module) -> Self {
        let regions = module
            .globals
            .iter()
            .map(|g| {
                let bits = g.init.bits();
                (g.ty, (0..g.len).map(|_| AtomicU64::new(bits)).collect())
            })
            .collect();
        AtomicMemory { regions }
    }
}

impl SharedMemory for AtomicMemory {
    fn load(&self, ptr: Ptr) -> Result<Val, TrapKind> {
        let (ty, region) =
            self.regions.get(ptr.region as usize).ok_or(TrapKind::OutOfBounds)?;
        let off = check_bounds(region.len(), ptr)?;
        Ok(Val::from_bits(*ty, region[off].load(Ordering::Relaxed)))
    }

    fn store(&self, ptr: Ptr, value: Val) -> Result<(), TrapKind> {
        let (_, region) =
            self.regions.get(ptr.region as usize).ok_or(TrapKind::OutOfBounds)?;
        let off = check_bounds(region.len(), ptr)?;
        // Only the bit pattern is kept. A value of another type than the
        // region's (possible after pointer corruption redirects a store
        // into another global) is reinterpreted by the next load, as real
        // memory would.
        region[off].store(value.bits(), Ordering::Relaxed);
        Ok(())
    }

    fn fetch_add(&self, region: u32, delta: i64) -> Result<i64, TrapKind> {
        let (ty, r) = self.regions.get(region as usize).ok_or(TrapKind::OutOfBounds)?;
        if *ty != Type::I64 {
            return Err(TrapKind::TypeError);
        }
        let cell = r.first().ok_or(TrapKind::OutOfBounds)?;
        Ok(cell.fetch_add(delta as u64, Ordering::Relaxed) as i64)
    }
}

/// Per-thread local memory: a list of `alloca` regions.
#[derive(Clone, Debug, Default)]
pub struct LocalMemory {
    regions: Vec<Vec<Val>>,
}

impl LocalMemory {
    /// Fresh empty local memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `size` words and returns the pointer to the new region.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::BadAlloc`] for negative or oversized requests.
    pub fn alloca(&mut self, size: i64) -> Result<Ptr, TrapKind> {
        if !(0..=(1 << 28)).contains(&size) {
            return Err(TrapKind::BadAlloc);
        }
        let region = u32::try_from(self.regions.len()).map_err(|_| TrapKind::BadAlloc)?;
        self.regions.push(vec![Val::I64(0); size as usize]);
        Ok(Ptr { space: Space::Local, region, offset: 0 })
    }

    /// Loads the word at `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::OutOfBounds`] for accesses outside the region.
    pub fn load(&self, ptr: Ptr) -> Result<Val, TrapKind> {
        let region = self.regions.get(ptr.region as usize).ok_or(TrapKind::OutOfBounds)?;
        let off = check_bounds(region.len(), ptr)?;
        Ok(region[off])
    }

    /// Loads the word at `ptr` into `dst`, which is left alone on a trap
    /// (see [`SharedMemory::load_to`]).
    ///
    /// # Errors
    ///
    /// As [`LocalMemory::load`].
    #[inline]
    pub fn load_to(&self, ptr: Ptr, dst: &mut Val) -> Result<(), TrapKind> {
        let region = self.regions.get(ptr.region as usize).ok_or(TrapKind::OutOfBounds)?;
        let off = check_bounds(region.len(), ptr)?;
        *dst = region[off];
        Ok(())
    }

    /// Stores `value` at `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::OutOfBounds`] for accesses outside the region.
    pub fn store(&mut self, ptr: Ptr, value: Val) -> Result<(), TrapKind> {
        let region = self.regions.get_mut(ptr.region as usize).ok_or(TrapKind::OutOfBounds)?;
        let off = check_bounds(region.len(), ptr)?;
        region[off] = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_ir::Module;

    fn module_with_globals() -> Module {
        let mut m = Module::new("t");
        m.add_global("x", Type::I64, Val::I64(7), true);
        m.add_array("a", Type::F64, 4, Val::F64(1.5), false);
        m
    }

    #[test]
    fn sim_memory_roundtrip() {
        let m = module_with_globals();
        let mem = SimMemory::new(&m);
        let x = Ptr::shared(0);
        assert_eq!(mem.load(x), Ok(Val::I64(7)));
        mem.store(x, Val::I64(9)).unwrap();
        assert_eq!(mem.load(x), Ok(Val::I64(9)));
        let a2 = Ptr { space: Space::Shared, region: 1, offset: 2 };
        assert_eq!(mem.load(a2), Ok(Val::F64(1.5)));
    }

    #[test]
    fn sim_memory_bounds() {
        let m = module_with_globals();
        let mem = SimMemory::new(&m);
        let bad = Ptr { space: Space::Shared, region: 1, offset: 4 };
        assert_eq!(mem.load(bad), Err(TrapKind::OutOfBounds));
        let neg = Ptr { space: Space::Shared, region: 0, offset: -1 };
        assert_eq!(mem.load(neg), Err(TrapKind::OutOfBounds));
        let nowhere = Ptr { space: Space::Shared, region: 99, offset: 0 };
        assert_eq!(mem.store(nowhere, Val::I64(0)), Err(TrapKind::OutOfBounds));
    }

    #[test]
    fn sim_fetch_add() {
        let m = module_with_globals();
        let mem = SimMemory::new(&m);
        assert_eq!(mem.fetch_add(0, 3), Ok(7));
        assert_eq!(mem.fetch_add(0, 1), Ok(10));
        // fetch_add on a float region is a type error.
        assert_eq!(mem.fetch_add(1, 1), Err(TrapKind::TypeError));
    }

    #[test]
    fn atomic_memory_matches_sim_semantics() {
        let m = module_with_globals();
        let mem = AtomicMemory::new(&m);
        let x = Ptr::shared(0);
        assert_eq!(mem.load(x), Ok(Val::I64(7)));
        mem.store(x, Val::I64(-3)).unwrap();
        assert_eq!(mem.load(x), Ok(Val::I64(-3)));
        assert_eq!(mem.fetch_add(0, 5), Ok(-3));
        assert_eq!(mem.load(x), Ok(Val::I64(2)));
        let a0 = Ptr { space: Space::Shared, region: 1, offset: 0 };
        assert_eq!(mem.load(a0), Ok(Val::F64(1.5)));
        assert_eq!(
            mem.load(Ptr { space: Space::Shared, region: 1, offset: 9 }),
            Err(TrapKind::OutOfBounds)
        );
    }

    #[test]
    fn local_memory_alloca_and_access() {
        let mut lm = LocalMemory::new();
        let p = lm.alloca(4).unwrap();
        lm.store(p.offset_by(3), Val::F64(2.5)).unwrap();
        assert_eq!(lm.load(p.offset_by(3)), Ok(Val::F64(2.5)));
        assert_eq!(lm.load(p.offset_by(4)), Err(TrapKind::OutOfBounds));
        assert_eq!(lm.alloca(-1), Err(TrapKind::BadAlloc));
    }
}
