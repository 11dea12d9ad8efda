//! Modules: the top-level IR container for an SPMD program.

use crate::ids::{BarrierId, FuncId, GlobalId, MutexId, TableId};
use crate::function::Function;
use crate::value::{Type, Val};

/// A global variable: a scalar or a fixed-size array in shared memory.
///
/// The `shared` flag drives the similarity analysis: loads from a shared
/// global seed the `shared` category (the paper's "constants or global
/// variables that are shared among all threads"). Globals written
/// concurrently with data-dependent values should be declared with
/// `shared = false`; loads from them are classified `none`.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Name for diagnostics and the textual front-end.
    pub name: String,
    /// Element type.
    pub ty: Type,
    /// Number of words (1 for scalars).
    pub len: u64,
    /// Initial value for every element.
    pub init: Val,
    /// Whether the similarity analysis may treat loads from this global as
    /// `shared` operands.
    pub shared: bool,
    /// Whether this global is a thread-ID counter: the target of the
    /// `procid = id++` pattern. Atomic fetch-adds on such a global seed the
    /// `threadID` category.
    pub tid_counter: bool,
}

/// A function table used by indirect calls (models function pointers; all
/// potential callees must share a signature).
#[derive(Clone, Debug, PartialEq)]
pub struct FuncTable {
    /// Name for diagnostics.
    pub name: String,
    /// Callees, indexed by the runtime selector.
    pub funcs: Vec<FuncId>,
}

/// A whole SPMD program.
///
/// Execution model (mirrors the paper's Figure 1 structure):
/// 1. `init`, if present, runs once single-threaded (the `main()` setup).
/// 2. `spmd_entry` runs concurrently in every thread (the `slave()`).
/// 3. `fini`, if present, runs once single-threaded after the join and
///    typically emits outputs for golden-run comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    /// Module name (benchmark name).
    pub name: String,
    /// All functions.
    pub funcs: Vec<Function>,
    /// All globals.
    pub globals: Vec<Global>,
    /// Number of mutexes the program uses.
    pub num_mutexes: u32,
    /// Number of barriers the program uses.
    pub num_barriers: u32,
    /// Function tables for indirect calls.
    pub tables: Vec<FuncTable>,
    /// Single-threaded setup function.
    pub init: Option<FuncId>,
    /// The function every thread executes in the parallel section.
    pub spmd_entry: Option<FuncId>,
    /// Single-threaded teardown / output function.
    pub fini: Option<FuncId>,
    /// Number of call sites assigned so far (module-wide counter).
    pub num_call_sites: u32,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            funcs: Vec::new(),
            globals: Vec::new(),
            num_mutexes: 0,
            num_barriers: 0,
            tables: Vec::new(),
            init: None,
            spmd_entry: None,
            fini: None,
            num_call_sites: 0,
        }
    }

    /// Adds a function and returns its id.
    pub fn add_func(&mut self, func: Function) -> FuncId {
        let id = FuncId::from_index(self.funcs.len());
        self.funcs.push(func);
        id
    }

    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(FuncId::from_index)
    }

    /// Iterates over `(FuncId, &Function)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs.iter().enumerate().map(|(i, f)| (FuncId::from_index(i), f))
    }

    /// Declares a scalar global and returns its id.
    pub fn add_global(
        &mut self,
        name: impl Into<String>,
        ty: Type,
        init: Val,
        shared: bool,
    ) -> GlobalId {
        self.add_array(name, ty, 1, init, shared)
    }

    /// Declares an array global of `len` elements and returns its id.
    pub fn add_array(
        &mut self,
        name: impl Into<String>,
        ty: Type,
        len: u64,
        init: Val,
        shared: bool,
    ) -> GlobalId {
        let id = GlobalId::from_index(self.globals.len());
        self.globals.push(Global { name: name.into(), ty, len, init, shared, tid_counter: false });
        id
    }

    /// Marks a global as a thread-ID counter (the `procid = id++` pattern).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn mark_tid_counter(&mut self, id: GlobalId) {
        self.globals[id.index()].tid_counter = true;
    }

    /// The global with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Declares a mutex and returns its id.
    pub fn add_mutex(&mut self) -> MutexId {
        let id = MutexId(self.num_mutexes);
        self.num_mutexes += 1;
        id
    }

    /// Declares a barrier and returns its id.
    pub fn add_barrier(&mut self) -> BarrierId {
        let id = BarrierId(self.num_barriers);
        self.num_barriers += 1;
        id
    }

    /// Declares a function table and returns its id.
    pub fn add_table(&mut self, name: impl Into<String>, funcs: Vec<FuncId>) -> TableId {
        let id = TableId::from_index(self.tables.len());
        self.tables.push(FuncTable { name: name.into(), funcs });
        id
    }

    /// Allocates a fresh module-unique call-site id.
    pub fn new_call_site(&mut self) -> crate::ids::CallSiteId {
        let id = crate::ids::CallSiteId(self.num_call_sites);
        self.num_call_sites += 1;
        id
    }

    /// Total number of instructions across all functions.
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(Function::num_insts).sum()
    }

    /// Total number of conditional branches across all functions.
    pub fn num_branches(&self) -> usize {
        self.funcs.iter().map(Function::num_branches).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_are_separate_regions() {
        let mut m = Module::new("t");
        let a = m.add_global("a", Type::I64, Val::I64(0), true);
        let b = m.add_array("b", Type::F64, 10, Val::F64(0.0), false);
        assert_eq!(m.global(a).len, 1);
        assert_eq!(m.global(b).len, 10);
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_by_name() {
        let mut m = Module::new("t");
        let g = m.add_global("counter", Type::I64, Val::I64(0), false);
        m.mark_tid_counter(g);
        assert!(m.global(g).tid_counter);

        let f = m.add_func(Function::new("slave", vec![], None));
        assert_eq!(m.func_by_name("slave"), Some(f));
        assert_eq!(m.func_by_name("nope"), None);
    }

    #[test]
    fn sync_primitive_ids_are_sequential() {
        let mut m = Module::new("t");
        assert_eq!(m.add_mutex(), MutexId(0));
        assert_eq!(m.add_mutex(), MutexId(1));
        assert_eq!(m.add_barrier(), BarrierId(0));
        assert_eq!(m.num_mutexes, 2);
        assert_eq!(m.num_barriers, 1);
    }

    #[test]
    fn call_sites_are_module_unique() {
        let mut m = Module::new("t");
        let a = m.new_call_site();
        let b = m.new_call_site();
        assert_ne!(a, b);
        assert_eq!(m.num_call_sites, 2);
    }
}
