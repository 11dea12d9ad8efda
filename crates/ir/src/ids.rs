//! Strongly-typed index newtypes for IR entities.
//!
//! Every IR entity (function, block, instruction/value, global, …) is stored
//! in an arena owned by its parent and referred to by a compact `u32` index.
//! Newtypes keep the indices from being mixed up ([C-NEWTYPE]).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index of this id.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an id from a raw arena index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("arena index overflow"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str($prefix)?;
                write_decimal(f, self.0)
            }
        }
    };
}

/// Writes `n` in decimal with two `write_str`s and no nested `write!`. Like
/// the `write!(f, "v{}", n)` it replaces, it ignores the caller's width and
/// fill: `format!("{:>4}", ValueId(3))` is `v3`.
fn write_decimal(f: &mut fmt::Formatter<'_>, mut n: u32) -> fmt::Result {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    f.write_str(std::str::from_utf8(&digits[at..]).map_err(|_| fmt::Error)?)
}

id_type!(
    /// Identifies a function within a [`Module`](crate::Module).
    FuncId,
    "fn"
);
id_type!(
    /// Identifies a basic block within a [`Function`](crate::Function).
    BlockId,
    "bb"
);
id_type!(
    /// Identifies an SSA value (an instruction result or a function
    /// parameter) within a [`Function`](crate::Function).
    ValueId,
    "v"
);
id_type!(
    /// Identifies a global variable (scalar or array) within a module.
    GlobalId,
    "g"
);
id_type!(
    /// Identifies a mutex declared by the module.
    MutexId,
    "mtx"
);
id_type!(
    /// Identifies a barrier declared by the module.
    BarrierId,
    "bar"
);
id_type!(
    /// Identifies a function table used by indirect calls.
    TableId,
    "tbl"
);
id_type!(
    /// Identifies a static call site. Assigned module-wide so that the
    /// runtime can encode the call stack compactly.
    CallSiteId,
    "cs"
);
id_type!(
    /// Identifies a static branch. Assigned module-wide by the
    /// instrumentation pass; used as the level-1 hash-table key component.
    BranchId,
    "br"
);
id_type!(
    /// Identifies a natural loop discovered by loop analysis.
    LoopId,
    "loop"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let id = ValueId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, ValueId(42));
    }

    #[test]
    fn debug_and_display_prefixes() {
        assert_eq!(format!("{}", BlockId(3)), "bb3");
        assert_eq!(format!("{:?}", FuncId(1)), "fn1");
        assert_eq!(format!("{}", BranchId(7)), "br7");
        assert_eq!(format!("{:>4} {}", ValueId(3), CallSiteId(u32::MAX)), "v3 cs4294967295");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ValueId(1) < ValueId(2));
    }

    #[test]
    #[should_panic(expected = "arena index overflow")]
    fn from_index_overflow_panics() {
        let _ = ValueId::from_index(usize::MAX);
    }
}
