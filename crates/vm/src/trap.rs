//! Trap (abnormal termination) kinds raised by the interpreter.

use std::fmt;

/// Why a thread aborted. Mirrors what the OS / hardware would deliver to a
/// native program: segmentation faults for wild accesses, arithmetic
/// exceptions, and explicit aborts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrapKind {
    /// Memory access outside its region (segfault-equivalent; region-based
    /// pointers make corrupted indices trap like OS page protection does).
    OutOfBounds,
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Indirect-call selector outside the function table.
    BadIndirectCall,
    /// `alloca` with a negative or absurd size.
    BadAlloc,
    /// Call stack exceeded the depth limit.
    StackOverflow,
    /// The program executed an explicit `trap` (assertion failure).
    Explicit,
    /// A value had the wrong runtime type (internal error or corrupted
    /// pointer bits reinterpreted).
    TypeError,
    /// Unlock of a mutex the thread does not hold.
    BadUnlock,
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrapKind::OutOfBounds => "out-of-bounds memory access",
            TrapKind::DivideByZero => "division by zero",
            TrapKind::BadIndirectCall => "indirect call outside table",
            TrapKind::BadAlloc => "invalid allocation size",
            TrapKind::StackOverflow => "call stack overflow",
            TrapKind::Explicit => "explicit trap",
            TrapKind::TypeError => "runtime type error",
            TrapKind::BadUnlock => "unlock of a mutex not held",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        for t in [
            TrapKind::OutOfBounds,
            TrapKind::DivideByZero,
            TrapKind::BadIndirectCall,
            TrapKind::BadAlloc,
            TrapKind::StackOverflow,
            TrapKind::Explicit,
            TrapKind::TypeError,
            TrapKind::BadUnlock,
        ] {
            assert!(!t.to_string().is_empty());
        }
    }
}
