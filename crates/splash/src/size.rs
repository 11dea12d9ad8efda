//! Problem sizes for the benchmark ports.

/// Problem-size presets. The SPLASH-2 suite ships "default" inputs sized
/// for real machines; the interpreter needs smaller ones. All presets keep
/// the same control structure — only trip counts and array sizes change —
/// so the similarity-category statistics (Table V) are size-independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Size {
    /// Tiny: unit tests (sub-second campaigns).
    Test,
    /// Small: fault-injection campaigns (hundreds of runs).
    Small,
    /// Reference: performance sweeps (one run per configuration).
    Reference,
}

impl Size {
    /// A generic linear scale factor: 1, 2, 4.
    pub fn scale(self) -> u64 {
        match self {
            Size::Test => 1,
            Size::Small => 2,
            Size::Reference => 4,
        }
    }
}

/// Maximum thread count every port supports (the paper's machine width).
pub const MAX_THREADS: u64 = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Size::Test.scale() < Size::Small.scale());
        assert!(Size::Small.scale() < Size::Reference.scale());
    }
}
