//! Branch events: the fixed-size records threads send to the monitor.

/// The information one `sendBranchCondition`/`sendBranchAddr` pair of the
/// paper carries, folded into a single fixed-size record: the static branch
/// identifier, the runtime instance identifiers (call-site path and
/// enclosing-loop iterations, pre-hashed by the sender), the condition
/// witness, and the branch outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchEvent {
    /// Static branch id (index into the check plan).
    pub branch: u32,
    /// Reporting thread.
    pub thread: u32,
    /// Level-1 runtime key: hash of the call-site path from the SPMD entry
    /// (the paper's "function's call site ID").
    pub site: u64,
    /// Level-2 runtime key: hash of the iteration numbers of all enclosing
    /// loops (≤ 6, the paper's cutoff) plus the barrier epoch.
    pub iter: u64,
    /// Condition witness: hash of the non-constant condition operands.
    pub witness: u64,
    /// Whether the branch was taken.
    pub taken: bool,
}

/// A stable 64-bit hash combiner (FNV-1a over 8-byte words) used for the
/// runtime keys. Deterministic across runs and platforms so golden runs and
/// fault-injection runs agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyHasher(u64);

impl KeyHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher.
    pub fn new() -> Self {
        KeyHasher(Self::OFFSET)
    }

    /// Mixes one 64-bit word.
    pub fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Mixes and returns a new hasher (for functional chaining).
    pub fn with(mut self, word: u64) -> Self {
        self.write(word);
        self
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Hashes a sequence of words in one call.
pub fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = KeyHasher::new();
    for w in words {
        h.write(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_words([1, 2, 3]), hash_words([1, 2, 3]));
    }

    #[test]
    fn hash_is_order_sensitive() {
        assert_ne!(hash_words([1, 2]), hash_words([2, 1]));
    }

    #[test]
    fn hash_distinguishes_empty_prefixes() {
        assert_ne!(hash_words([0]), hash_words([]));
        assert_ne!(hash_words([0, 0]), hash_words([0]));
    }

    #[test]
    fn chaining_matches_sequential_writes() {
        let a = KeyHasher::new().with(7).with(9).finish();
        let mut h = KeyHasher::new();
        h.write(7);
        h.write(9);
        assert_eq!(a, h.finish());
    }

    #[test]
    fn event_is_small() {
        // The hot path copies events by value into the ring buffer; keep
        // them compact (the paper uses fixed-size records too).
        assert!(std::mem::size_of::<BranchEvent>() <= 40);
    }
}
