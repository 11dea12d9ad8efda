//! Branch events: the fixed-size records threads send to the monitor, and
//! [`KeyHasher`], the one function every runtime key is derived with.

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
    /// Level-2 runtime key: hash of the iteration numbers of every loop the
    /// running frame is in, plus the barrier epoch. The paper's cutoff of
    /// six enclosing loops is not applied here: it decides which branches
    /// the check plan instruments.
    pub iter: u64,
    /// Condition witness: hash of the non-constant condition operands.
    pub witness: u64,
    /// Whether the branch was taken.
    pub taken: bool,
}

/// A stable 64-bit hash combiner over 64-bit words, used for every runtime
/// key (call-site path, loop iterations and epoch, condition witness) and
/// for the shard a key lands on. Deterministic across runs and platforms so
/// golden runs and fault-injection runs agree.
///
/// One step per word: xor the word into the state, multiply by an odd
/// constant, then xor the high half into the low half. Each part is a
/// bijection of the state, so two sequences of equal length that differ in
/// one word never hash alike, and the multiply is the only long-latency
/// operation on the chain of dependent steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyHasher(u64);

impl KeyHasher {
    /// The state before any word. It must not be a fixed point of the
    /// step on the word 0, or `[0]` would hash like `[]`.
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    /// Odd, so the multiply is invertible modulo 2^64.
    const MULTIPLIER: u64 = 0xff51_afd7_ed55_8ccd;

    /// A fresh hasher.
    pub fn new() -> Self {
        KeyHasher(Self::SEED)
    }

    /// Mixes one 64-bit word.
    #[inline]
    pub fn write(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(Self::MULTIPLIER);
        self.0 = h ^ (h >> 32);
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

/// Hashes a sequence of words in one call: [`KeyHasher::new`], one
/// [`KeyHasher::write`] per word, [`KeyHasher::finish`].
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

    /// The key function is pinned to literal values: golden and faulty runs,
    /// both engines and every platform must derive the same keys, so a
    /// change to the derivation has to be a deliberate edit here.
    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_words([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_words([0]), 0xedae_e432_8b79_8493);
        assert_eq!(hash_words([1, 2, 3]), 0xe2e8_e00e_9855_8268);
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
        // them compact (the paper uses fixed-size records too). Exactly 40
        // bytes (DESIGN §4.3), so a layout change has to be made here.
        assert_eq!(std::mem::size_of::<BranchEvent>(), 40);
    }
}
