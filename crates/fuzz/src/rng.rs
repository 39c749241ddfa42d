//! Deterministic random-number generation for the fuzzer.
//!
//! The whole harness is seed-driven: the same seed must produce
//! byte-identical generated Verilog and identical oracle verdicts across
//! runs and platforms (the determinism suite enforces this). We therefore
//! use our own SplitMix64 instead of an external RNG whose stream could
//! change under us.

/// SplitMix64 generator. Cheap, full-period over the 64-bit state, and
/// stable by construction — the stream is part of the corpus contract
/// (corpus file names embed the seed that produced them).
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0)");
        // Multiply-shift rejection-free mapping; bias is negligible for
        // the tiny bounds the generator uses and, crucially, deterministic.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Uniformly picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Derives an independent stream for sub-task `salt` (iteration
    /// numbers, stimulus streams) without perturbing this stream.
    pub fn derive(seed: u64, salt: u64) -> FuzzRng {
        let mut r = FuzzRng::new(seed ^ salt.rotate_left(17).wrapping_mul(0xA24B_AED4_963E_E407));
        // One warm-up step decorrelates small seed/salt pairs.
        r.next_u64();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let _guard = crate::serial();
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let _guard = crate::serial();
        let mut r = FuzzRng::new(7);
        for bound in 1..20u64 {
            for _ in 0..50 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn derived_streams_differ() {
        let _guard = crate::serial();
        let mut a = FuzzRng::derive(1, 0);
        let mut b = FuzzRng::derive(1, 1);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "derived streams must not collide");
    }
}
