//! SplitMix64: every generated input derives from `--seed` through this.

/// Steele, Lea & Flood's one-word PRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream for one named purpose of one seed, so that
    /// adding a draw to one generator never shifts another's inputs.
    pub fn fork(seed: u64, purpose: u64) -> Self {
        let mut r = SplitMix64::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (SplitMix64::new(9), SplitMix64::new(9));
        assert!((0..64).all(|_| a.next_u64() == b.next_u64()));
        let mut c = SplitMix64::new(10);
        assert_ne!(SplitMix64::new(9).next_u64(), c.next_u64());
    }

    #[test]
    fn forks_are_independent_of_each_other() {
        assert_ne!(
            SplitMix64::fork(1, 1).next_u64(),
            SplitMix64::fork(1, 2).next_u64()
        );
        assert_eq!(
            SplitMix64::fork(1, 1).next_u64(),
            SplitMix64::fork(1, 1).next_u64()
        );
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = SplitMix64::new(3).permutation(1000);
        assert_ne!(p[..8], [0, 1, 2, 3, 4, 5, 6, 7]);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| v as usize == i));
    }
}
