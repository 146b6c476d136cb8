//! The benchmark's own seeded generator (SplitMix64): every input is a pure
//! function of `--seed`, independent of the engine's `rand` stand-in.

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, label)`, so adding an input never
    /// perturbs the others.
    pub fn new(seed: u64, label: &str) -> Rng {
        // FNV-1a over the label, folded into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift bias is below 2^-32
    /// for the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The SplitMix64 finalizer; also the checkers' order-independent row hash.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_labels_are_independent() {
        let stream = |seed, label| {
            let mut r = Rng::new(seed, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(stream(7, "x"), stream(7, "x"));
        assert_ne!(stream(7, "x"), stream(7, "y"));
        assert_ne!(stream(7, "x"), stream(8, "x"));
    }

    #[test]
    fn below_stays_in_range_and_shuffle_permutes() {
        let mut r = Rng::new(1, "t");
        assert!((0..1000).all(|_| r.below(7) < 7));
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<u32>>());
    }
}
