//! Universal hashing (Carter–Wegman), as the paper specifies for the
//! SyncMon condition cache and Bloom filters (§V.C, citing \[63\]).

/// A member of a universal family of hash functions over `u64`.
///
/// `h(x) = ((a·x + b) mod p) mod m` with `p` a Mersenne prime (2⁶¹ − 1) and
/// odd `a`; different `(a, b)` pairs give independent functions, which the
/// Bloom filters need six of.
///
/// The reduction mod `p` divides nothing: `2⁶¹ ≡ 1 (mod p)`, so a value
/// `v = hi·2⁶¹ + lo` is congruent to `hi + lo`. Two such folds bring the
/// 128-bit `a·x + b` below `2p`, and one conditional subtract finishes.
/// The final `mod m` is a mask when `m` is a power of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniversalHash {
    a: u64,
    b: u64,
}

/// The Mersenne prime 2⁶¹ − 1.
const P: u64 = (1 << 61) - 1;

/// One step of SplitMix64: advances `state` and returns the next output.
const fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl UniversalHash {
    /// Creates the `i`-th member of the family (deterministic per index).
    pub const fn nth(i: u64) -> Self {
        // Fixed, well-mixed parameters derived via SplitMix64 from the index.
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let a = splitmix(&mut x) | 1;
        let b = splitmix(&mut x);
        UniversalHash { a, b }
    }

    /// Hashes `x` into `[0, m)`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[inline]
    pub fn hash(&self, x: u64, m: u64) -> u64 {
        assert!(m > 0, "range must be positive");
        let v = u128::from(self.a) * u128::from(x) + u128::from(self.b);
        // v < 2¹²⁸, so after the first fold v < 2⁶⁷ + 2⁶¹ ...
        let v = (v & u128::from(P)) + (v >> 61);
        // ... and after the second v < 2⁶¹ + 2⁷ < 2p.
        let v = (v as u64 & P) + (v >> 61) as u64;
        let v = if v >= P { v - P } else { v };
        if m.is_power_of_two() {
            v & (m - 1)
        } else {
            v % m
        }
    }
}

/// The paper's condition-cache key: "the address is shifted left with log of
/// number of cache entries, after subtracting log of cacheline size, and
/// bitwise ORed with the waiting value. The result is further hashed with a
/// universal hash function" (§V.C).
pub fn condition_key(addr: u64, value: i64, cache_entries: u64, line_bytes: u64) -> u64 {
    let shift = cache_entries.trailing_zeros();
    let line_shift = line_bytes.trailing_zeros();
    ((addr >> line_shift) << shift) | (value as u64 & (cache_entries - 1))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn deterministic_per_index() {
        let h1 = UniversalHash::nth(3);
        let h2 = UniversalHash::nth(3);
        assert_eq!(h1.hash(12345, 256), h2.hash(12345, 256));
    }

    #[test]
    fn different_indices_differ() {
        let h1 = UniversalHash::nth(0);
        let h2 = UniversalHash::nth(1);
        let collisions = (0..512u64)
            .filter(|&x| h1.hash(x, 1024) == h2.hash(x, 1024))
            .count();
        assert!(collisions < 20, "families too correlated: {collisions}");
    }

    #[test]
    fn output_in_range() {
        let h = UniversalHash::nth(5);
        for x in 0..1000u64 {
            assert!(h.hash(x.wrapping_mul(64), 256) < 256);
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let h = UniversalHash::nth(7);
        let mut buckets = [0u32; 16];
        for x in 0..16000u64 {
            buckets[h.hash(x * 64 + 7, 16) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..=1300).contains(&b), "bucket {b}");
        }
    }

    #[test]
    fn condition_key_mixes_addr_and_value() {
        let k1 = condition_key(0x1000, 1, 1024, 64);
        let k2 = condition_key(0x1000, 2, 1024, 64);
        let k3 = condition_key(0x1040, 1, 1024, 64);
        assert_ne!(k1, k2, "value must affect the key");
        assert_ne!(k1, k3, "line address must affect the key");
    }

    /// The division-free hash against the textbook formula in u128.
    fn reference(h: UniversalHash, x: u64, m: u64) -> u64 {
        const P128: u128 = (1 << 61) - 1;
        ((u128::from(h.a) * u128::from(x) + u128::from(h.b)) % P128 % u128::from(m)) as u64
    }

    #[test]
    fn folded_hash_matches_the_u128_formula_at_the_edges() {
        let edges = [0, 1, P - 1, P, P + 1, u64::MAX];
        let ranges = [1, 2, 24, 256, 1000, u64::MAX];
        for &a in &edges {
            for &b in &edges {
                let h = UniversalHash { a, b };
                for &x in &edges {
                    for &m in &ranges {
                        assert_eq!(h.hash(x, m), reference(h, x, m), "a={a} b={b} x={x} m={m}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn folded_hash_matches_the_u128_formula(
            a in any::<u64>(),
            b in any::<u64>(),
            x in any::<u64>(),
            m in prop_oneof![
                Just(1u64),
                Just(24u64),
                Just(256u64),
                Just(512u64),
                1u64..1 << 20,
                any::<u64>().prop_map(|m| m.max(1)),
                (0u64..64).prop_map(|k| 1u64 << k),
            ],
        ) {
            let h = UniversalHash { a, b };
            prop_assert_eq!(h.hash(x, m), reference(h, x, m));
        }
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_panics() {
        UniversalHash::nth(0).hash(1, 0);
    }
}
