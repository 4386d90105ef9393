//! Division by an invariant `u64` divisor via precomputed reciprocals.
//!
//! Every bucketed queue maps a rank to a bucket with `(rank - base) /
//! granularity`. The granularity is fixed at construction, yet the generic
//! `u64` division compiles to a hardware `div` — tens of cycles on the
//! enqueue path of every queue. This module strength-reduces that division
//! to a multiply-and-shift using the classic round-up method (Granlund &
//! Montgomery, "Division by Invariant Integers using Multiplication"):
//! pick `p = ceil(log2 d)` and `m = ceil(2^(64+p) / d)`; then
//! `floor(n / d) = floor(m·n / 2^(64+p))` for **all** `n < 2^64`, because
//! `2^(64+p) ≤ m·d < 2^(64+p) + d ≤ 2^(64+p) + 2^p`, which is exactly the
//! round-up method's error budget (Hacker's Delight §10-9).
//!
//! `m` lands in `[2^64, 2^65)`, so only its low 64 bits are stored and the
//! implicit `2^64·n` term is added back after the high multiply — one
//! `64×64→128` multiply, one add and one shift. Powers of two reduce to a
//! plain shift, and divisors above `2^63` to a single compare.

/// A precomputed reciprocal of a non-zero `u64` divisor.
///
/// ```
/// use eiffel_core::recip::Reciprocal;
/// let r = Reciprocal::new(100_000); // a 100 µs bucket granularity
/// assert_eq!(r.div(1_999_999_999), 19_999);
/// assert_eq!(r.rem(1_999_999_999), 99_999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reciprocal {
    /// The divisor itself (for `rem` and debugging).
    d: u64,
    /// Low 64 bits of the magic multiplier `m - 2^64` (multiply path only).
    magic: u64,
    /// Post shift `p` (multiply path), or the exact shift (power-of-two
    /// path).
    shift: u32,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `d` is a power of two: `n >> shift`.
    Shift,
    /// General case: `(mulhi(magic, n) + n) >> (64 + shift)` in 128-bit.
    MulShift,
    /// `d > 2^63` and not a power of two: the quotient is 0 or 1.
    Compare,
}

impl Reciprocal {
    /// Precomputes the reciprocal of `d`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        if d.is_power_of_two() {
            return Reciprocal {
                d,
                magic: 0,
                shift: d.trailing_zeros(),
                kind: Kind::Shift,
            };
        }
        // p = ceil(log2 d) for non-power-of-two d ≥ 3.
        let p = 64 - (d - 1).leading_zeros();
        if p >= 64 {
            // d > 2^63: 2^(64+p) overflows u128; quotients are 0 or 1.
            return Reciprocal {
                d,
                magic: 0,
                shift: 0,
                kind: Kind::Compare,
            };
        }
        let num = 1u128 << (64 + p);
        let m = num.div_ceil(d as u128); // in [2^64, 2^65)
        Reciprocal {
            d,
            magic: (m - (1u128 << 64)) as u64,
            shift: p,
            kind: Kind::MulShift,
        }
    }

    /// The divisor this reciprocal encodes.
    #[inline]
    pub fn divisor(&self) -> u64 {
        self.d
    }

    /// `n / d`, exactly, without a hardware divide.
    #[inline]
    pub fn div(&self, n: u64) -> u64 {
        match self.kind {
            Kind::Shift => n >> self.shift,
            Kind::MulShift => {
                let hi = ((n as u128 * self.magic as u128) >> 64) + n as u128;
                (hi >> self.shift) as u64
            }
            Kind::Compare => (n >= self.d) as u64,
        }
    }

    /// `n % d`, exactly.
    #[inline]
    pub fn rem(&self, n: u64) -> u64 {
        n - self.div(n) * self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(d: u64, n: u64) {
        let r = Reciprocal::new(d);
        assert_eq!(r.div(n), n / d, "{n} / {d}");
        assert_eq!(r.rem(n), n % d, "{n} % {d}");
    }

    #[test]
    fn edge_divisors_and_numerators() {
        let divisors = [
            1u64,
            2,
            3,
            5,
            7,
            10,
            63,
            64,
            65,
            100_000,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &d in &divisors {
            let mut ns = vec![0u64, 1, 2, d - 1, d, u64::MAX, u64::MAX - 1];
            if let Some(x) = d.checked_add(1) {
                ns.push(x);
            }
            if let Some(x) = d.checked_mul(2) {
                ns.extend([x - 1, x, x + 1]);
            }
            if let Some(x) = d.checked_mul(1_000_003) {
                ns.extend([x - 1, x, x + 1]);
            }
            for n in ns {
                check(d, n);
            }
        }
    }

    #[test]
    fn pseudo_random_pairs() {
        let mut x: u64 = 0x6c62272e07bb0142;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200_000 {
            let d = next() | 1; // any odd divisor
            let n = next();
            check(d, n);
            check((d >> (n % 63)) | 1, n); // small divisors too
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_panics() {
        let _ = Reciprocal::new(0);
    }
}
