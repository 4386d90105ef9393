//! Virtual time and rates.
//!
//! All simulation time is `u64` nanoseconds (`Nanos`). Rates convert bytes
//! to wire time; all integer arithmetic rounds up so simulated links never
//! run faster than configured.

/// Virtual time in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// Real, wall-clock nanoseconds — measured with the monotonic OS clock, as
/// opposed to the virtual simulation clock ([`Nanos`]).
///
/// The two units flow through the same meters (a [`crate::CpuMeter`] bins
/// *wall* nanoseconds of executed code by *virtual* event time) and, in the
/// threaded host runtime, wall time even becomes the event axis itself —
/// so confusing them is the easiest way to produce a wrong "cores" number.
/// The newtype keeps them apart at the type level: anything measured by
/// `Instant` is a `WallNanos`; anything advanced by a simulator is a
/// [`Nanos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct WallNanos(pub u64);

impl WallNanos {
    /// Zero elapsed wall time.
    pub const ZERO: WallNanos = WallNanos(0);

    /// From a raw nanosecond count.
    pub const fn from_nanos(ns: u64) -> Self {
        WallNanos(ns)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        WallNanos(ms * MILLISECOND)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        WallNanos(s * SECOND)
    }

    /// From a [`std::time::Duration`] (saturating at `u64::MAX` ns).
    pub fn from_duration(d: std::time::Duration) -> Self {
        WallNanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for rates and report fields).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECOND as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: WallNanos) -> WallNanos {
        WallNanos(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add for WallNanos {
    type Output = WallNanos;
    fn add(self, rhs: WallNanos) -> WallNanos {
        WallNanos(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for WallNanos {
    fn add_assign(&mut self, rhs: WallNanos) {
        self.0 += rhs.0;
    }
}

impl std::fmt::Display for WallNanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// A transmission rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rate(u64);

impl Rate {
    /// Constructs from bits per second.
    pub const fn bps(bits_per_second: u64) -> Self {
        Rate(bits_per_second)
    }

    /// Constructs from kilobits per second.
    pub const fn kbps(k: u64) -> Self {
        Rate(k * 1_000)
    }

    /// Constructs from megabits per second.
    pub const fn mbps(m: u64) -> Self {
        Rate(m * 1_000_000)
    }

    /// Constructs from gigabits per second.
    pub const fn gbps(g: u64) -> Self {
        Rate(g * 1_000_000_000)
    }

    /// Bits per second.
    pub fn as_bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` at this rate, rounded up; `None` for a
    /// zero rate (nothing can ever be sent — callers must handle it).
    pub fn tx_time(self, bytes: u64) -> Option<Nanos> {
        if self.0 == 0 {
            return None;
        }
        let bits = bytes * 8;
        // ns = bits / (bits/s) * 1e9, computed as bits*1e9/rate rounded up.
        Some((bits.saturating_mul(SECOND)).div_ceil(self.0))
    }

    /// Bytes fully serializable in `dur` nanoseconds.
    #[cfg(test)]
    fn bytes_in(self, dur: Nanos) -> u64 {
        (self.0 as u128 * dur as u128 / (8 * SECOND as u128)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_rounds_up() {
        // 1500B at 10 Gbps = 1.2 µs exactly.
        assert_eq!(Rate::gbps(10).tx_time(1_500), Some(1_200));
        // 1 byte at 3 bps: 8/3 s → rounds up.
        assert_eq!(Rate::bps(3).tx_time(1), Some(8 * SECOND / 3 + 1));
        assert_eq!(Rate::bps(0).tx_time(1), None);
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let r = Rate::mbps(100);
        let t = r.tx_time(12_345).unwrap();
        let b = r.bytes_in(t);
        assert!(
            (12_345..=12_346).contains(&b),
            "round trip within a byte, got {b}"
        );
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Rate::kbps(1_000), Rate::mbps(1));
        assert_eq!(Rate::mbps(1_000), Rate::gbps(1));
        assert_eq!(Rate::gbps(24).as_bps(), 24_000_000_000);
    }

    #[test]
    fn wall_nanos_constructors_and_arithmetic() {
        assert_eq!(WallNanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(WallNanos::from_secs(2), WallNanos::from_nanos(2 * SECOND));
        assert_eq!(
            WallNanos::from_duration(std::time::Duration::from_micros(5)),
            WallNanos(5_000)
        );
        assert_eq!(WallNanos(40) + WallNanos(100), WallNanos(140));
        assert_eq!(
            WallNanos(40).saturating_sub(WallNanos(100)),
            WallNanos::ZERO
        );
        assert!((WallNanos::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn large_rates_do_not_overflow() {
        // 100 Gbps, 9000B jumbo: 720 ns.
        assert_eq!(Rate::gbps(100).tx_time(9_000), Some(720));
        // A second of traffic at 100 Gbps.
        assert_eq!(Rate::gbps(100).bytes_in(SECOND), 12_500_000_000);
    }
}
