//! CPU metering: real measured nanoseconds, binned by virtual time.
//!
//! The kernel experiments (Figures 9 and 10) compare *CPU cores used for
//! networking* across three qdiscs. The substrate cannot run a kernel, but
//! it can do something more direct: execute the real data-structure code of
//! each qdisc and measure it with the monotonic clock, attributing the cost
//! to the virtual second in which the simulated event occurred. Hardware
//! effects that cannot be executed (interrupt entry/exit, qdisc spinlock
//! acquisition) are *modelled* as constants — identical constants for every
//! compared system, so they shift all curves equally and never reorder a
//! comparison. The constants live here, visible and documented:
//!
//! | Constant | Value | Source |
//! |---|---|---|
//! | [`IRQ_ENTRY_NS`] | 1 200 ns | order-of-magnitude cost of a hrtimer softirq wakeup on x86 servers |
//! | [`LOCK_NS`] | 40 ns | uncontended qdisc spinlock acquire+release |
//! | [`PER_PACKET_STACK_NS`] | 100 ns | skb alloc + header work per packet common to all qdiscs |
//!
//! Each measurement subtracts the calibrated overhead of the timer read
//! itself, so ~30 ns data-structure operations are not drowned by
//! `Instant::now`. The overhead is calibrated once per process.
//!
//! ## Census and sampled meters
//!
//! A meter either times every call ([`CpuMeter::new`], a *census*) or about
//! one call in [`SAMPLE_GAP`] per [`CpuCategory`] ([`CpuMeter::sampled`]).
//! Two `Instant::now` reads cost more than most of the qdisc operations
//! they bracket, so timing every call makes the instrument the largest
//! line of the run it measures.
//!
//! A sampled meter times bursts of 8 consecutive calls of a category,
//! starting with the first call, and leaves a seeded-random number of calls
//! untimed between bursts — random, so no periodic cost pattern in the
//! caller can alias with a fixed stride. Each closing burst charges the
//! mean net nanoseconds of its last 5 calls once for every call since the
//! previous burst closed, so charged calls equal executed calls (up to the
//! calls after the last closed burst) and per-bin cores keep their expected
//! value; only their variance grows.
//!
//! Why bursts, and why the first 3 calls of a burst are charged nothing: a
//! call timed after a run of untimed ones reads high. The calibration times
//! back-to-back reads in a hot loop, and an empty body timed through the
//! sampled path reads the same, so the clock reads are not what is cold;
//! the bracketed body is. On Figure 9's FQ enqueue (quick scale, 2-vCPU
//! Xeon), whose census mean is ~70 ns net, the first call of a burst read
//! ~60 ns above that, the second ~30 ns, the 4th to 8th within ~10 ns.
//! Timing lone calls put the Figure 9 virtual medians ~5 % above the
//! census's; bursts bring them back within run-to-run noise
//! (EXPERIMENTS.md). For the same reason the body runs out of line, one
//! copy for timed and untimed calls alike.
//!
//! Which clock a meter serves decides its mode:
//!
//! * **Virtual clock** (`qdisc::sharded::drive`): sampled. No virtual-time
//!   decision reads the meter, so sampling moves no count, release or
//!   drop — only how fast the simulation runs.
//! * **Wall clock** (`qdisc::threaded`): census. There the bins are wall
//!   time, so a faster run moves more packets per bin and busy cores grow
//!   with throughput; the cheaper meter would show up as more cores.

use std::sync::OnceLock;
use std::time::Instant;

use crate::rng::SplitMix64;
use crate::time::{Nanos, WallNanos};

/// Modelled cost of taking a timer interrupt / softirq wakeup.
pub const IRQ_ENTRY_NS: WallNanos = WallNanos(1_200);
/// Modelled cost of one uncontended qdisc-lock acquire+release pair.
pub const LOCK_NS: WallNanos = WallNanos(40);
/// Modelled per-packet network-stack cost outside the scheduler.
pub const PER_PACKET_STACK_NS: WallNanos = WallNanos(100);

/// A sampled meter times about one call in `SAMPLE_GAP`, per [`CpuCategory`].
pub const SAMPLE_GAP: u64 = 16;
/// Consecutive calls of one category a sampled meter times per sample.
const BURST: u64 = 8;
/// Leading calls of a burst that are timed only to warm the timing path:
/// they are charged nothing, the rest of the burst is charged for them.
const WARMUP: u64 = 3;
/// Seed of a sampled meter's gap draws. Fixed: the draws choose which calls
/// are timed and nothing else.
const SAMPLE_SEED: u64 = 0x5eed_c0de_cafe_f00d;

/// Where CPU time was spent, mirroring the paper's Figure 10 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuCategory {
    /// Work on the sender's system-call path (enqueue side) — the paper's
    /// "system processes" panel.
    System,
    /// Work in timer/softirq context (dequeue side) — the paper's "IRQ"
    /// panel.
    SoftIrq,
}

/// Accumulates busy **wall** nanoseconds into fixed-width bins along an
/// event-time axis.
///
/// The two clocks are kept explicit: what gets *charged* is always real
/// executed time, [`WallNanos`]; what selects the *bin* is the event clock
/// the harness runs on — virtual [`Nanos`] in the simulated hosts, wall
/// nanoseconds-since-start in the threaded runtime (where the event clock
/// *is* the wall clock). "Cores" per bin is then busy wall time divided by
/// the bin width, comparable across both harnesses.
#[derive(Debug)]
pub struct CpuMeter {
    bin_width: Nanos,
    /// `bins[i] = (system, softirq)` busy wall ns for event-time window `i`.
    bins: Vec<(WallNanos, WallNanos)>,
    /// Calibrated cost of an empty `measure` call, subtracted per sample.
    probe_overhead: WallNanos,
    /// `None` times every call (census); `Some` times a sample.
    sampler: Option<Sampler>,
    /// `measure` calls executed.
    calls: u64,
    /// `measure` calls timed.
    timed_calls: u64,
}

/// The sampled meter's choice of which calls to time, and what the timed
/// ones charge, per category.
#[derive(Debug)]
struct Sampler {
    rng: SplitMix64,
    /// Untimed calls left before the next burst.
    skip: [u64; 2],
    /// Timed calls left in the current burst.
    burst: [u64; 2],
    /// Calls since the last burst closed: what the next one stands for.
    stretch: [u64; 2],
    /// Net nanoseconds of the current burst's charged calls.
    net: [u64; 2],
}

impl Sampler {
    fn new() -> Self {
        Sampler {
            rng: SplitMix64::new(SAMPLE_SEED),
            skip: [0; 2],
            burst: [0; 2],
            stretch: [0; 2],
            net: [0; 2],
        }
    }

    /// Whether to time this call of category `c`.
    #[inline]
    fn start(&mut self, c: usize) -> bool {
        self.stretch[c] += 1;
        if self.burst[c] > 0 {
            self.burst[c] -= 1;
            return true;
        }
        if self.skip[c] > 0 {
            self.skip[c] -= 1;
            return false;
        }
        self.burst[c] = BURST - 1;
        // Uniform in [0, 2·(GAP − 1)·BURST]: a burst every GAP·BURST calls
        // on average.
        self.skip[c] = self.rng.next_below(2 * (SAMPLE_GAP - 1) * BURST + 1);
        true
    }

    /// Takes the net nanoseconds of the call just timed. When that call
    /// closes its burst, returns what the burst charges: the mean of its
    /// charged calls times the calls it stands for.
    fn record(&mut self, c: usize, ns: WallNanos) -> Option<WallNanos> {
        let position = BURST - 1 - self.burst[c];
        if position < WARMUP {
            return None;
        }
        self.net[c] += ns.as_nanos();
        if self.burst[c] > 0 {
            return None;
        }
        let stretch = std::mem::take(&mut self.stretch[c]);
        let net = std::mem::take(&mut self.net[c]);
        Some(WallNanos(net * stretch / (BURST - WARMUP)))
    }
}

impl CpuMeter {
    /// Creates a census meter — every [`measure`](Self::measure) call is
    /// timed — that bins into windows of `bin_width` virtual time,
    /// covering `horizon` of virtual time in total.
    pub fn new(bin_width: Nanos, horizon: Nanos) -> Self {
        assert!(bin_width > 0);
        let nbins = horizon.div_ceil(bin_width) as usize;
        CpuMeter {
            bin_width,
            bins: vec![(WallNanos::ZERO, WallNanos::ZERO); nbins],
            probe_overhead: Self::calibrate(),
            sampler: None,
            calls: 0,
            timed_calls: 0,
        }
    }

    /// Like [`new`](Self::new), but times about one
    /// [`measure`](Self::measure) call in [`SAMPLE_GAP`] per category, in
    /// bursts (see the module docs).
    pub fn sampled(bin_width: Nanos, horizon: Nanos) -> Self {
        CpuMeter {
            sampler: Some(Sampler::new()),
            ..Self::new(bin_width, horizon)
        }
    }

    /// Median cost of a no-op measurement, to subtract from every sample —
    /// measured on the first call in the process, then cached.
    fn calibrate() -> WallNanos {
        static OVERHEAD: OnceLock<WallNanos> = OnceLock::new();
        *OVERHEAD.get_or_init(|| {
            let mut samples: Vec<WallNanos> = (0..4_096)
                .map(|_| {
                    let t = Instant::now();
                    WallNanos::from_duration(t.elapsed())
                })
                .collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        })
    }

    /// The calibrated per-measurement overhead.
    pub fn probe_overhead(&self) -> WallNanos {
        self.probe_overhead
    }

    /// `measure` calls executed so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// `measure` calls timed so far: all of [`calls`](Self::calls) on a
    /// census meter, about one in [`SAMPLE_GAP`] on a sampled one.
    pub fn timed_calls(&self) -> u64 {
        self.timed_calls
    }

    /// Runs `f` and returns its result. A census meter measures every call's
    /// real wall duration, net of the probe overhead, and charges it to the
    /// bin for event time `now` under `cat`. A sampled meter runs most calls
    /// untimed; a call that closes a burst charges the burst's mean net
    /// duration once per call the burst stands for, so a bin's expected
    /// charge is the same (see the module docs).
    pub fn measure<R>(&mut self, now: Nanos, cat: CpuCategory, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        let c = cat as usize;
        match self.sampler.as_mut().map(|sampler| sampler.start(c)) {
            None => {
                let (r, ns) = self.time(f);
                self.charge(now, cat, ns);
                r
            }
            Some(false) => out_of_line(f),
            Some(true) => {
                let (r, ns) = self.time(|| out_of_line(f));
                let sampler = self.sampler.as_mut().expect("a sampled meter");
                if let Some(charged) = sampler.record(c, ns) {
                    self.charge(now, cat, charged);
                }
                r
            }
        }
    }

    /// Times `f`: its result and its net nanoseconds.
    #[inline(always)]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, WallNanos) {
        self.timed_calls += 1;
        let t = Instant::now();
        let r = f();
        let ns = WallNanos::from_duration(t.elapsed()).saturating_sub(self.probe_overhead);
        (r, ns)
    }

    /// Charges `wall` nanoseconds of (measured or modelled) cost to the bin
    /// for event time `now`.
    pub fn charge(&mut self, now: Nanos, cat: CpuCategory, wall: WallNanos) {
        let idx = ((now / self.bin_width) as usize).min(self.bins.len() - 1);
        match cat {
            CpuCategory::System => self.bins[idx].0 += wall,
            CpuCategory::SoftIrq => self.bins[idx].1 += wall,
        }
    }

    /// Per-bin utilization in "cores": busy nanoseconds divided by the bin
    /// width. Returns `(system_cores, softirq_cores)` per bin.
    pub fn cores_per_bin(&self) -> Vec<(f64, f64)> {
        self.bins
            .iter()
            .map(|&(s, i)| {
                (
                    s.as_nanos() as f64 / self.bin_width as f64,
                    i.as_nanos() as f64 / self.bin_width as f64,
                )
            })
            .collect()
    }

    /// Sorted total-cores samples (the CDF input of Figure 9).
    pub fn total_cores_sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.cores_per_bin().iter().map(|&(s, i)| s + i).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in accounting"));
        v
    }

    /// Median of the total-cores samples.
    pub fn median_cores(&self) -> f64 {
        let v = self.total_cores_sorted();
        if v.is_empty() {
            0.0
        } else {
            v[v.len() / 2]
        }
    }
}

/// Runs `f` out of line, so a sampled meter's timed and untimed calls
/// execute one copy of its code and no branch sits between a timed body
/// and the closing clock read.
#[inline(never)]
fn out_of_line<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SECOND;

    #[test]
    fn charges_land_in_the_right_bins() {
        let mut m = CpuMeter::new(SECOND, 3 * SECOND);
        m.charge(0, CpuCategory::System, WallNanos(100_000_000)); // 0.1 cores in bin 0
        m.charge(SECOND + 1, CpuCategory::SoftIrq, WallNanos(500_000_000)); // bin 1
        m.charge(10 * SECOND, CpuCategory::System, WallNanos(1)); // clamped to last bin
        let bins = m.cores_per_bin();
        assert_eq!(bins.len(), 3);
        assert!((bins[0].0 - 0.1).abs() < 1e-9);
        assert!((bins[1].1 - 0.5).abs() < 1e-9);
        assert!(bins[2].0 > 0.0);
    }

    #[test]
    fn measure_returns_value_and_accumulates() {
        for mut m in [
            CpuMeter::new(SECOND, SECOND),
            CpuMeter::sampled(SECOND, SECOND),
        ] {
            // One burst: a sampled meter charges when a burst closes.
            for _ in 0..BURST {
                let out = m.measure(0, CpuCategory::System, || {
                    // Do something real so the duration is non-trivial.
                    let mut acc = 0u64;
                    for i in 0..50_000u64 {
                        acc = acc.wrapping_add(i * i);
                    }
                    acc
                });
                assert!(out > 0);
            }
            let cores = m.cores_per_bin()[0].0;
            assert!(cores > 0.0, "measured work must register");
        }
    }

    /// The category of call `i` in the mixed-category scripts below: an
    /// irregular interleaving, about one softirq call in three.
    fn cat_of(i: u64) -> CpuCategory {
        if (i * 0x9e37_79b9) % 3 == 0 {
            CpuCategory::SoftIrq
        } else {
            CpuCategory::System
        }
    }

    #[test]
    fn census_meter_times_every_call() {
        let mut m = CpuMeter::new(SECOND, SECOND);
        for i in 0..1_000 {
            m.measure(i, cat_of(i), || ());
            assert_eq!(m.timed_calls(), i + 1);
        }
        assert_eq!(m.calls(), 1_000);
    }

    #[test]
    fn sampled_meter_times_the_first_call_of_each_category() {
        let mut m = CpuMeter::sampled(SECOND, SECOND);
        m.measure(0, CpuCategory::System, || ());
        assert_eq!(m.timed_calls(), 1);
        for i in 1..5 {
            m.measure(i, CpuCategory::System, || ());
        }
        let before = m.timed_calls();
        m.measure(5, CpuCategory::SoftIrq, || ());
        assert_eq!(m.timed_calls(), before + 1);
        assert_eq!(m.calls(), 6);
    }

    #[test]
    fn sampled_weights_account_for_every_call() {
        const CALLS: u64 = 100_000;
        let mut s = Sampler::new();
        // A charged call costing 1 ns makes each closing burst charge
        // exactly the calls it stands for.
        let (mut charged, mut timed) = (0, 0);
        for i in 0..CALLS {
            let c = cat_of(i) as usize;
            if s.start(c) {
                timed += 1;
                charged += s.record(c, WallNanos(1)).map_or(0, WallNanos::as_nanos);
            }
        }
        assert_eq!(charged + s.stretch[0] + s.stretch[1], CALLS);
        let share = timed as f64 / CALLS as f64;
        assert!((1.0 / 20.0..=1.0 / 12.0).contains(&share), "share {share}");

        let mut m = CpuMeter::sampled(SECOND, SECOND);
        for i in 0..CALLS {
            m.measure(i, cat_of(i), || ());
        }
        assert_eq!(m.calls(), CALLS);
        assert_eq!(
            m.timed_calls(),
            timed,
            "the meter draws what the sampler draws"
        );
    }

    /// A sampled meter must not lock onto a periodic pattern in its caller:
    /// the timed calls' indices split about evenly between even and odd,
    /// and between the low and high halves of every run of 16, with about
    /// one in 16 on a multiple of 16. Bursts at a fixed stride (a multiple
    /// of 16 calls) land in the same half every time and fail this.
    #[test]
    fn sampled_meter_does_not_alias_with_a_stride() {
        const CALLS: u64 = 100_000;
        let mut m = CpuMeter::sampled(SECOND, SECOND);
        let (mut timed, mut even, mut low_half, mut on_16) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..CALLS {
            let before = m.timed_calls();
            m.measure(i, CpuCategory::System, || ());
            if m.timed_calls() > before {
                timed += 1;
                even += u64::from(i % 2 == 0);
                low_half += u64::from(i % 16 < 8);
                on_16 += u64::from(i % 16 == 0);
            }
        }
        let frac = |n: u64| n as f64 / timed as f64;
        assert!((0.4..=0.6).contains(&frac(even)), "even {}", frac(even));
        assert!(
            (0.4..=0.6).contains(&frac(low_half)),
            "low half {}",
            frac(low_half)
        );
        assert!(
            (1.0 / 32.0..=1.0 / 8.0).contains(&frac(on_16)),
            "on a multiple of 16 {}",
            frac(on_16)
        );
    }

    #[test]
    fn median_and_cdf_ordering() {
        let mut m = CpuMeter::new(SECOND, 4 * SECOND);
        for (bin, ns) in [(0u64, 4u64), (1, 1), (2, 3), (3, 2)] {
            m.charge(
                bin * SECOND,
                CpuCategory::SoftIrq,
                WallNanos(ns * 100_000_000),
            );
        }
        let sorted = m.total_cores_sorted();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert!((m.median_cores() - 0.3).abs() < 1e-9);
    }
}
