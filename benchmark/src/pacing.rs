//! Pacing error of a release trace.
//!
//! A shaper promises each flow one packet per `gap`. It does not promise
//! *when* the flow's schedule starts (that depends on when its first
//! packet arrived), so the error of release `k` is measured against the
//! best-fit schedule of its own flow: the latest schedule no release is
//! early against,
//!
//! ```text
//! anchor   = min over j of (r_j − j·gap)
//! error_k  = r_k − (anchor + k·gap)        (≥ 0 by construction)
//! ```
//!
//! A flow released uniformly late has zero error (it is a shifted, still
//! perfectly paced schedule); one late packet shows as exactly its own
//! lateness and leaves its neighbours at zero.

/// Per-release pacing error in nanoseconds, in trace order. `releases` is
/// `(time, flow)` in nondecreasing time; flows are `0..flows`.
pub fn pace_errors(releases: &[(u64, u32)], flows: usize, gap: u64) -> Vec<u64> {
    let mut seen = vec![0u64; flows];
    let mut anchor = vec![i128::MAX; flows];
    for &(t, f) in releases {
        let f = f as usize;
        let ideal = i128::from(t) - i128::from(seen[f]) * i128::from(gap);
        anchor[f] = anchor[f].min(ideal);
        seen[f] += 1;
    }
    seen.fill(0);
    releases
        .iter()
        .map(|&(t, f)| {
            let f = f as usize;
            let due = anchor[f] + i128::from(seen[f]) * i128::from(gap);
            seen[f] += 1;
            u64::try_from(i128::from(t) - due).expect("anchor makes every error non-negative")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAP: u64 = 1_000;

    fn flow(times: &[u64], id: u32) -> Vec<(u64, u32)> {
        times.iter().map(|&t| (t, id)).collect()
    }

    #[test]
    fn on_time_flow_has_zero_error() {
        let trace = flow(&[500, 1_500, 2_500, 3_500], 0);
        assert_eq!(pace_errors(&trace, 1, GAP), vec![0, 0, 0, 0]);
    }

    #[test]
    fn uniformly_late_flow_is_a_shifted_schedule() {
        let trace = flow(&[500 + 70, 1_500 + 70, 2_500 + 70], 0);
        assert_eq!(pace_errors(&trace, 1, GAP), vec![0, 0, 0]);
    }

    #[test]
    fn one_late_packet_carries_exactly_its_lateness() {
        let trace = flow(&[0, 1_000, 2_300, 3_000, 4_000], 0);
        assert_eq!(pace_errors(&trace, 1, GAP), vec![0, 0, 300, 0, 0]);
    }

    #[test]
    fn late_first_packet_does_not_move_the_anchor() {
        // The anchor is the minimum over all releases, not the first one.
        let trace = flow(&[250, 1_000, 2_000], 0);
        assert_eq!(pace_errors(&trace, 1, GAP), vec![250, 0, 0]);
    }

    #[test]
    fn flows_are_anchored_independently() {
        let mut trace = flow(&[0, 1_000, 2_000], 0);
        trace.extend(flow(&[400, 1_450, 2_400], 1));
        trace.sort();
        let errs = pace_errors(&trace, 2, GAP);
        // Trace order: (0,f0) (400,f1) (1000,f0) (1450,f1) (2000,f0) (2400,f1)
        assert_eq!(errs, vec![0, 0, 0, 50, 0, 0]);
    }
}
