//! The Figure 20 decision tree, as an executable function.
//!
//! §5.2 closes with "A Guide for Choosing a Priority Queue for Packet
//! Scheduling". Encoding it as code keeps the guidance testable. Only the
//! `fig20_guide` binary and the `quickstart` example call [`recommend`]
//! today: the policy compiler (`eiffel-pifo`) still hand-picks each node's
//! queue in `NodeProgram::queue_hint`, and routing that choice through this
//! function is ROADMAP item 17.

/// Characteristics of a scheduling algorithm, as asked by Figure 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UseCase {
    /// Does the policy rank over a *moving* range (deadlines, transmission
    /// times) rather than a fixed one (flow sizes, strict priority levels)?
    pub moving_range: bool,
    /// Number of distinct priority levels (buckets) the policy needs.
    pub priority_levels: usize,
    /// Are all priority levels expected to serve a similar number of
    /// packets (highly occupied levels)?
    pub uniform_occupancy: bool,
}

/// The paper's empirically determined threshold: "we found in our
/// experiments that this threshold is 1k and that the difference in
/// performance is not significant around the threshold" (§5.2).
const LEVEL_THRESHOLD: usize = 1_000;

/// Which queue to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recommendation {
    /// Few priority levels: "the choice of priority queue has little impact
    /// and for most scenarios a bucket-based queue might be overkill".
    AnyPriorityQueue,
    /// Fixed range: a (hierarchical) FFS-based queue is sufficient.
    FixedRangeFfs,
    /// Moving range, uneven occupancy: the circular hierarchical FFS queue.
    Cffs,
    /// Moving range, highly/uniformly occupied levels: the approximate
    /// gradient queue wins (by up to 9%, §5.2). Over a moving range that is
    /// [`crate::CircularApproxQueue`], two approximate queues behind one
    /// rotating window.
    ApproxGradient,
}

/// Walks the Figure 20 decision tree.
pub fn recommend(u: &UseCase) -> Recommendation {
    if !u.moving_range {
        // Left branch: fixed range of priority values.
        if u.priority_levels <= LEVEL_THRESHOLD {
            Recommendation::AnyPriorityQueue
        } else {
            Recommendation::FixedRangeFfs
        }
    } else if u.priority_levels <= LEVEL_THRESHOLD {
        Recommendation::AnyPriorityQueue
    } else if u.uniform_occupancy {
        Recommendation::ApproxGradient
    } else {
        Recommendation::Cffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four canonical examples the paper attaches to each leaf.
    #[test]
    fn paper_examples_map_to_expected_leaves() {
        // "job remaining time [pFabric]" — fixed range, many levels → FFS.
        let pfabric = UseCase {
            moving_range: false,
            priority_levels: 100_000,
            uniform_occupancy: false,
        };
        assert_eq!(recommend(&pfabric), Recommendation::FixedRangeFfs);

        // "rate limiting with a wide range of limits [Carousel]" — moving
        // range, uneven levels → cFFS.
        let shaping = UseCase {
            moving_range: true,
            priority_levels: 20_000,
            uniform_occupancy: false,
        };
        assert_eq!(recommend(&shaping), Recommendation::Cffs);

        // "Least Slack Time-based or hierarchical-based schedules" — moving
        // range, highly occupied levels → approximate queue.
        let lstf = UseCase {
            moving_range: true,
            priority_levels: 10_000,
            uniform_occupancy: true,
        };
        assert_eq!(recommend(&lstf), Recommendation::ApproxGradient);

        // 8-level strict priority (802.1Q) — below the 1k threshold.
        let strict = UseCase {
            moving_range: false,
            priority_levels: 8,
            uniform_occupancy: false,
        };
        assert_eq!(recommend(&strict), Recommendation::AnyPriorityQueue);
    }

    #[test]
    fn threshold_boundary() {
        let mut u = UseCase {
            moving_range: true,
            priority_levels: LEVEL_THRESHOLD,
            uniform_occupancy: false,
        };
        assert_eq!(recommend(&u), Recommendation::AnyPriorityQueue);
        u.priority_levels += 1;
        assert_eq!(recommend(&u), Recommendation::Cffs);
    }
}
