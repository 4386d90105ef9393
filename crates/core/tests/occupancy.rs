//! Every `Occupancy` index against a `BTreeSet` oracle.
//!
//! The bucket store calls an index only on a bucket's empty↔non-empty
//! transitions and asks for the next minimum right after the minimum
//! emptied; these scripts do exactly that, with random fills and clears
//! (minimum-only clears for the heap index, whose only legal clear is its
//! top). After every step the index must name the oracle's minimum, the
//! oracle's maximum wherever it has a max path, and — after a minimum
//! emptied — the next minimum through `next_after`. The approximate index
//! may name any occupied bucket as the minimum, except on a dense prefix,
//! where the paper's estimate is exact.

use std::collections::BTreeSet;

use proptest::prelude::*;

use eiffel_core::{ApproxIndex, ApproxParams, HeapIndex, HierBitmap, Occupancy};

const SIZES: [usize; 6] = [1, 63, 64, 65, 700, 4_097];

/// Asserts a minimum answer: the oracle minimum when `exact` or when the
/// oracle is a dense prefix `0..=m` (or empty); otherwise any occupied
/// bucket.
fn check_min(got: Option<usize>, oracle: &BTreeSet<usize>, exact: bool, what: &str) {
    let dense_prefix = oracle.last().map_or(0, |&m| m + 1) == oracle.len();
    if exact || dense_prefix {
        assert_eq!(got, oracle.first().copied(), "{what}");
    } else {
        assert!(
            got.is_some_and(|b| oracle.contains(&b)),
            "{what}: {got:?} is not occupied"
        );
    }
}

/// Runs `script` against `index` over `n` buckets. `has_max`: whether the
/// index has an exact max path; `random_clear`: whether any occupied
/// bucket may be cleared, or only the minimum; `exact`: whether minimum
/// answers are exact.
fn churn(
    mut index: impl Occupancy,
    n: usize,
    script: &[u64],
    has_max: bool,
    random_clear: bool,
    exact: bool,
) {
    let mut oracle = BTreeSet::new();
    for (step, &x) in script.iter().enumerate() {
        // Half the picks land in the first 70 buckets, so small sizes fill
        // densely and larger ones cross word and group boundaries.
        let window = if x & 0x100 == 0 { n.min(70) } else { n };
        let b = (x >> 9) as usize % window;
        if x % 8 < 5 {
            if oracle.insert(b) {
                index.set(b);
            } else if random_clear {
                oracle.remove(&b);
                index.clear(b);
            }
        } else if let Some(&m) = oracle.first() {
            oracle.remove(&m);
            index.clear(m);
            check_min(
                index.next_after(m),
                &oracle,
                exact,
                &format!("n {n} step {step}: next after emptied minimum {m}"),
            );
        }
        check_min(
            index.first_set(),
            &oracle,
            exact,
            &format!("n {n} step {step}: first_set"),
        );
        let want_max = if has_max {
            oracle.last().copied()
        } else {
            None
        };
        assert_eq!(index.last_set(), want_max, "n {n} step {step}: last_set");
    }
}

fn script() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 1..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn word_index_matches_oracle(s in script()) {
        for n in SIZES.into_iter().filter(|&n| n <= 64) {
            churn(0u64, n, &s, true, true, true);
        }
    }

    #[test]
    fn hier_bitmap_index_matches_oracle(s in script()) {
        for n in SIZES {
            churn(HierBitmap::new(n), n, &s, true, true, true);
        }
    }

    #[test]
    fn heap_index_matches_oracle_under_legal_transitions(s in script()) {
        for n in SIZES {
            churn(HeapIndex::default(), n, &s, false, false, true);
        }
    }

    #[test]
    fn approx_index_answers_occupied_buckets(s in script()) {
        for n in SIZES {
            churn(approx(n), n, &s, true, true, false);
        }
    }
}

fn approx(n: usize) -> ApproxIndex {
    ApproxIndex::new(n, ApproxParams::alpha_for_buckets(n))
}

/// The paper's exactness case at every size: a dense prefix, grown and
/// then shrunk from the top, always answers bucket 0.
#[test]
fn approx_index_is_exact_on_a_dense_prefix() {
    for n in SIZES {
        let mut index = approx(n);
        for b in 0..n {
            index.set(b);
            assert_eq!(index.first_set(), Some(0), "n {n} prefix 0..={b}");
        }
        for b in (1..n).rev() {
            index.clear(b);
            assert_eq!(index.min_for_pop(), Some(0), "n {n} prefix 0..{b}");
        }
    }
}
