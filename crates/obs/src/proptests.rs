//! Property tests for histogram snapshots: merge forms a commutative
//! monoid over snapshots, quantiles stay inside the recorded value range,
//! and quantile estimates never under-report the true rank statistic. The
//! exposition parser refuses hostile text without panicking.

use crate::{parse, Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Hostile exposition text of up to 4 KiB: runs of the format's syntax
/// bytes, line prefixes, printable ASCII and 2-, 3- and 4-byte characters.
fn arb_hostile_text() -> impl Strategy<Value = String> {
    let run = prop_oneof![
        "[{}\",=# \n\\\\x0-9.+-]{1,8}",
        "[ -~]{1,16}",
        "[\u{80}-\u{9F}\u{7F0}-\u{7FF}é]{1,8}",
        "[\u{800}-\u{80F}\u{FFF0}-\u{FFFD}€]{1,8}",
        "[\u{10000}-\u{1000F}\u{1F600}-\u{1F60F}\u{10FFF0}-\u{10FFFF}]{1,8}",
        prop_oneof![
            Just("# HELP ".to_string()),
            Just("# TYPE ".to_string()),
            Just("x{a=\"".to_string()),
            Just("\"} ".to_string()),
            Just("NaN".to_string()),
            Just("+Inf".to_string()),
        ],
    ];
    proptest::collection::vec(run, 0..512).prop_map(|runs| {
        let mut s = String::new();
        for run in runs {
            if s.len() + run.len() > 4096 {
                break;
            }
            s.push_str(&run);
        }
        s
    })
}

fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    // Mix magnitudes so samples cross many octaves.
    proptest::collection::vec(
        prop_oneof![0u64..16, 16u64..4096, 4096u64..u64::MAX / 2],
        0..64,
    )
}

fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_commutative(a in arb_samples(), b in arb_samples()) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
    }

    #[test]
    fn merge_is_associative(
        a in arb_samples(),
        b in arb_samples(),
        c in arb_samples(),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        prop_assert_eq!(sa.merge(&sb).merge(&sc), sa.merge(&sb.merge(&sc)));
    }

    #[test]
    fn empty_is_merge_identity(a in arb_samples()) {
        let sa = snapshot_of(&a);
        prop_assert_eq!(sa.merge(&HistogramSnapshot::empty()), sa.clone());
        prop_assert_eq!(HistogramSnapshot::empty().merge(&sa), sa);
    }

    #[test]
    fn merge_equals_recording_union(a in arb_samples(), b in arb_samples()) {
        let merged = snapshot_of(&a).merge(&snapshot_of(&b));
        let mut union = a.clone();
        union.extend_from_slice(&b);
        prop_assert_eq!(merged, snapshot_of(&union));
    }

    /// Quantiles never regress below the recorded minimum (or above the
    /// maximum), for every snapshot and every probed quantile — including
    /// after merges.
    #[test]
    fn quantiles_stay_in_recorded_range(
        a in arb_samples(),
        b in arb_samples(),
        q in 0.0f64..=1.0,
    ) {
        for snap in [snapshot_of(&a), snapshot_of(&a).merge(&snapshot_of(&b))] {
            let est = snap.quantile(q);
            if let (Some(min), Some(max)) = (snap.min(), snap.max()) {
                prop_assert!(est >= min, "quantile {} below min {}", est, min);
                prop_assert!(est <= max, "quantile {} above max {}", est, max);
            } else {
                prop_assert_eq!(est, 0);
            }
        }
    }

    #[test]
    fn exposition_parser_never_panics_on_arbitrary_input(s in arb_hostile_text()) {
        // Errors are fine; panics are not.
        let _ = parse::parse(&s);
    }

    /// The estimate at quantile `q` is an upper bound for the true rank
    /// statistic of the recorded samples (the histogram reports bucket
    /// upper bounds, so it may over- but never under-estimate).
    #[test]
    fn quantile_bounds_true_rank(
        mut a in proptest::collection::vec(0u64..u64::MAX / 2, 1..64),
        q in 0.0f64..=1.0,
    ) {
        let snap = snapshot_of(&a);
        a.sort_unstable();
        let rank = ((q * a.len() as f64).ceil() as usize).clamp(1, a.len());
        let truth = a[rank - 1];
        prop_assert!(snap.quantile(q) >= truth);
    }
}
