//! Property tests: the `synth:` spec parser and generator are total —
//! any key/value soup either fails to parse or generates a graph with
//! only finite, positive bandwidths, without panicking — and every
//! valid spec's canonical text parses back to an equal spec that
//! generates an equal graph.

use proptest::collection;
use proptest::prelude::*;

use sunmap_traffic::synthetic::SyntheticSpec;

/// Keys: every real one, near misses, and an empty key.
const KEYS: &[&str] = &[
    "seed", "cores", "locality", "hotspot", "degree", "bwmin", "bwmax", "wat", "", " seed",
];

/// Values chosen to hit every range edge: zero, negative zero,
/// subnormals, the largest finite floats, infinities and NaN, integer
/// overflow, and junk. Core counts stay small so generation is quick.
/// Negative zero repeats, so that it lands on `hotspot` in a valid spec.
const VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "40",
    "64",
    "65",
    "-1",
    "-0",
    "-0",
    "-0",
    "0.5",
    "1.0",
    "1.5",
    "1e-300",
    "1e300",
    "1e-320",
    "5e-324",
    "1e308",
    "1.7976931348623157e308",
    "inf",
    "-inf",
    "NaN",
    "18446744073709551616",
    "x",
    "",
];

/// What joins a key to its value, and an item to the next: mostly the
/// real separators (so many soups parse and reach `generate`), plus the
/// malformed ones a typo makes.
const JOINERS: &[&str] = &["=", "=", "=", "=", "==", ""];
const SEPARATORS: &[&str] = &[",", ",", ",", ", ", ",,", ";"];

fn soup(items: &[(usize, usize, usize, usize)]) -> String {
    let body: String = items
        .iter()
        .map(|&(k, j, v, s)| [KEYS[k], JOINERS[j], VALUES[v], SEPARATORS[s]].concat())
        .collect();
    format!("synth:{body}")
}

fn generates_finite_bandwidths(spec: &SyntheticSpec) -> TestCaseResult {
    for e in spec.generate().edges() {
        prop_assert!(
            e.bandwidth.is_finite() && e.bandwidth > 0.0,
            "{spec}: bandwidth {} on {:?}->{:?}",
            e.bandwidth,
            e.src,
            e.dst
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn key_value_soup_never_panics(
        items in collection::vec(
            (0..KEYS.len(), 0..JOINERS.len(), 0..VALUES.len(), 0..SEPARATORS.len()),
            0..6,
        )
    ) {
        if let Ok(spec) = soup(&items).parse::<SyntheticSpec>() {
            generates_finite_bandwidths(&spec)?;
            let reparsed = spec.spec_string().parse::<SyntheticSpec>();
            prop_assert_eq!(reparsed, Ok(spec.clone()));
            prop_assert_eq!(reparsed.unwrap().generate(), spec.generate());
        }
    }

    #[test]
    fn valid_specs_round_trip_through_their_text(
        seed in 0u64..u64::MAX,
        cores in 2usize..=48,
        locality in 0.0f64..1.0,
        hotspot in 0.0f64..1.0,
        degree in 1usize..=64,
        lo_exp in -330.0f64..330.0,
        span_exp in 0.0f64..330.0,
    ) {
        let spec = SyntheticSpec {
            seed,
            cores,
            locality,
            hotspot,
            degree,
            min_bandwidth: 10f64.powf(lo_exp),
            max_bandwidth: 10f64.powf(lo_exp + span_exp),
        };
        let parsed = spec.spec_string().parse::<SyntheticSpec>();
        match spec.validate() {
            Ok(()) => {
                prop_assert_eq!(parsed, Ok(spec.clone()));
                generates_finite_bandwidths(&spec)?;
            }
            Err(e) => prop_assert_eq!(parsed, Err(e)),
        }
    }
}
