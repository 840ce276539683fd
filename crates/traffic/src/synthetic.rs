//! Seeded synthetic core-graph generation.
//!
//! The paper evaluates SUNMAP on four hand-transcribed benchmarks;
//! scaling the flow to a *corpus* of workloads needs applications on
//! demand. A [`SyntheticSpec`] describes one: core count, traffic
//! locality, hotspot skew and a log-uniform bandwidth distribution,
//! all expanded deterministically from a `u64` seed — the same spec
//! always yields the same [`CoreGraph`], bit for bit, so batch runs
//! over synthetic workloads are reproducible and shardable.
//!
//! Specs round-trip through a compact text form accepted anywhere an
//! application name is (CLI positionals, batch manifests):
//!
//! ```text
//! synth:seed=7,cores=32,locality=0.7,hotspot=0.2
//! ```
//!
//! # Examples
//!
//! ```
//! use sunmap_traffic::synthetic::SyntheticSpec;
//!
//! let spec: SyntheticSpec = "synth:seed=7,cores=24".parse()?;
//! let app = spec.generate();
//! assert_eq!(app.core_count(), 24);
//! // Deterministic: re-generating from the same spec is identical.
//! assert_eq!(app, spec.generate());
//! # Ok::<(), sunmap_traffic::synthetic::ParseSpecError>(())
//! ```

use std::str::FromStr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::CoreGraph;

/// Largest supported synthetic core count (a 64×64 grid of switches is
/// already far beyond the topology sizes the library targets).
pub const MAX_CORES: usize = 4096;

/// Parameters of one synthetic application.
///
/// Construct via [`SyntheticSpec::new`] + builder-style setters or
/// parse from the `synth:key=value,...` text form; both validate.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// RNG seed; everything else equal, distinct seeds give distinct
    /// traffic.
    pub seed: u64,
    /// Number of cores (2..=[`MAX_CORES`]).
    pub cores: usize,
    /// Traffic locality in `[0, 1]`: `0` spreads destinations over the
    /// whole id space, `1` confines them to immediate neighbours.
    pub locality: f64,
    /// Hotspot skew in `[0, 1]`: the probability that a flow is
    /// redirected to the designated hotspot core (core 0), modelling
    /// shared-memory contention.
    pub hotspot: f64,
    /// Outgoing flows drawn per core (each may merge with an existing
    /// parallel demand, so the realised edge count can be lower).
    pub degree: usize,
    /// Lower end of the log-uniform bandwidth distribution (MB/s).
    pub min_bandwidth: f64,
    /// Upper end of the log-uniform bandwidth distribution (MB/s).
    pub max_bandwidth: f64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            seed: 1,
            cores: 16,
            locality: 0.5,
            hotspot: 0.0,
            degree: 3,
            min_bandwidth: 25.0,
            max_bandwidth: 400.0,
        }
    }
}

/// Errors from [`SyntheticSpec`] validation and parsing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseSpecError {
    /// The text did not start with the `synth:` prefix.
    MissingPrefix,
    /// A `key=value` item was malformed.
    BadItem(String),
    /// An unknown parameter key.
    UnknownKey(String),
    /// A parameter key appeared more than once. Silently letting the
    /// last occurrence win would make typos like
    /// `synth:seed=1,seed=2` unreproducible surprises, so duplicates
    /// are rejected like unknown keys are.
    DuplicateKey(String),
    /// A value failed to parse as its parameter's type.
    BadValue {
        /// The parameter key.
        key: &'static str,
        /// The offending text.
        text: String,
    },
    /// A parameter is outside its valid range.
    OutOfRange {
        /// The parameter key.
        key: &'static str,
        /// Human-readable valid range.
        range: &'static str,
    },
}

impl std::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseSpecError::MissingPrefix => {
                write!(f, "synthetic spec must start with 'synth:'")
            }
            ParseSpecError::BadItem(item) => {
                write!(f, "'{item}' is not a key=value parameter")
            }
            ParseSpecError::UnknownKey(key) => write!(
                f,
                "unknown synthetic parameter '{key}' (valid: {})",
                SyntheticSpec::KEYS.join(", ")
            ),
            ParseSpecError::DuplicateKey(key) => write!(
                f,
                "duplicate synthetic parameter '{key}' (each of {} may \
                 appear at most once)",
                SyntheticSpec::KEYS.join(", ")
            ),
            ParseSpecError::BadValue { key, text } => {
                write!(f, "'{text}' is not a valid value for '{key}'")
            }
            ParseSpecError::OutOfRange { key, range } => {
                write!(f, "'{key}' must be in {range}")
            }
        }
    }
}

impl std::error::Error for ParseSpecError {}

impl SyntheticSpec {
    /// The valid `synth:` parameter keys, in canonical order — listed
    /// in parse errors the way [`crate::patterns::TrafficPattern::NAMES`]
    /// backs the pattern parser's messages.
    pub const KEYS: [&'static str; 7] = [
        "seed", "cores", "locality", "hotspot", "degree", "bwmin", "bwmax",
    ];

    /// A spec with the default shape (16 cores, locality 0.5, no
    /// hotspot) under the given seed.
    pub fn new(seed: u64) -> Self {
        SyntheticSpec {
            seed,
            ..SyntheticSpec::default()
        }
    }

    /// Validates all parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseSpecError::OutOfRange`] violation.
    pub fn validate(&self) -> Result<(), ParseSpecError> {
        let range = |ok: bool, key: &'static str, range: &'static str| {
            if ok {
                Ok(())
            } else {
                Err(ParseSpecError::OutOfRange { key, range })
            }
        };
        range((2..=MAX_CORES).contains(&self.cores), "cores", "2..=4096")?;
        range(
            (0.0..=1.0).contains(&self.locality),
            "locality",
            "0.0..=1.0",
        )?;
        range((0.0..=1.0).contains(&self.hotspot), "hotspot", "0.0..=1.0")?;
        range((1..=64).contains(&self.degree), "degree", "1..=64")?;
        range(
            self.min_bandwidth.is_finite() && self.min_bandwidth > 0.0,
            "bwmin",
            "positive finite MB/s",
        )?;
        range(
            self.max_bandwidth.is_finite() && self.max_bandwidth >= self.min_bandwidth,
            "bwmax",
            "bwmin..=finite MB/s",
        )?;
        // A draw scales bwmin by a power of bwmax/bwmin, and one edge
        // merges up to `degree` draws of at most bwmax each. Both must
        // stay finite, with headroom far above the few ulps the draw
        // and the merge sum can round up by, or `generate` could yield
        // an infinite bandwidth.
        range(
            (self.max_bandwidth / self.min_bandwidth).is_finite(),
            "bwmax",
            "a finite multiple of bwmin",
        )?;
        range(
            (self.max_bandwidth * self.degree as f64 * (1.0 + 1e-9)).is_finite(),
            "bwmax",
            "MB/s small enough that degree x bwmax is finite",
        )?;
        Ok(())
    }

    /// Whether `text` looks like a synthetic spec (has the `synth:`
    /// prefix, or is exactly `synth`).
    pub fn is_spec(text: &str) -> bool {
        text == "synth" || text.starts_with("synth:")
    }

    /// Expands the spec into its core graph. Deterministic: the same
    /// spec always produces the same graph.
    ///
    /// Core areas cycle over a small set of 0.1 µm-era block sizes with
    /// a seeded jitter; every core draws [`SyntheticSpec::degree`]
    /// outgoing flows whose destinations follow the locality window
    /// (and are diverted to the hotspot core with probability
    /// [`SyntheticSpec::hotspot`]) and whose bandwidths are log-uniform
    /// in `[min_bandwidth, max_bandwidth]`.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not [`SyntheticSpec::validate`].
    pub fn generate(&self) -> CoreGraph {
        self.validate().expect("synthetic spec must be valid");
        let n = self.cores;
        // The seed stream covers every parameter, so two specs
        // differing in any field draw from different streams.
        let mut rng = SmallRng::seed_from_u64(
            self.seed
                ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.locality.to_bits().rotate_left(17)
                ^ self.hotspot.to_bits().rotate_left(31)
                ^ (self.degree as u64).rotate_left(47)
                ^ self.min_bandwidth.to_bits().rotate_left(7)
                ^ self.max_bandwidth.to_bits().rotate_left(53),
        );
        let mut g = CoreGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                // Block sizes between 1 and ~10 mm², memory-ish blocks
                // larger, matching the seed benchmarks' spread.
                let base = [2.0, 2.5, 3.0, 4.0, 6.0, 8.0][i % 6];
                let area = base * rng.gen_range(0.8..1.25);
                g.add_core(format!("s{i}"), area)
            })
            .collect();
        // Locality 1.0 keeps destinations adjacent; 0.0 lets them reach
        // anywhere. The window is how far (in id space, both ways) a
        // flow may travel.
        let window = (((1.0 - self.locality) * (n - 1) as f64).round() as usize).max(1);
        for src in 0..n {
            for _ in 0..self.degree {
                let dst = if self.hotspot > 0.0 && rng.gen_bool(self.hotspot) && src != 0 {
                    0
                } else {
                    let offset = rng.gen_range(1..=window);
                    let forward = rng.gen_bool(0.5);
                    if forward {
                        (src + offset) % n
                    } else {
                        (src + n - (offset % n)) % n
                    }
                };
                if dst == src {
                    continue;
                }
                // Log-uniform bandwidth: heavy flows are rare, light
                // flows common, like the benchmark histograms.
                let u: f64 = rng.gen_range(0.0..1.0);
                let bw = self.min_bandwidth * (self.max_bandwidth / self.min_bandwidth).powf(u);
                g.add_traffic(ids[src], ids[dst], bw)
                    .expect("generated flows are valid");
            }
        }
        g
    }

    /// Canonical text form (`synth:seed=..,cores=..,...`), parseable by
    /// [`SyntheticSpec::from_str`]. Only parameters differing from the
    /// defaults are listed, so `SyntheticSpec::new(7)` prints as
    /// `synth:seed=7`.
    pub fn spec_string(&self) -> String {
        let d = SyntheticSpec::default();
        let mut items = vec![format!("seed={}", self.seed)];
        if self.cores != d.cores {
            items.push(format!("cores={}", self.cores));
        }
        if self.locality != d.locality {
            items.push(format!("locality={}", self.locality));
        }
        if self.hotspot != d.hotspot {
            items.push(format!("hotspot={}", self.hotspot));
        }
        if self.degree != d.degree {
            items.push(format!("degree={}", self.degree));
        }
        if self.min_bandwidth != d.min_bandwidth {
            items.push(format!("bwmin={}", self.min_bandwidth));
        }
        if self.max_bandwidth != d.max_bandwidth {
            items.push(format!("bwmax={}", self.max_bandwidth));
        }
        format!("synth:{}", items.join(","))
    }
}

impl std::fmt::Display for SyntheticSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec_string())
    }
}

impl FromStr for SyntheticSpec {
    type Err = ParseSpecError;

    /// Parses `synth:key=value,...`. Unlisted parameters keep their
    /// defaults; `synth` alone is the default spec.
    fn from_str(text: &str) -> Result<Self, ParseSpecError> {
        let body = if text == "synth" {
            ""
        } else {
            text.strip_prefix("synth:")
                .ok_or(ParseSpecError::MissingPrefix)?
        };
        let mut spec = SyntheticSpec::default();
        let mut seen = [false; SyntheticSpec::KEYS.len()];
        for item in body.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| ParseSpecError::BadItem(item.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            if let Some(slot) = SyntheticSpec::KEYS.iter().position(|k| *k == key) {
                if seen[slot] {
                    return Err(ParseSpecError::DuplicateKey(key.to_string()));
                }
                seen[slot] = true;
            }
            fn parse<T: FromStr>(key: &'static str, value: &str) -> Result<T, ParseSpecError> {
                value.parse().map_err(|_| ParseSpecError::BadValue {
                    key,
                    text: value.to_string(),
                })
            }
            match key {
                "seed" => spec.seed = parse("seed", value)?,
                "cores" => spec.cores = parse("cores", value)?,
                "locality" => spec.locality = parse("locality", value)?,
                "hotspot" => spec.hotspot = parse("hotspot", value)?,
                "degree" => spec.degree = parse("degree", value)?,
                "bwmin" => spec.min_bandwidth = parse("bwmin", value)?,
                "bwmax" => spec.max_bandwidth = parse("bwmax", value)?,
                other => return Err(ParseSpecError::UnknownKey(other.to_string())),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_spec() {
        let spec = SyntheticSpec {
            seed: 42,
            cores: 32,
            locality: 0.7,
            hotspot: 0.15,
            ..SyntheticSpec::default()
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.core_count(), 32);
        assert!(a.edge_count() > 0);
    }

    #[test]
    fn seeds_and_parameters_change_the_graph() {
        let base = SyntheticSpec::new(1);
        let other_seed = SyntheticSpec::new(2);
        assert_ne!(base.generate(), other_seed.generate());
        let other_locality = SyntheticSpec {
            locality: 0.95,
            ..base.clone()
        };
        assert_ne!(base.generate(), other_locality.generate());
    }

    #[test]
    fn locality_confines_flows_to_neighbours() {
        let spec = SyntheticSpec {
            seed: 9,
            cores: 64,
            locality: 1.0,
            ..SyntheticSpec::default()
        };
        let g = spec.generate();
        for e in g.edges() {
            let (s, d) = (e.src.index() as i64, e.dst.index() as i64);
            let dist = (s - d).rem_euclid(64).min((d - s).rem_euclid(64));
            assert_eq!(dist, 1, "flow {s}->{d} is not neighbour-local");
        }
    }

    #[test]
    fn hotspot_skew_concentrates_on_core_zero() {
        let spec = SyntheticSpec {
            seed: 3,
            cores: 32,
            hotspot: 0.9,
            degree: 4,
            ..SyntheticSpec::default()
        };
        let g = spec.generate();
        let to_hot: f64 = g
            .edges()
            .iter()
            .filter(|e| e.dst.index() == 0)
            .map(|e| e.bandwidth)
            .sum();
        assert!(
            to_hot > g.total_traffic() * 0.5,
            "hotspot received only {to_hot} of {}",
            g.total_traffic()
        );
    }

    #[test]
    fn bandwidths_stay_inside_the_distribution() {
        let spec = SyntheticSpec {
            seed: 5,
            cores: 24,
            min_bandwidth: 50.0,
            max_bandwidth: 200.0,
            ..SyntheticSpec::default()
        };
        let g = spec.generate();
        for e in g.edges() {
            // Parallel demands accumulate, so the per-edge total may
            // exceed max_bandwidth; the floor always holds.
            assert!(e.bandwidth >= 50.0, "{} too light", e.bandwidth);
            assert!(
                e.bandwidth <= 200.0 * spec.degree as f64,
                "{} beyond accumulation bound",
                e.bandwidth
            );
        }
    }

    #[test]
    fn spec_string_round_trips() {
        let specs = [
            SyntheticSpec::default(),
            SyntheticSpec::new(77),
            SyntheticSpec {
                seed: 8,
                cores: 48,
                locality: 0.25,
                hotspot: 0.4,
                degree: 5,
                min_bandwidth: 10.0,
                max_bandwidth: 900.0,
            },
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: SyntheticSpec = text.parse().unwrap();
            assert_eq!(parsed, spec, "{text} did not round-trip");
        }
    }

    #[test]
    fn parse_accepts_partial_specs_and_plain_synth() {
        let spec: SyntheticSpec = "synth".parse().unwrap();
        assert_eq!(spec, SyntheticSpec::default());
        let spec: SyntheticSpec = "synth:cores=20, seed=4".parse().unwrap();
        assert_eq!(spec.cores, 20);
        assert_eq!(spec.seed, 4);
        assert_eq!(spec.locality, SyntheticSpec::default().locality);
        assert!(SyntheticSpec::is_spec("synth:seed=1"));
        assert!(!SyntheticSpec::is_spec("vopd"));
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert_eq!(
            "vopd".parse::<SyntheticSpec>(),
            Err(ParseSpecError::MissingPrefix)
        );
        assert!(matches!(
            "synth:cores".parse::<SyntheticSpec>(),
            Err(ParseSpecError::BadItem(_))
        ));
        assert!(matches!(
            "synth:wat=3".parse::<SyntheticSpec>(),
            Err(ParseSpecError::UnknownKey(_))
        ));
        assert!(matches!(
            "synth:cores=x".parse::<SyntheticSpec>(),
            Err(ParseSpecError::BadValue { key: "cores", .. })
        ));
        assert!(matches!(
            "synth:cores=1".parse::<SyntheticSpec>(),
            Err(ParseSpecError::OutOfRange { key: "cores", .. })
        ));
        assert!(matches!(
            "synth:locality=1.5".parse::<SyntheticSpec>(),
            Err(ParseSpecError::OutOfRange {
                key: "locality",
                ..
            })
        ));
        assert!(matches!(
            "synth:bwmax=1".parse::<SyntheticSpec>(),
            Err(ParseSpecError::OutOfRange { key: "bwmax", .. })
        ));
    }

    #[test]
    fn specs_that_could_overflow_a_bandwidth_are_rejected() {
        // Each of these used to validate and then panic in `generate`
        // (or could, for an unlucky seed) on an infinite bandwidth.
        for text in [
            "synth:seed=1,cores=4,bwmin=1e-300,bwmax=1e300",
            "synth:seed=1,cores=4,bwmin=1e-320,bwmax=1",
            "synth:bwmin=0.5,bwmax=1.7976931348623157e308",
            "synth:degree=2,bwmin=1e308,bwmax=1e308",
        ] {
            assert!(
                matches!(
                    text.parse::<SyntheticSpec>(),
                    Err(ParseSpecError::OutOfRange { key: "bwmax", .. })
                ),
                "{text} must be rejected"
            );
        }
        // The largest specs that cannot overflow still generate.
        for text in [
            "synth:degree=1,bwmin=1e308,bwmax=1e308",
            "synth:bwmin=1e-300,bwmax=1e7",
        ] {
            let app = text.parse::<SyntheticSpec>().expect(text).generate();
            assert!(
                app.edges().iter().all(|e| e.bandwidth.is_finite()),
                "{text}"
            );
        }
    }

    #[test]
    fn error_messages_name_the_problem() {
        let e = "synth:wat=3".parse::<SyntheticSpec>().unwrap_err();
        assert!(e.to_string().contains("unknown synthetic parameter"));
        let e = "synth:cores=1".parse::<SyntheticSpec>().unwrap_err();
        assert!(e.to_string().contains("2..=4096"));
    }

    #[test]
    fn duplicate_keys_are_rejected_with_the_key_list() {
        for spec in [
            "synth:seed=1,seed=2",
            "synth:cores=8,locality=0.5,cores=16",
            "synth:bwmin=10, bwmin=20",
        ] {
            let err = spec.parse::<SyntheticSpec>().unwrap_err();
            assert!(
                matches!(&err, ParseSpecError::DuplicateKey(_)),
                "{spec}: {err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains("duplicate synthetic parameter"), "{msg}");
            for key in SyntheticSpec::KEYS {
                assert!(msg.contains(key), "message must list '{key}': {msg}");
            }
        }
        // A duplicate *unknown* key still reports the unknown key.
        assert!(matches!(
            "synth:wat=1,wat=2".parse::<SyntheticSpec>(),
            Err(ParseSpecError::UnknownKey(_))
        ));
        // Unknown-key errors list the valid keys too.
        let msg = "synth:wat=1"
            .parse::<SyntheticSpec>()
            .unwrap_err()
            .to_string();
        for key in SyntheticSpec::KEYS {
            assert!(msg.contains(key), "message must list '{key}': {msg}");
        }
    }
}
