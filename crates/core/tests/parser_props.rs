//! Property tests for the two request parsers every surface shares:
//! batch manifests and the `ExploreRequest` JSON form. Both are total.
//! Any manifest line soup parses or fails at a line it names (and the
//! lines before that one parse); a manifest that parses expands into
//! exactly its grid of jobs. Any request field soup parses or fails
//! with an error naming a field, and whatever parses serialises to
//! JSON that parses back to an equal request and the same bytes. A
//! misspelt probe subfield is refused by name, like a misspelt
//! top-level field.

use std::collections::BTreeSet;

use proptest::collection;
use proptest::prelude::*;

use sunmap::batch::{BatchManifest, ManifestError};
use sunmap::request::ExploreRequest;

/// Manifest directives: the six that remain, words that are no
/// directive (three of them removed ones), and a missing value.
const DIRECTIVES: &[&str] = &[
    "app",
    "app",
    "objective",
    "routing",
    "capacity",
    "constraints",
    "simulate",
    "engine",
    "table-prep",
    "swap",
    "frob",
    "#",
];

/// Values for any directive. The application spellings are the only
/// ones `app` lines get, so an expanded manifest never reads a file.
const VALUES: &[&str] = &[
    "power",
    "delay",
    "Area",
    "speed",
    "MP",
    "do",
    "XY",
    "1000",
    "500",
    "-5",
    "NaN",
    "1e999",
    "strict",
    "relaxed",
    "uniform 0.05",
    "tornado 0.1 2",
    "uniform 0.05 0",
    "warp 0.1",
    "uniform",
    "event",
    "lazy",
    "auto",
    "",
    "x # trailing comment",
];

/// The applications `app` lines name: cheap to resolve, all valid.
const APPS: &[&str] = &[
    "dsp",
    "vopd",
    "synth:seed=1,cores=4",
    "synth:seed=2,cores=5",
];

/// Top-level request keys, each with values that are mostly valid for
/// it: the six that remain (listed twice, so that many soups hold only
/// these), the three removed ones and a typo.
const FIELDS: &[(&str, &[&str])] = &[
    (
        "app",
        &["\"vopd\"", "\"synth:seed=3,cores=6\"", "\"synth:wat=1\""],
    ),
    ("objective", &["\"power\"", "\"Delay\"", "\"speed\""]),
    ("routing", &["\"SA\"", "\"do\"", "\"XY\""]),
    ("capacity", &["750", "0.125", "-1"]),
    ("constraints", &["\"relaxed\"", "\"strict\"", "\"loose\""]),
    ("probe", PROBES),
    ("objective", &["\"area\"", "\"bandwidth\""]),
    ("routing", &["\"MP\"", "\"sm\""]),
    ("capacity", &["1000", "1e3"]),
    ("constraints", &["\"strict\""]),
    ("probe", PROBES),
    ("swap", &["\"auto\"", "\"exhaustive\""]),
    ("engine", &["\"auto\"", "\"reference\""]),
    ("table_prep", &["\"auto\"", "\"lazy\""]),
    ("objectiv", &["\"delay\""]),
];

/// Values of the wrong type (or out of range) for any field.
const JUNK: &[&str] = &["0", "null", "true", "[]", "{}", "\"\""];

/// Misspellings of the three probe subfields (`pattern`, `rate`,
/// `top_k`), which `PROBES` plants next to valid ones.
const MISSPELT: &[&str] = &["top-k", "ratee", "Pattern", "topK"];

/// `probe` values, mostly objects with junk inside.
const PROBES: &[&str] = &[
    "null",
    "{\"pattern\":\"uniform\",\"rate\":0.1}",
    "{\"pattern\":\"Transpose\",\"rate\":0.25,\"top_k\":3}",
    "{\"pattern\":\"uniform\",\"rate\":0}",
    "{\"pattern\":\"uniform 0.2\",\"rate\":3}",
    "{\"pattern\":\"uniform 0.2\",\"rate\":0.1}",
    "{\"pattern\":\"uniform\",\"rate\":-0.5}",
    "{\"pattern\":\"uniform\",\"rate\":1e999}",
    "{\"pattern\":\"uniform\",\"rate\":0.1,\"top_k\":0}",
    "{\"pattern\":\"uniform\",\"rate\":0.1,\"top_k\":1.5}",
    "{\"pattern\":\"uniform\",\"rate\":0.1,\"top_k\":\"2\"}",
    "{\"pattern\":\"warp\",\"rate\":0.1}",
    "{\"pattern\":\"\",\"rate\":0.1}",
    "{\"pattern\":7,\"rate\":0.1}",
    "{\"pattern\":\"uniform\",\"rate\":\"fast\"}",
    "{\"rate\":0.1}",
    "\"uniform 0.1\"",
    "[]",
    "{\"pattern\":\"uniform\",\"rate\":0.05,\"top-k\":3}",
    "{\"pattern\":\"uniform\",\"rate\":0.05,\"ratee\":9}",
    "{\"Pattern\":\"uniform\",\"rate\":0.1}",
    "{\"pattern\":\"uniform\",\"rate\":0.1,\"top_k\":2,\"topK\":2}",
];

/// Documents that are JSON but not an object.
const NOT_OBJECTS: &[&str] = &["[]", "\"vopd\"", "null", "42"];

/// The 1-based line a manifest error names, if it names one.
fn error_line(e: &ManifestError) -> Option<usize> {
    match e {
        ManifestError::UnknownDirective { line, .. } | ManifestError::BadValue { line, .. } => {
            Some(*line)
        }
        _ => None,
    }
}

/// How many distinct values a manifest axis expands to (an empty axis
/// runs its one default).
fn axis_len<T: PartialEq>(axis: &[T]) -> usize {
    let mut seen: Vec<&T> = Vec::new();
    for v in axis {
        if !seen.contains(&v) {
            seen.push(v);
        }
    }
    seen.len().max(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn manifest_soup_never_panics_and_names_its_line(
        lines in collection::vec((0..DIRECTIVES.len(), 0..VALUES.len(), 0..APPS.len()), 0..10),
    ) {
        let text: String = lines
            .iter()
            .map(|&(d, v, a)| match DIRECTIVES[d] {
                "app" => format!("app {}\n", APPS[a]),
                word => format!("{word} {}\n", VALUES[v]),
            })
            .collect();
        let manifest = match BatchManifest::parse(&text) {
            Ok(manifest) => manifest,
            Err(e) => {
                // Every parse error names a line of the input, its text
                // starts `line N:`, and the lines before line N parse.
                let line = error_line(&e);
                prop_assert!(
                    line.is_some_and(|l| (1..=text.lines().count()).contains(&l)),
                    "{text}: {e} names no line of the input"
                );
                let line = line.unwrap();
                let prefix = format!("line {line}: ");
                prop_assert!(e.to_string().starts_with(&prefix), "{text}: {e}");
                let before: String =
                    text.lines().take(line - 1).map(|l| format!("{l}\n")).collect();
                let before = BatchManifest::parse(&before);
                prop_assert!(before.is_ok(), "{text}: {e}, yet the lines before fail: {before:?}");
                before.unwrap()
            }
        };
        // A parsed manifest of valid applications expands into exactly
        // its grid: one job per distinct app, capacity, objective,
        // routing and constraint regime, each carrying the probe.
        match manifest.jobs() {
            Err(ManifestError::NoApps) => prop_assert!(manifest.apps.is_empty()),
            Err(e) => prop_assert!(false, "{text}: valid apps failed to expand: {e}"),
            Ok(jobs) => {
                let grid = axis_len(&manifest.apps)
                    * axis_len(&manifest.capacities)
                    * axis_len(&manifest.objectives)
                    * axis_len(&manifest.routings)
                    * axis_len(&manifest.constraints);
                prop_assert!(jobs.len() == grid, "{text}: {} jobs, grid of {grid}", jobs.len());
                let ids: BTreeSet<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
                prop_assert!(ids.len() == jobs.len(), "{text}: job ids repeat");
                for job in &jobs {
                    prop_assert_eq!(&job.request.probe, &manifest.probe);
                }
            }
        }
    }

    #[test]
    fn request_field_soup_never_panics_and_round_trips(
        app in 0..10usize,
        fields in collection::vec((0..FIELDS.len(), 0..64usize, 0..JUNK.len() * 8), 0..6),
        shape in 0..40usize,
    ) {
        // Nine soups in ten lead with an `app`, so the other fields'
        // checks run; one value in eight is junk of the wrong type; one
        // document in ten is not an object.
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        if app < 9 {
            pairs.push(("app", FIELDS[0].1[app % 2]));
        }
        for &(f, v, junk) in &fields {
            let (key, values) = FIELDS[f];
            pairs.push((key, JUNK.get(junk).copied().unwrap_or(values[v % values.len()])));
        }
        let not_object = NOT_OBJECTS.get(shape);
        let object = |probe: Option<&str>| {
            let body: Vec<String> = pairs
                .iter()
                .map(|&(k, v)| match (k, probe) {
                    ("probe", Some(p)) => format!("\"{k}\":{p}"),
                    _ => format!("\"{k}\":{v}"),
                })
                .collect();
            format!("{{{}}}", body.join(","))
        };
        let text = match not_object {
            Some(doc) => doc.to_string(),
            None => object(None),
        };
        let keys: BTreeSet<&str> = pairs.iter().map(|(k, _)| *k).collect();
        // The probe that counts is the last one: a later key wins.
        let probe = pairs.iter().rev().find(|(k, _)| *k == "probe").map(|(_, v)| *v);
        let misspelt: Vec<&str> = MISSPELT
            .iter()
            .copied()
            .filter(|m| probe.is_some_and(|p| p.contains(&format!("\"{m}\""))))
            .collect();
        let removed = ["engine", "objectiv", "swap", "table_prep"];
        let unknown = removed.iter().find(|k| keys.contains(*k));
        match ExploreRequest::from_json(&text) {
            Err(e) if not_object.is_some() => {
                prop_assert_eq!(e, "request must be a JSON object");
            }
            Err(e) => {
                // The removed and misspelt fields fail by name, whatever
                // their value; every other error names a field of the
                // request, or of its probe, or the missing `app`.
                if let Some(key) = unknown {
                    prop_assert_eq!(e, format!("unknown request field '{key}'"));
                } else {
                    let probe_keys = ["pattern", "rate", "top_k"];
                    let named = keys.iter().any(|k| e.contains(k))
                        || (keys.contains("probe") && probe_keys.iter().any(|k| e.contains(k)))
                        || (!keys.contains("app") && e.contains("'app'"));
                    prop_assert!(named, "{text}: {e} names no field");
                }
                // A misspelt probe subfield is refused by name, unless
                // a field the parser reads before the probe fails
                // first: the same request without its probe shows which.
                if unknown.is_none() && !misspelt.is_empty() {
                    let refused =
                        misspelt.iter().any(|m| e == format!("unknown probe field '{m}'"));
                    match ExploreRequest::from_json(&object(Some("null"))) {
                        Ok(_) => prop_assert!(refused, "{text}: {e}"),
                        Err(other) => prop_assert!(refused || e == other, "{text}: {e} vs {other}"),
                    }
                }
            }
            Ok(req) => {
                prop_assert!(not_object.is_none() && unknown.is_none(), "{text} parsed");
                prop_assert!(misspelt.is_empty(), "{text} parsed despite {misspelt:?}");
                let json = req.to_json();
                let again = ExploreRequest::from_json(&json);
                prop_assert!(again.as_ref() == Ok(&req), "{text} -> {json} -> {again:?}");
                prop_assert_eq!(again.unwrap().to_json(), json);
            }
        }
    }
}
