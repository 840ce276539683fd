//! Property tests: the `.app` parser is total. Any line soup either
//! parses or fails at a line it names, and then the lines before that
//! one parse. Whatever parses has only finite, positive areas and
//! bandwidths, and its `write_app` text parses back to an equal graph
//! that writes the same bytes again.

use proptest::collection;
use proptest::prelude::*;

use sunmap_traffic::io::{parse_app, write_app};

/// Declares the two cores most line shapes name.
const PREAMBLE: &str = "core a 2\ncore b 3 hard\n";

/// Line shapes, `{}` standing for a number. `traffic a b` repeats, so
/// parallel demands merge often; `traffic b c` before `core c`, and a
/// second `core c`, fail.
const SHAPES: &[&str] = &[
    "traffic a b {}",
    "traffic a b {}",
    "traffic b a {}",
    "traffic b c {}",
    "core c {}",
    "core d {} hard # comment",
    "# traffic a ghost {}",
    "",
];

/// Valid areas and bandwidths at the range edges: a subnormal, a value
/// whose double overflows, and the largest finite float.
const NUMBERS: &[&str] = &["1", "2.5", "5e-324", "1e308", "1.7976931348623157e308"];

/// Lines that fail on their own: a negative zero, an infinity, a NaN, a
/// junk number, a duplicate core, a self-edge, an unknown core, a stray
/// field and an unknown directive. The blank line is no fault at all.
const FAULTS: &[&str] = &[
    "core f -0",
    "core f inf",
    "traffic a b NaN",
    "traffic a b x",
    "core a 1",
    "traffic a a 1",
    "traffic a ghost 1",
    "traffic a b 1 extra",
    "cores f 1",
    "",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn line_soup_never_panics_and_round_trips(
        lines in collection::vec((0..SHAPES.len(), 0..NUMBERS.len()), 0..10),
        (at, fault) in (0usize..10, 0..FAULTS.len()),
    ) {
        // Parsing stops at the first bad line, so one fault per soup
        // reaches every error path.
        let mut body: Vec<String> =
            lines.iter().map(|&(s, n)| SHAPES[s].replace("{}", NUMBERS[n])).collect();
        body.insert(at.min(body.len()), FAULTS[fault].to_string());
        let text = format!("{PREAMBLE}{}\n", body.join("\n"));
        let app = match parse_app(&text) {
            Ok(app) => app,
            Err(e) => {
                // Every error's text starts `line N:`, and the lines
                // before line N parse.
                let line: Option<usize> = e.to_string().strip_prefix("line ")
                    .and_then(|rest| rest.split(':').next()?.parse().ok());
                prop_assert!(
                    line.is_some_and(|l| (1..=text.lines().count()).contains(&l)),
                    "{text}: {e} names no line of the input"
                );
                let before: String =
                    text.lines().take(line.unwrap() - 1).map(|l| format!("{l}\n")).collect();
                let before = parse_app(&before);
                prop_assert!(before.is_ok(), "{text}: {e}, yet the lines before fail: {before:?}");
                before.unwrap()
            }
        };
        let areas = app.cores().map(|(_, core)| core.area);
        for value in areas.chain(app.edges().iter().map(|e| e.bandwidth)) {
            prop_assert!(value.is_finite() && value > 0.0, "{text}: area or bandwidth {value}");
        }
        let written = write_app(&app);
        let reparsed = parse_app(&written);
        prop_assert_eq!(reparsed, Ok(app.clone()));
        prop_assert_eq!(write_app(&reparsed.unwrap()), written);
    }
}
