//! A plain-text application format, so core graphs can live in files
//! next to the designs they describe.
//!
//! The format is line based:
//!
//! ```text
//! # VOPD-style application
//! core vld 2.5
//! core sdram 10.0 hard
//! traffic vld sdram 70.0
//! ```
//!
//! * `core <name> <area_mm2> [hard]` declares a core; `hard` marks a
//!   fixed-aspect block for the floorplanner.
//! * `traffic <src> <dst> <bandwidth_mbs>` declares a directed demand.
//! * `#` starts a comment; blank lines are ignored.
//!
//! # Examples
//!
//! ```
//! use sunmap_traffic::io;
//!
//! let text = "core a 2.0\ncore b 3.0\ntraffic a b 120.0\n";
//! let app = io::parse_app(text)?;
//! assert_eq!(app.core_count(), 2);
//! let round_trip = io::parse_app(&io::write_app(&app))?;
//! assert_eq!(round_trip, app);
//! # Ok::<(), sunmap_traffic::io::ParseAppError>(())
//! ```

use std::fmt::Write as _;

use crate::{CoreGraph, TrafficError};

/// Errors from parsing the application format.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseAppError {
    /// A line did not match any directive.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The offending word.
        word: String,
    },
    /// A directive had the wrong number of fields.
    WrongArity {
        /// 1-based line number.
        line: usize,
        /// The directive.
        directive: &'static str,
        /// Fields expected.
        expected: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The text that was not a number.
        text: String,
    },
    /// A traffic line referenced an undeclared core.
    UnknownCore {
        /// 1-based line number.
        line: usize,
        /// The unknown name.
        name: String,
    },
    /// A core name was declared twice.
    DuplicateCore {
        /// 1-based line number.
        line: usize,
        /// The duplicated name.
        name: String,
    },
    /// The underlying graph rejected a value (self-edge, non-positive
    /// bandwidth or area).
    Invalid {
        /// 1-based line number.
        line: usize,
        /// The graph-level error.
        source: TrafficError,
    },
}

impl std::fmt::Display for ParseAppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseAppError::UnknownDirective { line, word } => {
                write!(f, "line {line}: unknown directive '{word}'")
            }
            ParseAppError::WrongArity {
                line,
                directive,
                expected,
            } => write!(f, "line {line}: '{directive}' expects {expected} fields"),
            ParseAppError::BadNumber { line, text } => {
                write!(f, "line {line}: '{text}' is not a number")
            }
            ParseAppError::UnknownCore { line, name } => {
                write!(f, "line {line}: unknown core '{name}'")
            }
            ParseAppError::DuplicateCore { line, name } => {
                write!(f, "line {line}: core '{name}' declared twice")
            }
            ParseAppError::Invalid { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl std::error::Error for ParseAppError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseAppError::Invalid { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Parses the application format into a [`CoreGraph`].
///
/// # Errors
///
/// Returns a [`ParseAppError`] locating the first bad line.
pub fn parse_app(text: &str) -> Result<CoreGraph, ParseAppError> {
    let mut app = CoreGraph::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let fields: Vec<&str> = content.split_whitespace().collect();
        match fields[0] {
            "core" => {
                if fields.len() != 3 && !(fields.len() == 4 && fields[3] == "hard") {
                    return Err(ParseAppError::WrongArity {
                        line,
                        directive: "core",
                        expected: 3,
                    });
                }
                let name = fields[1];
                if app.core_by_name(name).is_some() {
                    return Err(ParseAppError::DuplicateCore {
                        line,
                        name: name.to_string(),
                    });
                }
                let area: f64 = fields[2].parse().map_err(|_| ParseAppError::BadNumber {
                    line,
                    text: fields[2].to_string(),
                })?;
                let soft = fields.len() == 3;
                app.try_add_core(name, area, soft)
                    .map_err(|source| ParseAppError::Invalid { line, source })?;
            }
            "traffic" => {
                if fields.len() != 4 {
                    return Err(ParseAppError::WrongArity {
                        line,
                        directive: "traffic",
                        expected: 4,
                    });
                }
                let src =
                    app.core_by_name(fields[1])
                        .ok_or_else(|| ParseAppError::UnknownCore {
                            line,
                            name: fields[1].to_string(),
                        })?;
                let dst =
                    app.core_by_name(fields[2])
                        .ok_or_else(|| ParseAppError::UnknownCore {
                            line,
                            name: fields[2].to_string(),
                        })?;
                let bw: f64 = fields[3].parse().map_err(|_| ParseAppError::BadNumber {
                    line,
                    text: fields[3].to_string(),
                })?;
                app.add_traffic(src, dst, bw)
                    .map_err(|source| ParseAppError::Invalid { line, source })?;
            }
            other => {
                return Err(ParseAppError::UnknownDirective {
                    line,
                    word: other.to_string(),
                })
            }
        }
    }
    Ok(app)
}

/// Serialises a [`CoreGraph`] into the application format; the output
/// round-trips through [`parse_app`].
pub fn write_app(app: &CoreGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} cores, {} flows",
        app.core_count(),
        app.edge_count()
    );
    for (_, core) in app.cores() {
        if core.soft {
            let _ = writeln!(out, "core {} {}", core.name, core.area);
        } else {
            let _ = writeln!(out, "core {} {} hard", core.name, core.area);
        }
    }
    for e in app.edges() {
        let _ = writeln!(
            out,
            "traffic {} {} {}",
            app.core(e.src).name,
            app.core(e.dst).name,
            e.bandwidth
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn benchmarks_round_trip() {
        for app in [
            benchmarks::vopd(),
            benchmarks::mpeg4(),
            benchmarks::dsp_filter(),
            benchmarks::network_processor(100.0),
        ] {
            let text = write_app(&app);
            let parsed = parse_app(&text).expect("serialised form parses");
            assert_eq!(parsed, app);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# header\ncore a 1.0   # trailing comment\n\ncore b 2.0\ntraffic a b 10\n";
        let app = parse_app(text).unwrap();
        assert_eq!(app.core_count(), 2);
        assert_eq!(app.total_traffic(), 10.0);
    }

    #[test]
    fn hard_cores_survive_round_trip() {
        let text = "core rom 4.0 hard\ncore cpu 2.0\ntraffic cpu rom 5\n";
        let app = parse_app(text).unwrap();
        let rom = app.core_by_name("rom").unwrap();
        assert!(!app.core(rom).soft);
        let again = parse_app(&write_app(&app)).unwrap();
        assert!(!again.core(again.core_by_name("rom").unwrap()).soft);
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(
            parse_app("core a 1.0\nbogus x\n"),
            Err(ParseAppError::UnknownDirective {
                line: 2,
                word: "bogus".to_string()
            })
        );
        assert_eq!(
            parse_app("core a not_a_number\n"),
            Err(ParseAppError::BadNumber {
                line: 1,
                text: "not_a_number".to_string()
            })
        );
        assert_eq!(
            parse_app("core a 1.0\ntraffic a ghost 5\n"),
            Err(ParseAppError::UnknownCore {
                line: 2,
                name: "ghost".to_string()
            })
        );
        assert_eq!(
            parse_app("core a 1.0\ncore a 2.0\n"),
            Err(ParseAppError::DuplicateCore {
                line: 2,
                name: "a".to_string()
            })
        );
        assert!(matches!(
            parse_app("core a 1.0\ncore b 1.0\ntraffic a b -5\n"),
            Err(ParseAppError::Invalid { line: 3, .. })
        ));
        // Each demand is finite, but their merged sum is not.
        assert_eq!(
            parse_app("core a 1.0\ncore b 1.0\ntraffic a b 1e308\ntraffic a b 1e308\n"),
            Err(ParseAppError::Invalid {
                line: 4,
                source: TrafficError::InvalidBandwidth(f64::INFINITY)
            })
        );
        assert!(matches!(
            parse_app("core a 1.0 extra_stuff\n"),
            Err(ParseAppError::WrongArity { line: 1, .. })
        ));
    }

    #[test]
    fn empty_input_is_an_empty_graph() {
        let app = parse_app("").unwrap();
        assert_eq!(app.core_count(), 0);
    }
}
