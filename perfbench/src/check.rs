//! Output checks: digests of every operation's output compared against
//! results pinned in `pins.txt`, and the count of operations attempted
//! and failed.

use std::collections::BTreeMap;

/// Pinned output digests, one `<key> <hex digest>` per line.
const PINS: &str = include_str!("../pins.txt");

/// FNV-1a 64-bit digest of `text`.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a pin lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pin {
    /// The output matches its pin.
    Match,
    /// The output differs from its pin.
    Mismatch,
    /// No pin exists for this key (a seed other than the pinned one);
    /// the caller checks the output against another agreement instead.
    Unpinned,
}

/// Counts operations and failures, and checks outputs against pins.
#[derive(Debug)]
pub struct Checker {
    pins: BTreeMap<String, u64>,
    /// `Some` while capturing pins instead of checking them.
    captured: Option<BTreeMap<String, u64>>,
    /// First digest seen this run under each unpinned key.
    seen: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    /// A checker over the committed pins; `capture` records digests
    /// instead of comparing them.
    pub fn new(capture: bool) -> Checker {
        let pins = PINS
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (key, hex) = l.rsplit_once(' ').expect("pin lines are `<key> <digest>`");
                let d = u64::from_str_radix(hex, 16).expect("pin digests are hex");
                (key.to_string(), d)
            })
            .collect();
        Checker {
            pins,
            captured: capture.then(BTreeMap::new),
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Looks `output` up under `key` without counting an operation.
    fn pin(&mut self, key: &str, output: &str) -> Pin {
        let d = digest(output);
        if let Some(c) = &mut self.captured {
            c.insert(key.to_string(), d);
            return Pin::Match;
        }
        match self.pins.get(key) {
            Some(&p) if p == d => Pin::Match,
            Some(_) => Pin::Mismatch,
            None => Pin::Unpinned,
        }
    }

    /// Counts one operation; `Err` marks it failed with a reason.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(why);
            }
        }
    }

    /// Whether outputs under `key` are checked against a pin (always,
    /// while capturing).
    pub fn is_pinned(&self, key: &str) -> bool {
        self.captured.is_some() || self.pins.contains_key(key)
    }

    /// Checks that `text` equals the first output seen under `key` in
    /// this run (the first one is taken as given). Counts nothing.
    pub fn same_as_before(&mut self, key: &str, text: &str) -> Result<(), String> {
        let d = digest(text);
        match self.seen.get(key) {
            Some(&first) if first != d => Err(format!("{key}: output differs between passes")),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(key.to_string(), d);
                Ok(())
            }
        }
    }

    /// Counts one operation whose output is checked against its pin.
    /// An unpinned output must repeat the first output seen under its
    /// key (callers check it against another agreement as well).
    pub fn record_pinned(&mut self, key: &str, output: Result<String, String>) {
        let result =
            output
                .map_err(|e| format!("{key}: {e}"))
                .and_then(|text| match self.pin(key, &text) {
                    Pin::Match => Ok(()),
                    Pin::Mismatch => Err(format!("{key}: output differs from its pin")),
                    Pin::Unpinned => self.same_as_before(key, &text),
                });
        self.record(result);
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first few failure reasons.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The captured pins as `pins.txt` lines, if capturing.
    pub fn captured_lines(&self) -> Option<String> {
        self.captured.as_ref().map(|c| {
            c.iter()
                .map(|(k, d)| format!("{k} {d:016x}\n"))
                .collect::<String>()
        })
    }
}

/// Runs `f`, turning a panic into an `Err` so one failing operation is
/// counted instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("operation panicked".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn pins_parse_and_unknown_keys_are_unpinned() {
        let mut c = Checker::new(false);
        assert_eq!(c.pin("no such key", "x"), Pin::Unpinned);
        c.record_pinned("no such key", Ok("x".into()));
        c.record_pinned("no such key", Ok("x".into()));
        assert_eq!((c.attempted(), c.failed()), (2, 0));
        // An unpinned key must repeat its first output.
        c.record_pinned("no such key", Ok("y".into()));
        c.record_pinned("k", Err("boom".into()));
        assert_eq!((c.attempted(), c.failed()), (4, 2));
    }

    #[test]
    fn panics_become_failed_operations() {
        let r: Result<(), String> = guarded(|| panic!("inside an operation"));
        assert_eq!(r, Err("operation panicked".to_string()));
    }
}
