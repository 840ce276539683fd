//! The single home of every wire-schema identifier this workspace
//! emits or consumes.
//!
//! Each producer interpolates these consts into its output and each
//! consumer matches against them, so a schema bump is one edit and the
//! two sides cannot drift. The `schema-literal` lint rule enforces
//! this: a `sunmap-*/N` string duplicated as a literal anywhere in
//! library code (outside a `const` declaration) fails CI. Integration
//! tests deliberately keep raw literals — they pin the bytes on the
//! wire, so a silent const edit still trips them.
//!
//! (`sunmap-sweep/1` lives with its emitter in
//! [`sunmap_sim::sweep::SWEEP_SCHEMA`], the one schema owned by a
//! crate below this one.)

/// One-line explore report: `{"schema":"sunmap-report/1",...}` —
/// printed by `explore --json`, embedded by serve envelopes and
/// replay-log entries.
pub const REPORT_SCHEMA: &str = "sunmap-report/1";

/// One JSONL line per batch job in `batch.jsonl`.
pub const BATCH_SCHEMA: &str = "sunmap-batch/1";

/// Serve daemon frame envelopes (both directions).
pub const SERVE_SCHEMA: &str = "sunmap-serve/1";

/// Append-only serve request-replay log lines. Version 2 logs requests
/// without the `swap`, `engine` and `table_prep` fields.
pub const SERVE_LOG_SCHEMA: &str = "sunmap-serve-log/2";

/// Serve metrics snapshots (`stats` frames and the shutdown dump).
pub const SERVE_METRICS_SCHEMA: &str = "sunmap-serve-metrics/1";

/// Distributed batch coordinator/worker frames.
pub const SHARD_SCHEMA: &str = "sunmap-shard/1";

/// Coordinator counter snapshots at the end of a distributed run.
pub const SHARD_METRICS_SCHEMA: &str = "sunmap-shard-metrics/1";

/// `simulate.json` written by the `simulate` CLI command.
pub const SIMULATE_SCHEMA: &str = "sunmap-simulate/1";

#[cfg(test)]
mod tests {
    use super::*;

    /// Every schema identifier parses as `sunmap-<kebab-word>/<version>`
    /// and is unique — the invariants the lint rule and the wire both
    /// rely on.
    #[test]
    fn schemas_are_well_formed_and_distinct() {
        let all = [
            REPORT_SCHEMA,
            BATCH_SCHEMA,
            SERVE_SCHEMA,
            SERVE_LOG_SCHEMA,
            SERVE_METRICS_SCHEMA,
            SHARD_SCHEMA,
            SHARD_METRICS_SCHEMA,
            SIMULATE_SCHEMA,
        ];
        for schema in all {
            let (name, version) = schema.split_once('/').expect("has a version");
            assert!(name.starts_with("sunmap-"), "{schema}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{schema}"
            );
            assert!(version.chars().all(|c| c.is_ascii_digit()), "{schema}");
        }
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
