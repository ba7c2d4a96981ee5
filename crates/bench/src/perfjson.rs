//! The `repro --config` round-trip smoke and the schema registry of the
//! committed `BENCH_*.json` rows (today only `BENCH_0005.json`, the
//! scenario correctness table; time is measured by the `benchmark/`
//! crate). Hand-formatted JSON — no serialisation dependency.

use race_core::api::DetectorConfig;

use crate::opstream;

/// The `repro --config` round-trip smoke: build a session from `config`,
/// drive the hotspot stream, then serialize → reparse → rebuild and drive
/// the identical stream; the two report streams must be byte-identical.
/// Returns `(reports, accesses)` on success.
pub fn config_roundtrip(config: &DetectorConfig) -> Result<(usize, u64), String> {
    if config.n < 2 {
        // Races need two processes; silently bumping `n` would make the
        // echoed config misrepresent what was actually measured.
        return Err(format!(
            "n must be >= 2 to exercise races, got {}",
            config.n
        ));
    }
    let config = config.clone();
    let events = opstream::hotspot(config.n, 128, 8);
    let accesses = opstream::access_count(&events);
    let run = |c: &DetectorConfig| -> Vec<race_core::RaceReport> {
        let mut session = c.session();
        for ev in &events {
            session.apply(ev);
        }
        let (_, sink) = session.finish();
        sink.reports().to_vec()
    };
    let direct = run(&config);
    let reparsed = DetectorConfig::from_json(&config.to_json())?;
    if reparsed != config {
        return Err(format!(
            "config round-trip mismatch: {} vs {}",
            config.to_json(),
            reparsed.to_json()
        ));
    }
    let rebuilt = run(&reparsed);
    if direct != rebuilt {
        return Err(format!(
            "report streams diverge after round-trip: {} vs {} reports",
            direct.len(),
            rebuilt.len()
        ));
    }
    Ok((direct.len(), accesses))
}

// ---------------------------------------------------------------------------
// Committed-row schema registry
// ---------------------------------------------------------------------------

/// Every row family a committed `BENCH_*.json` may contain, as `(family,
/// exact ordered top-level key list)`. The single source of truth for
/// schema drift: a `to_json` change that adds, drops or reorders a key
/// fails [`validate_bench_line`] — and with it the test that replays every
/// committed bench file — instead of silently forking the corpus.
pub const ROW_SCHEMAS: &[(&str, &[&str])] = &[(
    "scenario",
    &[
        "scenario",
        "detector",
        "n",
        "net",
        "seed",
        "accesses",
        "wall_ns_per_run",
        "accesses_per_sec",
        "reports",
        "truth_pairs",
        "truth_sites",
        "pair_precision",
        "pair_recall",
        "site_precision",
        "site_recall",
    ],
)];

/// The top-level keys of a one-line JSON object, in order (nested objects
/// contribute their outer key only).
pub fn row_keys(line: &str) -> Result<Vec<String>, String> {
    let line = line.trim();
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err(format!("not a JSON object line: {line:?}"));
    }
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            '"' => {
                let mut s = String::new();
                for c in chars.by_ref() {
                    if c == '"' {
                        break;
                    }
                    s.push(c);
                }
                // A string at depth 1 followed by ':' is a top-level key.
                if depth == 1 {
                    while chars.peek().is_some_and(|c| c.is_whitespace()) {
                        chars.next();
                    }
                    if chars.peek() == Some(&':') {
                        keys.push(s);
                    }
                }
            }
            _ => {}
        }
    }
    if keys.is_empty() {
        return Err(format!("no keys found in {line:?}"));
    }
    Ok(keys)
}

/// Validate one committed bench line against the registry; returns the
/// matching row family.
pub fn validate_bench_line(line: &str) -> Result<&'static str, String> {
    let keys = row_keys(line)?;
    for (family, schema) in ROW_SCHEMAS {
        if keys.len() == schema.len() && keys.iter().zip(schema.iter()).all(|(a, b)| a == b) {
            return Ok(family);
        }
    }
    Err(format!("row matches no known schema; keys = {keys:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use race_core::DetectorKind;

    #[test]
    fn row_keys_handles_nesting_and_rejects_garbage() {
        let keys = row_keys("{\"a\":1,\"b\":{\"inner\":2},\"c\":\"x\"}").unwrap();
        assert_eq!(keys, vec!["a", "b", "c"], "nested keys stay invisible");
        assert!(row_keys("not json").is_err());
        assert!(row_keys("{}").is_err());
    }

    #[test]
    fn every_row_producer_matches_its_registered_schema() {
        let scenario = crate::scenarios::ScenarioRow {
            scenario: "fanout-racy(4p,2r)".into(),
            detector: "dual-clock",
            n: 4,
            net: "jittered-ib",
            seed: 1,
            accesses: 18,
            wall_ns_per_run: 100,
            accesses_per_sec: 100,
            reports: 3,
            truth_pairs: 24,
            truth_sites: 3,
            pair_precision: 1.0,
            pair_recall: 0.5,
            site_precision: 1.0,
            site_recall: 1.0,
        };
        assert_eq!(validate_bench_line(&scenario.to_json()), Ok("scenario"));
    }

    #[test]
    fn committed_bench_files_match_known_schemas() {
        // The drift gate: the committed corpus is exactly BENCH_0005.json,
        // and every line of it still matches the scenario row family,
        // bit-for-bit in key order.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .expect("repo root readable")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        names.sort();
        assert_eq!(names, ["BENCH_0005.json"], "committed bench corpus changed");
        let body =
            std::fs::read_to_string(root.join("BENCH_0005.json")).expect("bench file readable");
        let mut rows = 0;
        for (i, line) in body.lines().filter(|l| !l.trim().is_empty()).enumerate() {
            assert_eq!(
                validate_bench_line(line),
                Ok("scenario"),
                "BENCH_0005.json line {}",
                i + 1
            );
            rows += 1;
        }
        assert!(rows > 0, "BENCH_0005.json is empty");
    }

    #[test]
    fn config_roundtrip_smoke_passes_for_every_kind() {
        for kind in DetectorKind::ALL {
            let config = DetectorConfig::new(kind, 4);
            let (reports, accesses) =
                config_roundtrip(&config).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(accesses > 0);
            if kind == DetectorKind::Dual {
                assert!(reports > 0, "hotspot must race under the dual clock");
            }
        }
    }
}
