//! Negative-path coverage for `DetectorConfig::from_json`: every malformed
//! or out-of-range input must come back as `Err` with a message naming the
//! offending field — never a panic, and never a config that would panic
//! or abort on allocation later, in `session()` or under a hostile stream.

use race_core::{DetectorConfig, DetectorKind};

fn valid_json() -> String {
    DetectorConfig::new(DetectorKind::Dual, 4).to_json()
}

/// Build a valid JSON config with one field's value text replaced.
fn with_field(field: &str, value: &str) -> String {
    let json = valid_json();
    let key = format!("\"{field}\":");
    let at = json.find(&key).expect("field present") + key.len();
    let end = json[at..]
        .find([',', '}'])
        .map(|i| at + i)
        .expect("terminated");
    format!("{}{}{}", &json[..at], value, &json[end..])
}

#[test]
fn the_probe_edits_fields_correctly() {
    // Sanity-check the test helper itself: an edited-but-valid config
    // parses and carries the edit.
    let c = DetectorConfig::from_json(&with_field("n", "8")).unwrap();
    assert_eq!(c.n, 8);
}

#[test]
fn malformed_json_is_an_error_not_a_panic() {
    for garbage in [
        "",
        "{",
        "}{",
        "not json at all",
        "{\"kind\":\"dual-clock\"",
        "{\"kind\":\"dual-clock\",\"n\":}",
        "{\"kind\":\"dual-clock\",\"n\"4}",
        "{\"kind\":\"dual-clock", // unterminated string value
        "\u{1F980} crab bytes \u{0}",
    ] {
        let r = DetectorConfig::from_json(garbage);
        assert!(r.is_err(), "accepted garbage {garbage:?}");
    }
}

#[test]
fn missing_fields_name_the_field() {
    let err = DetectorConfig::from_json("{\"kind\":\"dual-clock\"}").unwrap_err();
    assert!(err.contains("missing field"), "got {err:?}");
}

#[test]
fn unknown_kind_label_is_reported() {
    let err = DetectorConfig::from_json(&with_field("kind", "\"triple-clock\"")).unwrap_err();
    assert!(err.contains("unknown detector kind"), "got {err:?}");
    assert!(
        err.contains("triple-clock"),
        "message names the label: {err:?}"
    );
}

#[test]
fn the_retired_lockset_kind_is_an_unknown_kind() {
    let err = DetectorConfig::from_json(r#"{"kind":"lockset","n":4,"granularity":8}"#).unwrap_err();
    assert_eq!(err, r#"unknown detector kind "lockset""#);
}

#[test]
fn non_power_of_two_granularity_is_rejected() {
    for bad in ["0", "3", "24"] {
        let err = DetectorConfig::from_json(&with_field("granularity", bad)).unwrap_err();
        assert!(err.contains("power of two"), "granularity {bad}: {err:?}");
    }
}

#[test]
fn zero_processes_rejected() {
    let err = DetectorConfig::from_json(&with_field("n", "0")).unwrap_err();
    assert!(err.contains("at least 1"), "got {err:?}");
}

#[test]
fn process_count_out_of_range_rejected() {
    // A clock-based detector allocates n matrix clocks of n × n words at
    // construction: "n":4096 is 512 GiB, an allocation failure that aborts
    // the process past any catch_unwind. Must be a parse error.
    for bad in ["129", "4096", "18446744073709551615"] {
        let err = DetectorConfig::from_json(&with_field("n", bad)).unwrap_err();
        assert!(err.contains("n "), "n {bad}: {err:?}");
        assert!(err.contains("out of range"), "n {bad}: {err:?}");
    }
    let max = DetectorConfig::MAX_N.to_string();
    assert!(DetectorConfig::from_json(&with_field("n", &max)).is_ok());
}

#[test]
fn a_four_key_config_parses_whatever_its_dense_blocks() {
    // Hellos and checkpoints written while the dense-prefix bound was a
    // setting carry a fourth key. It sizes nothing any more, so whatever
    // it holds — even a value the old range check refused, or no number
    // at all — the config is the three-key one.
    let three = DetectorConfig::new(DetectorKind::Dual, 4);
    for value in ["0", "65536", "18446744073709551615", "\"two\""] {
        let json =
            format!(r#"{{"kind":"dual-clock","n":4,"granularity":8,"dense_blocks":{value}}}"#);
        let c = DetectorConfig::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        assert_eq!(c, three, "{json}");
        assert_eq!(c.to_json(), three.to_json());
    }
}

#[test]
fn a_config_at_both_bounds_survives_the_stream_that_used_to_abort() {
    // The hostile stream of the bug report — one put far out in the
    // segment, one at the top of the clock store's fixed 65536-block dense
    // prefix — against the largest process count the parser admits.
    use dsm::addr::GlobalAddr;
    use race_core::{DsmOp, OpKind};
    let max_n = DetectorConfig::MAX_N.to_string();
    let json = with_field("n", &max_n);
    let mut session = DetectorConfig::from_json(&json).unwrap().session();
    let top_dense = 65_535 * 8;
    for (op_id, offset) in [(0u64, 8usize << 36), (1, top_dense)] {
        session.observe(
            &DsmOp {
                op_id,
                actor: 0,
                kind: OpKind::Put {
                    src: GlobalAddr::private(0, 0).range(8),
                    dst: GlobalAddr::public(1, offset).range(8),
                },
            },
            &[],
        );
    }
    assert_eq!(session.finish().0.total, 0);
}

#[test]
fn negative_and_non_numeric_numbers_are_field_errors() {
    for (field, value) in [("n", "-1"), ("n", "\"two\""), ("granularity", "1.5")] {
        let r = DetectorConfig::from_json(&with_field(field, value));
        assert!(r.is_err(), "{field}={value} accepted");
    }
}

#[test]
fn every_accepted_config_builds_without_panicking() {
    // The contract the validation exists for: Ok(config) ⇒ a session of it
    // is safe to build and to drive, up to its highest rank.
    use dsm::addr::GlobalAddr;
    use race_core::{DsmOp, OpKind};
    for (field, value) in [("n", "1"), ("n", "128"), ("granularity", "64")] {
        let c = DetectorConfig::from_json(&with_field(field, value)).unwrap();
        let top = c.n - 1;
        let mut session = c.session();
        let put = DsmOp {
            op_id: 0,
            actor: top,
            kind: OpKind::Put {
                src: GlobalAddr::private(top, 0).range(8),
                dst: GlobalAddr::public(top, 0).range(8),
            },
        };
        assert_eq!(session.observe(&put, &[]), 0);
        assert_eq!(session.events(), 1);
    }
}

#[test]
fn a_nested_key_never_shadows_a_top_level_one() {
    let json = r#"{"meta":{"n":2},"kind":"dual-clock","n":4,"granularity":8}"#;
    match DetectorConfig::from_json(json) {
        Ok(c) => assert_eq!(c.n, 4, "the nested n must not be read"),
        Err(e) => assert!(!e.is_empty()),
    }
}

#[test]
fn a_duplicated_top_level_key_is_an_error_naming_it() {
    let json = r#"{"kind":"vanilla","n":4,"granularity":8,"kind":"dual-clock"}"#;
    let err = DetectorConfig::from_json(json).unwrap_err();
    assert!(err.contains("kind"), "message names the key: {err:?}");
}

#[test]
fn a_string_value_that_spells_a_key_is_not_a_key() {
    let json = r#"{"note":"n","kind":"dual-clock","n":4,"granularity":8}"#;
    let c = DetectorConfig::from_json(json).expect("a value is not a key");
    assert_eq!(c.n, 4);
    assert_eq!(c.kind, DetectorKind::Dual);
}
