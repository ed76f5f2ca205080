//! Golden-file tests for the pattern format: checked-in fixtures under
//! `tests/fixtures/` pin the `patterns_to_string ∘ parse_patterns`
//! identity on canonical files, the parse of comment/blank-line noise,
//! and the exact error variants for malformed rows.

use dpfill_cubes::format::{parse_patterns, patterns_to_string, read_patterns, PatternError};
use dpfill_cubes::{CubeError, CubeSet};
use dpfill_oracle::parse_patterns_scalar;

const CANONICAL_SMALL: &str = include_str!("fixtures/canonical_small.pat");
const CANONICAL_WIDE65: &str = include_str!("fixtures/canonical_wide65.pat");
const COMMENTED: &str = include_str!("fixtures/commented.pat");
const BAD_CHAR: &str = include_str!("fixtures/bad_char.pat");
const RAGGED: &str = include_str!("fixtures/ragged.pat");

/// On a canonical file (no comments, no blank lines, one cube per line,
/// trailing newline) rendering the parse reproduces the file verbatim.
#[test]
fn canonical_fixtures_round_trip_to_identity() {
    for (name, text) in [
        ("canonical_small", CANONICAL_SMALL),
        ("canonical_wide65", CANONICAL_WIDE65),
    ] {
        let set = parse_patterns(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            patterns_to_string(&set, None),
            text,
            "{name}: patterns_to_string ∘ parse_patterns must be the identity"
        );
        // The streaming and scalar reference parsers agree on fixtures.
        assert_eq!(set, parse_patterns_scalar(text).unwrap(), "{name}");
        // And the io path sees the same set.
        assert_eq!(set, read_patterns(text.as_bytes()).unwrap(), "{name}");
    }
}

#[test]
fn wide65_fixture_crosses_the_word_boundary() {
    let set = parse_patterns(CANONICAL_WIDE65).unwrap();
    assert_eq!(set.width(), 65);
    assert_eq!(set.len(), 4);
    // Row 4 is all-X; row 3 is all-care except its last pin.
    assert_eq!(set.x_counts(), vec![63, 64, 1, 65]);
}

#[test]
fn commented_fixture_parses_to_its_canonical_form() {
    let set = parse_patterns(COMMENTED).unwrap();
    let canonical = CubeSet::parse_rows(&["0X1", "1X0", "XX1", "00X"]).unwrap();
    assert_eq!(set, canonical);
    // Re-rendering yields the canonical text, which then round-trips as
    // the identity.
    let rendered = patterns_to_string(&set, None);
    assert_eq!(rendered, "0X1\n1X0\nXX1\n00X\n");
    assert_eq!(parse_patterns(&rendered).unwrap(), set);
}

#[test]
fn bad_char_fixture_reports_exact_error_variant() {
    let expected = CubeError::ParseLine {
        line: 3,
        message: "invalid pattern character 'Z' (expected 0, 1, X or -)".to_owned(),
    };
    assert_eq!(parse_patterns(BAD_CHAR).unwrap_err(), expected);
    assert_eq!(parse_patterns_scalar(BAD_CHAR).unwrap_err(), expected);
    match read_patterns(BAD_CHAR.as_bytes()).unwrap_err() {
        PatternError::Cube(e) => assert_eq!(e, expected),
        other => panic!("expected PatternError::Cube, got {other:?}"),
    }
}

#[test]
fn ragged_fixture_reports_exact_error_variant() {
    let expected = CubeError::ParseLine {
        line: 5,
        message: "cube width 3 does not match width 4".to_owned(),
    };
    assert_eq!(parse_patterns(RAGGED).unwrap_err(), expected);
    assert_eq!(parse_patterns_scalar(RAGGED).unwrap_err(), expected);
}

/// The fixtures also pin header rendering: a written header survives a
/// round trip as comment lines that the parser skips.
#[test]
fn header_round_trip_on_fixture_set() {
    let set = parse_patterns(CANONICAL_SMALL).unwrap();
    let text = patterns_to_string(&set, Some("table 1 cubes\nsecond line"));
    assert!(text.starts_with("# table 1 cubes\n# second line\n"));
    assert_eq!(parse_patterns(&text).unwrap(), set);
}
