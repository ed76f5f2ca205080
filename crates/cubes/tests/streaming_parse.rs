//! Differential property tests for the streaming pattern parser: the
//! packed-backed `parse_patterns`/`read_patterns` must agree bit-for-bit
//! with the retained scalar reference parser (`parse_patterns_scalar`)
//! on sets, errors and downstream metrics — including widths not
//! divisible by 64, all-X rows, and empty sets.

use dpfill_cubes::format::{parse_patterns, patterns_to_string, read_patterns};
use dpfill_cubes::{peak_toggles, toggle_profile, Bit, CubeError, CubeSet, TestCube};
use dpfill_oracle::{parse_patterns_scalar, peak_toggles_scalar, toggle_profile_scalar};
use proptest::prelude::*;

fn arb_bit() -> impl Strategy<Value = Bit> {
    prop_oneof![
        1 => Just(Bit::Zero),
        1 => Just(Bit::One),
        2 => Just(Bit::X),
    ]
}

/// Cube sets whose widths straddle the 64-bit word boundary, with some
/// all-X rows mixed in (via `x_mask`); `count` starts at 0 so the empty
/// set is a first-class case.
fn arb_cube_set() -> impl Strategy<Value = CubeSet> {
    (1usize..=150, 0usize..=10, 0u8..=255).prop_flat_map(|(width, count, x_mask)| {
        proptest::collection::vec(proptest::collection::vec(arb_bit(), width), count).prop_map(
            move |mut rows| {
                for (i, row) in rows.iter_mut().enumerate() {
                    if x_mask >> (i % 8) & 1 == 1 {
                        row.iter_mut().for_each(|b| *b = Bit::X); // all-X row
                    }
                }
                let mut set = CubeSet::new(rows.first().map_or(0, Vec::len));
                for row in rows {
                    set.push(TestCube::new(row)).expect("uniform widths");
                }
                set
            },
        )
    })
}

/// Decorates canonical pattern text with the noise the parser must skip:
/// a header comment, blank lines, indentation and trailing comments.
fn decorate(text: &str, variant: u8) -> String {
    let mut out = String::from("# generated fixture\n\n");
    for (i, line) in text.lines().enumerate() {
        match (i as u8 + variant) % 3 {
            0 => out.push_str(&format!("{line}\n")),
            1 => out.push_str(&format!("  {line}  # trailing comment {i}\n\n")),
            _ => out.push_str(&format!("\t{line}\n# interleaved comment\n")),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_parse_round_trips_and_matches_scalar_reference(
        set in arb_cube_set(),
        variant in 0u8..3,
    ) {
        let text = patterns_to_string(&set, Some("round trip"));
        let streamed = parse_patterns(&text).unwrap();
        let scalar = parse_patterns_scalar(&text).unwrap();
        prop_assert_eq!(&streamed, &scalar, "parsers disagree");
        if !set.is_empty() {
            // The parse is lossless (an empty set forgets its width in
            // text form, so equality is only meaningful when non-empty).
            prop_assert_eq!(&streamed, &set);
        } else {
            prop_assert!(streamed.is_empty());
        }

        // Comment/blank-line noise changes nothing.
        let noisy = decorate(&text, variant);
        prop_assert_eq!(parse_patterns(&noisy).unwrap(), scalar.clone());
        // The io-streaming entry point agrees byte for byte.
        prop_assert_eq!(read_patterns(noisy.as_bytes()).unwrap(), scalar);
    }

    #[test]
    fn parse_then_metrics_pipeline_matches_scalar_path(set in arb_cube_set()) {
        let text = patterns_to_string(&set, None);
        let streamed = parse_patterns(&text).unwrap();
        if streamed.is_empty() {
            prop_assert!(toggle_profile(&streamed).is_err());
            return Ok(());
        }
        // Metrics over the packed-backed parse result equal the per-bit
        // reference walks over the scalar-parsed result.
        let reference = parse_patterns_scalar(&text).unwrap();
        prop_assert_eq!(
            toggle_profile(&streamed).unwrap(),
            toggle_profile_scalar(&reference).unwrap()
        );
        prop_assert_eq!(
            peak_toggles(&streamed).unwrap(),
            peak_toggles_scalar(&reference).unwrap()
        );
        prop_assert_eq!(streamed.x_count(), reference.x_count());
        prop_assert_eq!(streamed.x_counts(), reference.x_counts());
        prop_assert_eq!(
            streamed.is_fully_specified(),
            reference.is_fully_specified()
        );
    }

    #[test]
    fn malformed_inputs_produce_identical_errors(
        set in arb_cube_set(),
        bad_line in 0usize..10,
        bad_char in prop_oneof![Just('Z'), Just('2'), Just('?'), Just('é'), Just('°')],
    ) {
        prop_assume!(!set.is_empty());
        let mut lines: Vec<String> =
            patterns_to_string(&set, None).lines().map(String::from).collect();
        let idx = bad_line % lines.len();
        lines[idx].push(bad_char);
        let text = lines.join("\n");
        let streamed = parse_patterns(&text).unwrap_err();
        let scalar = parse_patterns_scalar(&text).unwrap_err();
        prop_assert_eq!(&streamed, &scalar);
        match streamed {
            CubeError::ParseLine { line, .. } => prop_assert_eq!(line, idx + 1),
            other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        }
    }

    #[test]
    fn ragged_widths_produce_identical_errors(set in arb_cube_set(), extra in 1usize..5) {
        prop_assume!(set.len() >= 2);
        let mut lines: Vec<String> =
            patterns_to_string(&set, None).lines().map(String::from).collect();
        let last = lines.len() - 1;
        lines[last].push_str(&"X".repeat(extra));
        let text = lines.join("\n");
        prop_assert_eq!(
            parse_patterns(&text).unwrap_err(),
            parse_patterns_scalar(&text).unwrap_err()
        );
    }
}

#[test]
fn empty_and_comment_only_inputs() {
    for text in ["", "\n\n", "# only a comment\n", "  \n# c\n\t\n"] {
        let streamed = parse_patterns(text).unwrap();
        let scalar = parse_patterns_scalar(text).unwrap();
        assert_eq!(streamed, scalar, "{text:?}");
        assert!(streamed.is_empty());
        assert_eq!(streamed.width(), 0);
    }
}

/// Unicode padding (U+00A0, a two-byte UTF-8 sequence the byte kernel
/// rejects) is trimmed exactly as the scalar reference's `str::trim`
/// trims it, by every entry point; inside a row it is a bad character.
#[test]
fn non_breaking_space_padding_is_trimmed_like_the_scalar_parser() {
    let text = "\u{a0}0X1\u{a0}\n\u{a0}\t1X0  \u{a0}# c\u{a0}\n\u{a0}\n";
    let scalar = parse_patterns_scalar(text).unwrap();
    assert_eq!(scalar, CubeSet::parse_rows(&["0X1", "1X0"]).unwrap());
    assert_eq!(parse_patterns(text).unwrap(), scalar);
    assert_eq!(read_patterns(text.as_bytes()).unwrap(), scalar);

    let inner = "0X1\n1\u{a0}0\n";
    let streamed = parse_patterns(inner).unwrap_err();
    assert_eq!(streamed, parse_patterns_scalar(inner).unwrap_err());
    assert!(matches!(streamed, CubeError::ParseLine { line: 2, .. }));
}

#[test]
fn all_x_and_word_boundary_widths() {
    for width in [1usize, 63, 64, 65, 127, 128, 129] {
        let text = format!("{}\n{}\n", "X".repeat(width), "X".repeat(width));
        let set = parse_patterns(&text).unwrap();
        assert_eq!(set, parse_patterns_scalar(&text).unwrap(), "width {width}");
        assert_eq!(set.width(), width);
        assert_eq!(set.x_count(), 2 * width);
        assert_eq!(peak_toggles(&set).unwrap(), 0);
    }
}
