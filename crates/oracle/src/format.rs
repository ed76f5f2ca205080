//! The cube-at-a-time pattern parser — the reference for the streaming
//! plane parser in [`dpfill_cubes::format`].

use dpfill_cubes::{CubeError, CubeSet, TestCube};

/// The original cube-at-a-time parser (`Vec<Bit>` per line, packed on
/// push): the reference for the differential tests and the
/// parse-throughput benchmark baseline.
///
/// # Errors
///
/// Returns [`CubeError::ParseLine`] on the first malformed line, with
/// the same line numbers and messages as
/// [`dpfill_cubes::format::parse_patterns`].
pub fn parse_patterns_scalar(text: &str) -> Result<CubeSet, CubeError> {
    let mut cubes: Vec<TestCube> = Vec::new();
    let mut width: Option<usize> = None;
    for (idx, line) in text.lines().enumerate() {
        let content = match line.find('#') {
            Some(pos) => &line[..pos],
            None => line,
        };
        let content = content.trim();
        if content.is_empty() {
            continue;
        }
        let cube: TestCube = match content.parse() {
            Ok(c) => c,
            Err(e) => {
                return Err(CubeError::ParseLine {
                    line: idx + 1,
                    message: e.to_string(),
                })
            }
        };
        if let Some(w) = width {
            if cube.width() != w {
                return Err(CubeError::ParseLine {
                    line: idx + 1,
                    message: format!("cube width {} does not match width {}", cube.width(), w),
                });
            }
        } else {
            width = Some(cube.width());
        }
        cubes.push(cube);
    }
    CubeSet::from_cubes(cubes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::format::parse_patterns;

    #[test]
    fn streaming_and_scalar_parsers_agree() {
        let text = "# hdr\n\n0X1X0X1\n  1111111  # c\nXXXXXXX\n";
        assert_eq!(
            parse_patterns(text).unwrap(),
            parse_patterns_scalar(text).unwrap()
        );
        for bad in ["01\nZZ\n", "01\n010\n"] {
            assert_eq!(
                parse_patterns(bad).unwrap_err(),
                parse_patterns_scalar(bad).unwrap_err()
            );
        }
    }
}
