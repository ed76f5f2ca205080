//! Compare mode: two result files side by side, per workload and
//! metric, with each move judged against the bound in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics::EXACT;

/// One metric's summary as a result file records it.
struct Row {
    median: f64,
    q1: f64,
    q3: f64,
    unit: String,
}

/// A result file: metric rows keyed by (workload, metric), and each
/// workload's input digests.
struct Results {
    rows: BTreeMap<(String, String), Row>,
    digests: BTreeMap<String, Vec<String>>,
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = BTreeMap::new();
    let mut digests = BTreeMap::new();
    for (workload, entry) in doc.get("workloads").into_iter().flat_map(Value::entries) {
        let inputs = entry.get("inputs").map_or(&[][..], Value::as_array);
        digests.insert(
            workload.clone(),
            inputs
                .iter()
                .filter_map(|i| i.get("digest").and_then(Value::as_str).map(str::to_owned))
                .collect(),
        );
        for (metric, m) in entry.get("metrics").into_iter().flat_map(Value::entries) {
            let num = |k: &str| m.get(k).and_then(Value::as_f64);
            let (Some(median), Some(q1), Some(q3)) = (num("median"), num("q1"), num("q3")) else {
                return Err(format!(
                    "{path}: {workload}/{metric} lacks median or quartiles"
                ));
            };
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned();
            rows.insert(
                (workload.clone(), metric.clone()),
                Row {
                    median,
                    q1,
                    q3,
                    unit,
                },
            );
        }
    }
    Ok(Results { rows, digests })
}

/// `(bound, lower_is_better)` per end-to-end metric of `BENCHMARK.json`;
/// per-layer metrics carry only a direction.
pub fn bounds(benchmark: &Value) -> BTreeMap<String, (Option<f64>, bool)> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in benchmark.get(key).map_or(&[][..], Value::as_array) {
            if let Some(name) = m.get("name").and_then(Value::as_str) {
                let lower = m.get("better").and_then(Value::as_str) != Some("higher");
                out.insert(
                    name.to_owned(),
                    (m.get("bound").and_then(Value::as_f64), lower),
                );
            }
        }
    }
    out
}

/// Renders the comparison of `base` against `head`; the second value is
/// true when some bounded metric worsened beyond its bound, or an exact
/// metric rose on identical inputs.
pub fn compare(base: &str, head: &str, benchmark: &Value) -> Result<(String, bool), String> {
    let base_results = load(base)?;
    let head_results = load(head)?;
    let (a, b) = (&base_results.rows, &head_results.rows);
    let bounds = bounds(benchmark);
    let mut out = String::new();
    let _ = writeln!(out, "base: {base}\nhead: {head}");
    let _ = writeln!(
        out,
        "{:<22} {:<26} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "base median", "head median", "base iqr", "head iqr", "move"
    );
    let mut regressed = false;
    for (key, ra) in a {
        let Some(rb) = b.get(key) else { continue };
        let (bound, lower) = bounds.get(&key.1).copied().unwrap_or((None, true));
        let change = if ra.median == 0.0 {
            0.0
        } else {
            (rb.median - ra.median) / ra.median.abs()
        };
        let worse = if lower { change } else { -change };
        let same_inputs = match (
            base_results.digests.get(&key.0),
            head_results.digests.get(&key.0),
        ) {
            (Some(x), Some(y)) => !x.is_empty() && x == y,
            _ => false,
        };
        let verdict = match bound {
            _ if same_inputs && EXACT.contains(&key.1.as_str()) && worse > 0.0 => {
                regressed = true;
                "WORSE: rose on identical inputs".to_owned()
            }
            Some(bound) if worse > bound => {
                regressed = true;
                format!("WORSE beyond bound {bound}")
            }
            Some(bound) => format!("within bound {bound}"),
            None => "no bound".to_owned(),
        };
        let iqr = |r: &Row| {
            if r.median == 0.0 {
                0.0
            } else {
                (r.q3 - r.q1) / r.median.abs()
            }
        };
        let _ = writeln!(
            out,
            "{:<22} {:<26} {:>14.6} {:>14.6} {:>7.1}% {:>7.1}% {:>+7.1}%  {verdict} ({})",
            key.0,
            key.1,
            ra.median,
            rb.median,
            100.0 * iqr(ra),
            100.0 * iqr(rb),
            100.0 * change,
            ra.unit
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_a_move_beyond_its_bound() {
        let dir = crate::work_dir().join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, digest: &str, wall: f64, peak: f64| {
            let path = dir.join(name);
            let metric = |name: &str, v: f64| {
                format!(
                    "\"{name}\": {{\"median\": {v}, \"q1\": {v}, \"q3\": {v}, \"n\": 3, \"unit\": \"s\"}}"
                )
            };
            let doc = format!(
                "{{\"workloads\": {{\"w\": {{\"inputs\": [{{\"digest\": \"{digest}\"}}], \
                 \"metrics\": {{{}, {}}}}}}}}}",
                metric("wall_s", wall),
                metric("peak_toggles", peak)
            );
            std::fs::write(&path, doc).unwrap();
            path.to_str().unwrap().to_owned()
        };
        let benchmark = json::parse(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "peak_toggles", "unit": "count", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let base = file("base.json", "a", 1.0, 100.0);
        let (text, regressed) =
            compare(&base, &file("same.json", "a", 1.05, 100.0), &benchmark).unwrap();
        assert!(!regressed, "{text}");
        let (text, regressed) =
            compare(&base, &file("slow.json", "a", 1.2, 100.0), &benchmark).unwrap();
        assert!(regressed && text.contains("WORSE beyond"), "{text}");
        // One more toggle is within the bound, but the inputs are the same.
        let (text, regressed) =
            compare(&base, &file("peak.json", "a", 1.0, 101.0), &benchmark).unwrap();
        assert!(regressed && text.contains("identical inputs"), "{text}");
        // Other inputs: the bound decides.
        let (text, regressed) =
            compare(&base, &file("seed.json", "b", 1.0, 101.0), &benchmark).unwrap();
        assert!(!regressed, "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
