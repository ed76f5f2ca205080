//! Fig 2: I-ordering behaviour — (a) bottleneck vs interleave factor,
//! (b) chosen iterations vs log(n), (c) don't-care stretch statistics
//! under the three orderings. Fig 2(c) counts each reordered set's
//! stretches in one cube-major pass ([`StretchStats::of_cubes`]), with
//! no transpose.

use dpfill_core::ordering::{IOrdering, OrderingMethod};
use dpfill_cubes::stretch::{StretchStats, LENGTH_BUCKETS};

use crate::flow::Prepared;
use crate::table::{fmt_f64, TextTable};

/// Fig 2(a): the Algorithm 3 search trace of one benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig2aRow {
    /// Benchmark name.
    pub ckt: String,
    /// `(k, optimal bottleneck value)` per iteration.
    pub trace: Vec<(usize, u64)>,
    /// The chosen interleave factor.
    pub chosen_k: usize,
}

/// Runs Fig 2(a): per-circuit iteration traces.
pub fn fig2a(prepared: &[Prepared]) -> (Vec<Fig2aRow>, TextTable) {
    let mut rows = Vec::with_capacity(prepared.len());
    for p in prepared {
        let trace = IOrdering::new()
            .order_with_trace(&p.cubes)
            .expect("benchmark-scale bounds fit u64");
        rows.push(Fig2aRow {
            ckt: p.profile.name.to_owned(),
            trace: trace
                .k_values
                .iter()
                .copied()
                .zip(trace.bottleneck_values.iter().copied())
                .collect(),
            chosen_k: trace.chosen_k,
        });
    }
    let mut table = TextTable::new("Fig 2(a): I-ordering iterations vs peak input toggles");
    table.header(["Ckt", "k sweep (k:bottleneck)", "chosen k"]);
    for r in &rows {
        let sweep = r
            .trace
            .iter()
            .map(|(k, v)| format!("{k}:{v}"))
            .collect::<Vec<_>>()
            .join(" ");
        table.row([r.ckt.clone(), sweep, r.chosen_k.to_string()]);
    }
    (rows, table)
}

/// Fig 2(b): iterations against `log2 n`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig2bRow {
    /// Benchmark name.
    pub ckt: String,
    /// Number of test vectors.
    pub n: usize,
    /// `log2(n)`.
    pub log2_n: f64,
    /// Algorithm 3 `while` iterations executed.
    pub iterations: usize,
}

/// Runs Fig 2(b): iteration counts vs `log n` across the suite.
pub fn fig2b(prepared: &[Prepared]) -> (Vec<Fig2bRow>, TextTable) {
    let mut rows = Vec::with_capacity(prepared.len());
    for p in prepared {
        let trace = IOrdering::new()
            .order_with_trace(&p.cubes)
            .expect("benchmark-scale bounds fit u64");
        rows.push(Fig2bRow {
            ckt: p.profile.name.to_owned(),
            n: p.cubes.len(),
            log2_n: (p.cubes.len().max(1) as f64).log2(),
            iterations: trace.iterations(),
        });
    }
    let mut table = TextTable::new("Fig 2(b): optimum number of iterations vs log2(n)");
    table.header(["Ckt", "n", "log2(n)", "iterations"]);
    for r in &rows {
        table.row([
            r.ckt.clone(),
            r.n.to_string(),
            fmt_f64(r.log2_n),
            r.iterations.to_string(),
        ]);
    }
    (rows, table)
}

/// Fig 2(c): stretch statistics of one benchmark under the three
/// orderings.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig2cResult {
    /// Benchmark name.
    pub ckt: String,
    /// Ordering label → stretch statistics.
    pub stats: Vec<(String, StretchStats)>,
}

/// Runs Fig 2(c) on one prepared benchmark.
pub fn fig2c(p: &Prepared) -> (Fig2cResult, TextTable) {
    let orderings = [
        OrderingMethod::Tool,
        OrderingMethod::XStat,
        OrderingMethod::Interleaved,
    ];
    let mut stats = Vec::with_capacity(orderings.len());
    for o in orderings {
        let order = o.order(&p.cubes).expect("benchmark-scale bounds fit u64");
        let reordered = p.cubes.reordered(&order).expect("permutation");
        stats.push((
            o.label().to_owned(),
            StretchStats::of_cubes(reordered.as_packed()),
        ));
    }
    let result = Fig2cResult {
        ckt: p.profile.name.to_owned(),
        stats,
    };

    let mut table = TextTable::new(format!(
        "Fig 2(c): don't-care stretch statistics for {} (counts per length bucket)",
        result.ckt
    ));
    let mut header: Vec<String> = vec!["ordering".into()];
    for (lo, hi) in LENGTH_BUCKETS {
        header.push(if hi == usize::MAX {
            format!(">{}", lo - 1)
        } else if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}-{hi}")
        });
    }
    header.extend(["mean len".to_owned(), "max len".to_owned()]);
    table.header(header);
    for (label, s) in &result.stats {
        let mut cells: Vec<String> = vec![label.clone()];
        cells.extend(s.histogram().iter().map(|c| c.to_string()));
        cells.push(fmt_f64(s.mean_len()));
        cells.push(s.max_len().to_string());
        table.row(cells);
    }
    (result, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{prepare_suite, FlowConfig};

    #[test]
    fn traces_and_scatter_are_consistent() {
        let cfg = FlowConfig::smoke();
        let prepared = prepare_suite(&cfg);
        let (a_rows, a_table) = fig2a(&prepared);
        let (b_rows, b_table) = fig2b(&prepared);
        assert_eq!(a_rows.len(), b_rows.len());
        assert!(!a_table.is_empty() && !b_table.is_empty());
        for (a, b) in a_rows.iter().zip(&b_rows) {
            assert_eq!(a.trace.len(), b.iterations);
        }
    }

    #[test]
    fn i_ordering_fattens_the_long_stretch_tail() {
        // The paper's Fig 2(c) claim, measured on an X-rich profile-mode
        // benchmark: I-ordering grows the population of *long* don't-care
        // stretches (the ones DP-fill exploits).
        use crate::flow::{prepare, CubeSource};
        let cfg = FlowConfig {
            source: CubeSource::Profile,
            ..FlowConfig::default()
        };
        let b12 = dpfill_circuits::itc99("b12").expect("known benchmark");
        let p = prepare(&b12, &cfg);
        let (r, table) = fig2c(&p);
        assert_eq!(r.stats.len(), 3);
        assert!(!table.is_empty());
        // Spreadable windows: stretches of length >= 3 (buckets 3-4 and
        // up) are the ones DP-fill can place toggles inside; I-ordering
        // must grow that population (the operative Fig 2(c) effect).
        let spreadable =
            |s: &dpfill_cubes::stretch::StretchStats| -> usize { s.histogram()[2..].iter().sum() };
        let tool = spreadable(&r.stats[0].1);
        let iorder = spreadable(&r.stats[2].1);
        assert!(
            iorder >= tool,
            "I-ordering spreadable windows {iorder} collapsed vs tool {tool}"
        );
    }
}
