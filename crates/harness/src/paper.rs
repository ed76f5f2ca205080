//! The paper's published numbers, embedded for side-by-side reporting.
//!
//! Every experiment prints *paper vs. measured*; the data here is typed
//! in from Tables I–VI of the DATE 2015 paper. `None` marks cells the
//! paper does not report (b09 is absent from Table I).

/// Fill columns of Tables II–IV, in paper order:
/// MT, R, 0, 1, B, DP.
pub const FILL_LABELS: [&str; 6] = ["MT-fill", "R-fill", "0-fill", "1-fill", "B-fill", "DP-fill"];

/// Technique columns of Tables V–VI: Tool(best), ISA \[20\], Adj-fill \[21\],
/// XStat \[22\], Proposed.
pub const TECHNIQUE_LABELS: [&str; 5] = ["Tool", "ISA", "Adj-fill", "XStat", "Proposed"];

/// One benchmark's published numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// Benchmark name.
    pub ckt: &'static str,
    /// Table I "X %" (average don't-care percentage), when reported.
    pub x_percent: Option<f64>,
    /// Table II: peak input toggles, Tool ordering × 6 fills.
    pub table2: [u64; 6],
    /// Table III: peak input toggles, XStat ordering × 6 fills.
    pub table3: [u64; 6],
    /// Table IV: peak input toggles, I-ordering × 6 fills.
    pub table4: [u64; 6],
    /// Table V: best peak toggles per technique
    /// (Tool, ISA, Adj-fill, XStat, Proposed).
    pub table5: [u64; 5],
    /// Table VI: peak circuit power in µW per technique.
    pub table6: [f64; 5],
}

/// All 21 benchmarks in paper order.
pub const PAPER: [PaperRow; 21] = [
    PaperRow {
        ckt: "b01",
        x_percent: Some(7.1),
        table2: [4, 4, 4, 4, 4, 4],
        table3: [3, 4, 4, 3, 3, 3],
        table4: [3, 4, 4, 3, 3, 3],
        table5: [4, 2, 4, 3, 3],
        table6: [3.8, 2.3, 3.3, 3.1, 3.1],
    },
    PaperRow {
        ckt: "b02",
        x_percent: Some(5.0),
        table2: [4, 4, 4, 4, 4, 4],
        table3: [4, 4, 4, 4, 4, 4],
        table4: [3, 3, 3, 3, 3, 3],
        table5: [4, 1, 3, 4, 3],
        table6: [2.4, 1.5, 2.8, 2.6, 2.6],
    },
    PaperRow {
        ckt: "b03",
        x_percent: Some(70.4),
        table2: [15, 21, 17, 16, 14, 14],
        table3: [15, 19, 18, 15, 8, 7],
        table4: [12, 19, 15, 15, 8, 6],
        table5: [14, 8, 6, 8, 6],
        table6: [5.6, 4.0, 4.6, 3.9, 4.2],
    },
    PaperRow {
        ckt: "b04",
        x_percent: Some(64.4),
        table2: [41, 50, 47, 45, 39, 39],
        table3: [45, 52, 47, 43, 25, 24],
        table4: [41, 45, 43, 39, 23, 15],
        table5: [39, 31, 29, 25, 15],
        table6: [17.2, 17.1, 15.8, 16.9, 14.8],
    },
    PaperRow {
        ckt: "b05",
        x_percent: Some(36.8),
        table2: [20, 23, 19, 20, 17, 17],
        table3: [21, 24, 21, 23, 15, 14],
        table4: [20, 22, 21, 23, 15, 14],
        table5: [17, 12, 19, 15, 14],
        table6: [15.6, 13.6, 16.4, 14.6, 14.9],
    },
    PaperRow {
        ckt: "b06",
        x_percent: Some(12.5),
        table2: [4, 4, 5, 4, 4, 4],
        table3: [5, 4, 5, 5, 5, 4],
        table4: [4, 4, 4, 4, 4, 4],
        table5: [4, 2, 4, 4, 4],
        table6: [4.4, 2.6, 4.4, 4.3, 4.4],
    },
    PaperRow {
        ckt: "b07",
        x_percent: Some(58.6),
        table2: [31, 30, 34, 27, 23, 23],
        table3: [27, 33, 38, 25, 15, 14],
        table4: [24, 31, 38, 23, 15, 11],
        table5: [23, 18, 17, 15, 11],
        table6: [15.7, 14.8, 13.1, 14.6, 13.3],
    },
    PaperRow {
        ckt: "b08",
        x_percent: Some(60.4),
        table2: [20, 20, 20, 18, 14, 12],
        table3: [16, 20, 18, 15, 8, 7],
        table4: [16, 18, 16, 14, 8, 6],
        table5: [14, 10, 9, 8, 6],
        table6: [7.8, 6.8, 8.1, 7.7, 6.3],
    },
    PaperRow {
        ckt: "b09",
        x_percent: None,
        table2: [18, 20, 22, 18, 18, 18],
        table3: [20, 19, 17, 16, 14, 14],
        table4: [14, 18, 16, 16, 11, 11],
        table5: [18, 11, 17, 14, 11],
        table6: [9.8, 8.4, 10.7, 8.9, 7.4],
    },
    PaperRow {
        ckt: "b10",
        x_percent: Some(58.7),
        table2: [12, 19, 17, 15, 10, 10],
        table3: [14, 20, 16, 14, 10, 7],
        table4: [10, 18, 14, 13, 9, 7],
        table5: [10, 9, 9, 10, 7],
        table6: [9.3, 8.8, 9.0, 8.7, 8.2],
    },
    PaperRow {
        ckt: "b11",
        x_percent: Some(64.1),
        table2: [22, 27, 29, 21, 20, 20],
        table3: [18, 26, 22, 20, 10, 9],
        table4: [15, 25, 22, 18, 10, 9],
        table5: [20, 12, 18, 10, 9],
        table6: [16.4, 15.4, 15.2, 14.6, 13.9],
    },
    PaperRow {
        ckt: "b12",
        x_percent: Some(76.9),
        table2: [63, 76, 62, 89, 59, 58],
        table3: [60, 76, 99, 68, 31, 31],
        table4: [59, 72, 99, 65, 30, 15],
        table5: [59, 46, 77, 31, 15],
        table6: [56.5, 49.4, 58.4, 39.3, 36.4],
    },
    PaperRow {
        ckt: "b13",
        x_percent: Some(65.4),
        table2: [31, 34, 38, 30, 30, 29],
        table3: [37, 32, 28, 23, 17, 17],
        table4: [28, 31, 28, 23, 15, 10],
        table5: [30, 20, 26, 17, 10],
        table6: [18.0, 13.7, 15.1, 14.7, 10.9],
    },
    PaperRow {
        ckt: "b14",
        x_percent: Some(77.9),
        table2: [181, 180, 194, 159, 157, 156],
        table3: [181, 164, 208, 152, 79, 79],
        table4: [168, 158, 208, 148, 77, 40],
        table5: [157, 89, 69, 79, 40],
        table6: [99.3, 101.7, 99.0, 86.5, 85.4],
    },
    PaperRow {
        ckt: "b15",
        x_percent: Some(87.8),
        table2: [305, 334, 344, 298, 292, 282],
        table3: [308, 277, 314, 198, 144, 144],
        table4: [296, 267, 314, 193, 141, 33],
        table5: [292, 172, 149, 144, 33],
        table6: [197.1, 171.0, 155.3, 140.4, 122.0],
    },
    PaperRow {
        ckt: "b17",
        x_percent: Some(89.9),
        table2: [916, 923, 943, 880, 871, 841],
        table3: [912, 774, 953, 680, 421, 421],
        table4: [882, 770, 953, 676, 419, 85],
        table5: [871, 573, 438, 421, 85],
        table6: [1085.5, 847.1, 665.5, 641.7, 431.6],
    },
    PaperRow {
        ckt: "b18",
        x_percent: Some(86.9),
        table2: [2134, 2167, 2251, 2114, 2066, 2009],
        table3: [2130, 1752, 2200, 1569, 1011, 1008],
        table4: [2030, 1741, 2200, 1550, 980, 232],
        table5: [2066, 1384, 1065, 1011, 232],
        table6: [3350.7, 2405.3, 2012.2, 1761.0, 1192.0],
    },
    PaperRow {
        ckt: "b19",
        x_percent: Some(89.8),
        table2: [3926, 4099, 4201, 3955, 3819, 3753],
        table3: [3926, 3457, 4340, 3168, 1877, 1877],
        table4: [3862, 3436, 4340, 3167, 1871, 364],
        table5: [3819, 2609, 2100, 1877, 364],
        table6: [7621.6, 6708.3, 5885.0, 4135.0, 2699.4],
    },
    PaperRow {
        ckt: "b20",
        x_percent: Some(75.3),
        table2: [309, 314, 315, 305, 302, 299],
        table3: [314, 291, 352, 297, 152, 152],
        table4: [301, 285, 352, 284, 143, 65],
        table5: [302, 214, 198, 152, 65],
        table6: [252.8, 243.0, 214.8, 202.6, 195.3],
    },
    PaperRow {
        ckt: "b21",
        x_percent: Some(73.2),
        table2: [317, 307, 315, 305, 276, 260],
        table3: [288, 290, 346, 237, 130, 130],
        table4: [280, 286, 333, 237, 129, 67],
        table5: [276, 181, 182, 130, 67],
        table6: [248.4, 226.1, 223.8, 183.2, 166.4],
    },
    PaperRow {
        ckt: "b22",
        x_percent: Some(74.1),
        table2: [489, 494, 507, 471, 472, 466],
        table3: [483, 419, 475, 440, 237, 234],
        table4: [451, 409, 475, 425, 210, 91],
        table5: [471, 324, 232, 237, 91],
        table6: [395.6, 372.8, 328.9, 304.8, 277.1],
    },
];

/// Looks up a paper row by benchmark name.
pub fn paper_row(ckt: &str) -> Option<&'static PaperRow> {
    PAPER.iter().find(|r| r.ckt == ckt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_cover_the_suite() {
        assert_eq!(PAPER.len(), 21);
        assert!(paper_row("b19").is_some());
        assert!(paper_row("b16").is_none());
    }

    #[test]
    fn dp_fill_column_is_never_worse_within_each_table() {
        // Internal consistency of the transcription: DP-fill (last
        // column) is the minimum of each row — the paper's own
        // optimality claim.
        for row in &PAPER {
            for table in [&row.table2, &row.table3, &row.table4] {
                let dp = table[5];
                assert!(
                    table.iter().all(|&v| dp <= v),
                    "{}: DP {dp} not minimal in {table:?}",
                    row.ckt
                );
            }
        }
    }

    #[test]
    fn proposed_table5_matches_table4_dp() {
        // The proposed technique is I-ordering + DP-fill, i.e. the DP
        // column of Table IV.
        for row in &PAPER {
            assert_eq!(row.table5[4], row.table4[5], "{}", row.ckt);
        }
    }

    #[test]
    fn tool_best_of_table5_matches_table2_minimum() {
        // Table V's "Tool" column is the best *existing* fill under the
        // tool ordering — the minimum of Table II excluding DP-fill.
        for row in &PAPER {
            let min_existing = *row.table2[..5].iter().min().unwrap();
            assert_eq!(row.table5[0], min_existing, "{}", row.ckt);
        }
    }
}
