//! The paper's published numbers, as data.
//!
//! Transcribed from Tables 1, 3 and 4 of Natarajan, Sharma & Iyer
//! (ISCA 1994) so that reproduction quality can be rendered — and
//! asserted — side by side with the simulator's output.

use cedar_core::methodology::{contention_overhead, parallel_loop_concurrency};
use cedar_core::suite::SuiteResult;
use cedar_hw::Configuration;

use crate::table::{fnum, TextTable};

/// One application's published Table 1 row set.
#[derive(Debug, Clone, Copy)]
pub struct PaperTable1 {
    /// Application name.
    pub app: &'static str,
    /// Completion times in seconds, 1/4/8/16/32 processors.
    pub ct: [f64; 5],
    /// Speedups, 4/8/16/32 processors.
    pub speedup: [f64; 4],
    /// Average concurrency, 4/8/16/32 processors.
    pub concurrency: [f64; 4],
}

/// Table 1 as published.
pub const TABLE1: [PaperTable1; 5] = [
    PaperTable1 {
        app: "FLO52",
        ct: [613.0, 214.0, 145.0, 96.0, 73.0],
        speedup: [2.86, 4.23, 6.39, 8.40],
        concurrency: [3.49, 6.11, 9.66, 14.82],
    },
    PaperTable1 {
        app: "ARC2D",
        ct: [2139.0, 593.0, 342.0, 203.0, 142.0],
        speedup: [3.61, 6.25, 10.54, 15.06],
        concurrency: [3.70, 6.82, 12.28, 20.56],
    },
    PaperTable1 {
        app: "MDG",
        ct: [4935.0, 1260.0, 663.0, 346.0, 202.0],
        speedup: [3.89, 7.44, 14.26, 24.43],
        concurrency: [3.92, 7.60, 15.14, 28.82],
    },
    PaperTable1 {
        app: "OCEAN",
        ct: [2726.0, 711.0, 381.0, 230.0, 175.0],
        speedup: [3.83, 7.16, 11.85, 15.58],
        concurrency: [3.86, 7.53, 12.98, 17.27],
    },
    PaperTable1 {
        app: "ADM",
        ct: [707.0, 208.0, 121.0, 83.0, 80.0],
        speedup: [3.40, 5.84, 8.52, 8.84],
        concurrency: [3.46, 6.06, 9.42, 13.56],
    },
];

/// Table 4's published contention overheads (`Ov_cont`, %), 4/8/16/32
/// processors.
pub const TABLE4_OV: [(&str, [f64; 4]); 5] = [
    ("FLO52", [17.0, 27.0, 24.0, 21.0]),
    ("ARC2D", [3.4, 8.8, 10.3, 14.1]),
    ("MDG", [1.3, 4.1, 7.2, 13.4]),
    ("OCEAN", [3.5, 6.3, 8.0, 7.4]),
    ("ADM", [1.9, 4.1, 5.9, 12.5]),
];

/// Table 3's published main-task parallel-loop concurrency at 32p.
pub(crate) const TABLE3_MAIN_32P: [(&str, f64); 5] = [
    ("FLO52", 6.85),
    ("ARC2D", 7.62),
    ("MDG", 7.98),
    ("OCEAN", 5.74),
    ("ADM", 5.89),
];

/// The multi-processor configurations, in table-column order.
const MULTI: [Configuration; 4] = [
    Configuration::P4,
    Configuration::P8,
    Configuration::P16,
    Configuration::P32,
];

/// Side-by-side speedups: paper vs measured.
pub fn speedup_comparison(suite: &SuiteResult) -> String {
    let mut t = TextTable::new(vec![
        "Program", "source", "4 proc", "8 proc", "16 proc", "32 proc",
    ]);
    for p in TABLE1 {
        let app = suite.app(p.app);
        let base = app.baseline();
        let mut paper = vec![p.app.to_string(), "paper".into()];
        let mut ours = vec!["".to_string(), "measured".into()];
        for (i, c) in MULTI.into_iter().enumerate() {
            paper.push(fnum(p.speedup[i], 2));
            ours.push(fnum(app.run(c).speedup_over(base), 2));
        }
        t.row(paper);
        t.row(ours);
        t.separator();
    }
    format!("Speedups: paper vs measured\n{}", t.render())
}

/// Side-by-side average concurrency: paper vs measured.
pub fn concurrency_comparison(suite: &SuiteResult) -> String {
    let mut t = TextTable::new(vec![
        "Program", "source", "4 proc", "8 proc", "16 proc", "32 proc",
    ]);
    for p in TABLE1 {
        let app = suite.app(p.app);
        let mut paper = vec![p.app.to_string(), "paper".into()];
        let mut ours = vec!["".to_string(), "measured".into()];
        for (i, c) in MULTI.into_iter().enumerate() {
            paper.push(fnum(p.concurrency[i], 2));
            ours.push(fnum(app.run(c).total_concurrency(), 2));
        }
        t.row(paper);
        t.row(ours);
        t.separator();
    }
    format!("Average concurrency: paper vs measured\n{}", t.render())
}

/// Side-by-side contention overheads (Table 4): paper vs measured.
pub fn contention_comparison(suite: &SuiteResult) -> String {
    let mut t = TextTable::new(vec![
        "Program", "source", "4 proc", "8 proc", "16 proc", "32 proc",
    ]);
    for (name, ov) in TABLE4_OV {
        let app = suite.app(name);
        let base = app.baseline();
        let mut paper = vec![name.to_string(), "paper".into()];
        let mut ours = vec!["".to_string(), "measured".into()];
        for (i, c) in MULTI.into_iter().enumerate() {
            paper.push(fnum(ov[i], 1));
            ours.push(fnum(contention_overhead(base, app.run(c)).overhead_pct, 1));
        }
        t.row(paper);
        t.row(ours);
        t.separator();
    }
    format!(
        "GM & network contention overhead (% of CT): paper vs measured\n{}",
        t.render()
    )
}

/// Side-by-side Table 3 main-task parallel-loop concurrency at 32p.
pub fn table3_comparison(suite: &SuiteResult) -> String {
    let mut t = TextTable::new(vec!["Program", "paper 32p", "measured 32p"]);
    for (name, paper) in TABLE3_MAIN_32P {
        let cc = parallel_loop_concurrency(suite.app(name).run(Configuration::P32));
        t.row(vec![
            name.to_string(),
            fnum(paper, 2),
            fnum(cc[0].par_concurr, 2),
        ]);
    }
    format!(
        "Main-task parallel-loop concurrency at 32p: paper vs measured\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_internally_consistent() {
        for p in TABLE1 {
            // Speedup columns must match CT ratios (the paper's own data).
            for (i, s) in p.speedup.iter().enumerate() {
                let from_ct = p.ct[0] / p.ct[i + 1];
                assert!(
                    (from_ct - s).abs() / s < 0.02,
                    "{}: speedup {} vs CT ratio {}",
                    p.app,
                    s,
                    from_ct
                );
            }
            // §3.1 result 2: speedup below concurrency, in the paper too.
            for (s, c) in p.speedup.iter().zip(p.concurrency.iter()) {
                assert!(s < c, "{}: paper speedup must be below concurrency", p.app);
            }
        }
    }

    #[test]
    fn paper_contention_peaks_for_flo52() {
        let flo = TABLE4_OV[0].1;
        assert_eq!(TABLE4_OV[0].0, "FLO52");
        assert!(flo[1] > flo[0] && flo[1] > flo[3], "peaked at 8p");
        for (name, ov) in &TABLE4_OV[1..] {
            assert!(
                flo[3] > ov[3] || *name == "ARC2D",
                "FLO52 leads at 32p (ARC2D comes close)"
            );
        }
    }
}
