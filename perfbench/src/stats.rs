//! Summary statistics and metric naming for the benchmark's report.
//!
//! Timings are summarised as a median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail
//! figure is never read off a handful of samples. Ratios carry their
//! base, so a reader can tell 1 of 2 from 500 of 1000.

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first. p99.9 is left out: on a
/// shared host the last ten of a few thousand millisecond operations are
/// host stalls, and the figure swings several-fold from run to run.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
fn nearest_rank(v: &[f64], p: f64) -> (f64, usize) {
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(v.len());
    (v[rank - 1], v.len() - rank)
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen, e.g. 99.0.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With too few samples for even
/// the median to qualify, the median is returned and `beyond` shows the
/// shortfall. `None` only for an empty sample.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let pick = |pct: f64| {
        let (value, beyond) = nearest_rank(&v, pct);
        Tail {
            pct,
            value,
            beyond,
            n: v.len(),
        }
    };
    Some(
        TAIL_LADDER
            .iter()
            .map(|&p| pick(p))
            .find(|t| t.beyond >= TAIL_MIN_BEYOND)
            .unwrap_or_else(|| pick(50.0)),
    )
}

/// Operations per block in [`blocked_tail`]: enough for p99 to keep ten
/// samples beyond it.
pub const TAIL_BLOCK: usize = 1000;

/// A tail robust to host stalls: the samples (in time order) are cut into
/// consecutive blocks of at least `block`, each block's [`tail`] is taken,
/// and the median over blocks is returned with the block count. A stall
/// that lasts a few seconds then moves one block, not the whole figure.
/// With fewer than two blocks' worth of samples this is [`tail`] itself.
pub fn blocked_tail(xs: &[f64], block: usize) -> Option<(Tail, usize)> {
    let blocks = xs.len() / block.max(1);
    if blocks < 2 {
        return tail(xs).map(|t| (t, 1));
    }
    let size = xs.len() / blocks;
    let tails: Vec<Tail> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                xs.len()
            } else {
                (b + 1) * size
            };
            tail(&xs[b * size..end]).expect("blocks are not empty")
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let t = Tail {
        value: median(&values),
        beyond: tails.iter().map(|t| t.beyond).min().unwrap_or(0),
        ..tails[0]
    };
    Some((t, blocks))
}

/// Quartiles `(q1, q2, q3)` computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so the benchmark and a reader's spreadsheet agree. Needs at
/// least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound is compared against.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A ratio that remembers its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub part: f64,
    /// Denominator: what the ratio is "of".
    pub base: f64,
}

impl Ratio {
    /// `part / base`.
    pub fn new(part: f64, base: f64) -> Ratio {
        Ratio { part, base }
    }

    /// The ratio's value; 0 when the base is 0.
    pub fn value(self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.part / self.base
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6} ({} of {})", self.value(), self.part, self.base)
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=1000: p99 leaves exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));

        // 250 samples: p99 leaves 2, p95 leaves 12.
        let xs: Vec<f64> = (1..=250).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.beyond), (95.0, 12));
        assert!(t.beyond >= TAIL_MIN_BEYOND);

        // The ladder tops out at p99.
        let xs: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().pct, 99.0);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_tiny_samples() {
        let t = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((t.pct, t.value, t.n), (50.0, 3.0, 3));
        assert!(t.beyond < TAIL_MIN_BEYOND);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn blocked_tail_shrugs_off_one_stalled_block() {
        // 5 blocks of 1000; the third is a host stall.
        let xs: Vec<f64> = (0..5000)
            .map(|i| {
                if (2000..3000).contains(&i) {
                    50.0
                } else {
                    1.0 + (i % 1000) as f64 / 1000.0
                }
            })
            .collect();
        let (t, blocks) = blocked_tail(&xs, TAIL_BLOCK).unwrap();
        assert_eq!(blocks, 5);
        assert_eq!((t.pct, t.beyond, t.n), (99.0, 10, 1000));
        assert!((t.value - 1.989).abs() < 1e-9, "{}", t.value);
        // The plain tail of the same samples is the stall.
        assert_eq!(tail(&xs).unwrap().value, 50.0);
        // Too few samples for two blocks: the plain tail.
        let few: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(
            blocked_tail(&few, TAIL_BLOCK),
            Some((tail(&few).unwrap(), 1))
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([1, 9], n=4) == [-1.0, 5.0, 11.0]: the
        // exclusive method extrapolates beyond the data.
        assert_eq!(quartiles(&[9.0, 1.0]), Some((-1.0, 5.0, 11.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&xs).unwrap();
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio::new(1.0, 4.0);
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.base, 4.0);
        assert_eq!(r.to_string(), "0.250000 (1 of 4)");
        assert_eq!(Ratio::new(3.0, 0.0).value(), 0.0, "empty base reads 0");
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "wall_s",
            "queue.spill_ratio",
            "gmem.hops-per-packet",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "ms/op",
            "ü",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }
}
