//! Small derived metrics shared by tables and figures.

use cedar_sim::Cycles;

/// Speedup of `fast` over `base`.
///
/// # Example
///
/// ```
/// use cedar_core::metrics::speedup;
/// use cedar_sim::Cycles;
/// assert!((speedup(Cycles(1000), Cycles(250)) - 4.0).abs() < 1e-12);
/// ```
pub fn speedup(base: Cycles, fast: Cycles) -> f64 {
    if fast.0 == 0 {
        0.0
    } else {
        base.0 as f64 / fast.0 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_handles_zero() {
        assert_eq!(speedup(Cycles(10), Cycles(0)), 0.0);
    }
}
