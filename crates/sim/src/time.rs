//! Simulated time.
//!
//! The simulator counts **CE clock cycles**. The Cedar computational
//! elements are modelled as 10 MHz processors (Alliant FX/8 class), so one
//! cycle is 100 ns. The `cedarhpm` hardware performance monitor the paper
//! used timestamps events with 50 ns resolution, i.e. two *hpm ticks* per
//! CE cycle; [`HpmTicks`] preserves that resolution in recorded traces.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Nanoseconds per simulated CE clock cycle (10 MHz CE clock).
pub(crate) const CYCLE_NS: u64 = 100;

/// Nanoseconds per `cedarhpm` timestamp tick (the monitor's resolution).
pub(crate) const HPM_TICK_NS: u64 = 50;

/// `cedarhpm` ticks per CE cycle.
pub const HPM_TICKS_PER_CYCLE: u64 = CYCLE_NS / HPM_TICK_NS;

/// A duration or instant measured in CE clock cycles.
///
/// `Cycles` is the universal currency of the simulator: event timestamps,
/// component service times and accounted overheads are all `Cycles`.
///
/// # Example
///
/// ```
/// use cedar_sim::Cycles;
/// let t = Cycles(40) + Cycles(2);
/// assert_eq!(t, Cycles(42));
/// assert!((t.as_secs() - 4.2e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero duration / time origin.
    pub const ZERO: Cycles = Cycles(0);

    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Duration in simulated seconds at the modelled 10 MHz CE clock.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * CYCLE_NS as f64 * 1e-9
    }

    /// Duration in simulated milliseconds.
    pub fn as_millis(self) -> f64 {
        self.as_secs() * 1e3
    }

    /// Convert to the `cedarhpm` monitor's 50 ns timestamp ticks.
    pub fn to_hpm_ticks(self) -> HpmTicks {
        HpmTicks(self.0 * HPM_TICKS_PER_CYCLE)
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Fraction `self / total` as an `f64` in `[0, 1]` for non-degenerate
    /// inputs. Returns 0.0 when `total` is zero.
    pub fn fraction_of(self, total: Cycles) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }

    /// `self` scaled by a non-negative real factor, rounded to nearest.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Cycles {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Cycles((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Rem<u64> for Cycles {
    type Output = Cycles;
    fn rem(self, rhs: u64) -> Cycles {
        Cycles(self.0 % rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Cycles {
        Cycles(v)
    }
}

/// An instant on the simulation clock. Alias of [`Cycles`]: instants and
/// durations share the representation, as is conventional in DES kernels.
pub type SimTime = Cycles;

/// A timestamp in the `cedarhpm` monitor's 50 ns resolution.
///
/// Traces recorded by `cedar-trace` store `HpmTicks`, mirroring the
/// hardware monitor the paper describes (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HpmTicks(pub u64);

impl HpmTicks {
    /// Timestamp in simulated seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * HPM_TICK_NS as f64 * 1e-9
    }
}

impl fmt::Display for HpmTicks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}hpm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_behaves_like_u64() {
        assert_eq!(Cycles(3) + Cycles(4), Cycles(7));
        assert_eq!(Cycles(10) - Cycles(4), Cycles(6));
        assert_eq!(Cycles(3) * 4, Cycles(12));
        assert_eq!(Cycles(12) / 4, Cycles(3));
        assert_eq!(Cycles(13) % 4, Cycles(1));
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut t = Cycles(5);
        t += Cycles(2);
        assert_eq!(t, Cycles(7));
        t -= Cycles(3);
        assert_eq!(t, Cycles(4));
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(Cycles(3).saturating_sub(Cycles(10)), Cycles::ZERO);
        assert_eq!(Cycles(10).saturating_sub(Cycles(3)), Cycles(7));
    }

    #[test]
    fn hpm_ticks_are_half_cycles() {
        assert_eq!(Cycles(1234).to_hpm_ticks(), HpmTicks(2468));
    }

    #[test]
    fn seconds_conversion_uses_ten_megahertz_clock() {
        // 10_000_000 cycles at 10 MHz is exactly one simulated second.
        assert!((Cycles(10_000_000).as_secs() - 1.0).abs() < 1e-12);
        assert!((HpmTicks(20_000_000).as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_of_handles_zero_total() {
        assert_eq!(Cycles(5).fraction_of(Cycles::ZERO), 0.0);
        assert!((Cycles(25).fraction_of(Cycles(100)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn scale_rounds_to_nearest() {
        assert_eq!(Cycles(10).scale(0.5), Cycles(5));
        assert_eq!(Cycles(3).scale(0.5), Cycles(2)); // 1.5 rounds to 2
        assert_eq!(Cycles(100).scale(0.0), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scale_rejects_negative_factor() {
        let _ = Cycles(1).scale(-1.0);
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cycles(7).to_string(), "7cy");
        assert_eq!(HpmTicks(7).to_string(), "7hpm");
    }
}
