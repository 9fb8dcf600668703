//! Fluent construction of application models.

use cedar_sim::Cycles;

use crate::spec::{AccessPattern, AppSpec, ArraySpec, BodySpec, Phase};

/// Builds an [`AppSpec`] incrementally.
///
/// # Example
///
/// ```
/// use cedar_apps::{AppBuilder, AccessPattern, BodySpec};
///
/// let app = AppBuilder::new("DEMO")
///     .array("grid", 256 * 1024)
///     .serial(5_000)
///     .sdoall(8, 16, BodySpec::compute(200).with_access(AccessPattern::sweep(0, 8)))
///     .build();
/// assert_eq!(app.name, "DEMO");
/// assert_eq!(app.total_bodies(), 8 * 16);
/// ```
#[derive(Debug, Clone)]
pub struct AppBuilder {
    name: &'static str,
    arrays: Vec<ArraySpec>,
    phases: Vec<Phase>,
}

impl AppBuilder {
    /// Starts a new application model.
    pub fn new(name: &'static str) -> Self {
        AppBuilder {
            name,
            arrays: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Declares a global array; access patterns reference arrays by
    /// declaration order (0-based).
    pub fn array(mut self, name: &'static str, bytes: u64) -> Self {
        self.arrays.push(ArraySpec { name, bytes });
        self
    }

    /// Appends a serial section with no memory traffic.
    pub fn serial(self, work: u64) -> Self {
        self.serial_with(work, Vec::new())
    }

    /// Appends a serial section that also touches global memory.
    pub(crate) fn serial_with(mut self, work: u64, accesses: Vec<AccessPattern>) -> Self {
        self.phases.push(Phase::Serial {
            work: Cycles(work),
            accesses,
        });
        self
    }

    /// Appends a main-cluster-only loop.
    pub fn cluster_loop(mut self, iters: u32, body: BodySpec) -> Self {
        self.phases.push(Phase::ClusterLoop { iters, body });
        self
    }

    /// Appends a hierarchical SDOALL/CDOALL nest.
    pub fn sdoall(mut self, outer: u32, inner: u32, body: BodySpec) -> Self {
        self.phases.push(Phase::Sdoall { outer, inner, body });
        self
    }

    /// Appends a flat XDOALL.
    pub fn xdoall(mut self, iters: u32, body: BodySpec) -> Self {
        self.phases.push(Phase::Xdoall { iters, body });
        self
    }

    /// Appends a main-cluster DOACROSS with a serialized region of
    /// `serial_region` cycles per iteration.
    pub fn doacross(mut self, iters: u32, body: BodySpec, serial_region: u64) -> Self {
        self.phases.push(Phase::Doacross {
            iters,
            body,
            serial_region: Cycles(serial_region),
        });
        self
    }

    /// Wraps the phases built by `inner` in a `Repeat` (time-step loop).
    pub fn repeat(mut self, times: u32, inner: impl FnOnce(AppBuilder) -> AppBuilder) -> Self {
        let sub = inner(AppBuilder::new(self.name));
        assert!(
            sub.arrays.is_empty(),
            "declare arrays on the outer builder, not inside repeat()"
        );
        self.phases.push(Phase::Repeat {
            times,
            phases: sub.phases,
        });
        self
    }

    /// Finalizes and validates the model.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`AppSpec::validate`].
    pub fn build(self) -> AppSpec {
        let spec = AppSpec {
            name: self.name,
            arrays: self.arrays,
            phases: self.phases,
        };
        spec.validate();
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_repeats() {
        let app = AppBuilder::new("T")
            .array("a", 64 * 1024)
            .repeat(3, |b| {
                b.serial(100)
                    .xdoall(4, BodySpec::compute(10))
                    .cluster_loop(2, BodySpec::compute(5))
            })
            .build();
        assert_eq!(app.flattened().len(), 9);
        assert_eq!(app.total_bodies(), 3 * (4 + 2));
        assert!(app.uses_xdoall());
        assert!(!app.uses_sdoall());
    }

    #[test]
    #[should_panic(expected = "outer builder")]
    fn arrays_inside_repeat_are_rejected() {
        AppBuilder::new("T")
            .repeat(2, |b| b.array("bad", 10))
            .build();
    }

    #[test]
    #[should_panic(expected = "missing array")]
    fn build_validates() {
        AppBuilder::new("T")
            .serial_with(1, vec![AccessPattern::sweep(0, 1)])
            .build();
    }
}
