//! The application-model DSL.

use cedar_sim::Cycles;

/// A global-memory array the application operates on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySpec {
    /// Human-readable name (for documentation and traces).
    pub name: &'static str,
    /// Size in bytes. The layout engine page-aligns each array.
    pub bytes: u64,
}

/// One strided access a loop body (or serial section) performs against an
/// application array. The effective base address for iteration `i` is
///
/// `array_base + (base_offset + i * offset_per_iter) * 8  (mod array size)`
///
/// so successive iterations walk the array and the run's first touches of
/// each page trigger demand paging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPattern {
    /// Index into [`AppSpec::arrays`].
    pub array: usize,
    /// Double words transferred per execution.
    pub words: u32,
    /// Element stride in double words (1 = unit stride).
    pub stride_dwords: u64,
    /// Per-iteration base advance in double words.
    pub offset_per_iter: u64,
    /// Fixed base offset in double words.
    pub base_offset: u64,
}

impl AccessPattern {
    /// A unit-stride sweep: iteration `i` reads `words` consecutive
    /// double words starting `i * words` into the array.
    pub fn sweep(array: usize, words: u32) -> Self {
        AccessPattern {
            array,
            words,
            stride_dwords: 1,
            offset_per_iter: words as u64,
            base_offset: 0,
        }
    }

    /// A strided access (e.g. walking a matrix column).
    pub fn strided(array: usize, words: u32, stride_dwords: u64) -> Self {
        AccessPattern {
            array,
            words,
            stride_dwords,
            offset_per_iter: 1,
            base_offset: 0,
        }
    }
}

/// The work of one parallel-loop iteration (or serial section slice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodySpec {
    /// Computation before/around the memory traffic.
    pub compute: Cycles,
    /// Per-execution uniform jitter applied to `compute`, in percent
    /// (models data-dependent iteration cost; drives load imbalance).
    pub jitter_pct: u8,
    /// Global-memory vector accesses this body performs.
    pub accesses: Vec<AccessPattern>,
}

impl BodySpec {
    /// A pure-compute body.
    pub fn compute(cycles: u64) -> Self {
        BodySpec {
            compute: Cycles(cycles),
            jitter_pct: 0,
            accesses: Vec::new(),
        }
    }

    /// Adds an access to the body (builder style).
    pub fn with_access(mut self, a: AccessPattern) -> Self {
        self.accesses.push(a);
        self
    }

    /// Sets the compute jitter (builder style).
    pub fn with_jitter(mut self, pct: u8) -> Self {
        self.jitter_pct = pct;
        self
    }

    /// Total double words this body moves per execution.
    pub fn words(&self) -> u64 {
        self.accesses.iter().map(|a| a.words as u64).sum()
    }
}

/// One phase of the application's execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// Serial code on the main task's lead CE.
    Serial {
        /// Compute cycles.
        work: Cycles,
        /// Global-memory accesses performed during the section.
        accesses: Vec<AccessPattern>,
    },
    /// A main-cluster-only `cdoall` (no outer spread loop).
    ClusterLoop {
        /// Iterations, spread over the main cluster's CEs.
        iters: u32,
        /// Per-iteration work.
        body: BodySpec,
    },
    /// A hierarchical SDOALL/CDOALL nest: `outer` spread iterations are
    /// self-scheduled one at a time to cluster tasks; each expands into
    /// `inner` cluster iterations.
    Sdoall {
        /// Outer (spread) iterations.
        outer: u32,
        /// Inner (cluster) iterations per outer iteration.
        inner: u32,
        /// Per-inner-iteration work.
        body: BodySpec,
    },
    /// A flat XDOALL: all CEs of all clusters compete for iterations.
    Xdoall {
        /// Iterations.
        iters: u32,
        /// Per-iteration work.
        body: BodySpec,
    },
    /// A main-cluster DOACROSS: a parallel loop whose iterations each
    /// contain a region serialized in iteration order (§2: "to make it
    /// possible to serialize regions within a parallel loop").
    Doacross {
        /// Iterations, spread over the main cluster's CEs.
        iters: u32,
        /// Parallel part of each iteration.
        body: BodySpec,
        /// Serialized-region work, executed in iteration order.
        serial_region: Cycles,
    },
    /// A repeated sub-sequence (time-step loops).
    Repeat {
        /// Repetition count.
        times: u32,
        /// Phases repeated each time step.
        phases: Vec<Phase>,
    },
}

/// A complete application model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Application name as the paper's tables print it.
    pub name: &'static str,
    /// Global arrays.
    pub arrays: Vec<ArraySpec>,
    /// Top-level phase sequence.
    pub phases: Vec<Phase>,
}

impl AppSpec {
    /// Expands `Repeat` phases into a flat phase list.
    pub fn flattened(&self) -> Vec<Phase> {
        fn walk(phases: &[Phase], out: &mut Vec<Phase>) {
            for p in phases {
                match p {
                    Phase::Repeat { times, phases } => {
                        for _ in 0..*times {
                            walk(phases, out);
                        }
                    }
                    other => out.push(other.clone()),
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.phases, &mut out);
        out
    }

    /// Validates structural invariants: no access references a missing
    /// array or spans more than its array, and no loop or repetition
    /// count is zero.
    ///
    /// # Panics
    ///
    /// Panics with the first violation's message. Model constructors
    /// and tests call it; a malformed spec is a programming error.
    pub fn validate(&self) {
        let check_access = |a: &AccessPattern| -> Result<(), String> {
            let arr = self.arrays.get(a.array).ok_or_else(|| {
                format!("{}: access references missing array {}", self.name, a.array)
            })?;
            let span = (a.words as u64) * a.stride_dwords * 8;
            if span > arr.bytes {
                return Err(format!(
                    "{}: access span {} exceeds array '{}' ({} bytes)",
                    self.name, span, arr.name, arr.bytes
                ));
            }
            Ok(())
        };
        let check_accesses =
            |accesses: &[AccessPattern]| accesses.iter().try_for_each(check_access);
        let check_body = |b: &BodySpec| check_accesses(&b.accesses);
        fn walk<'a>(
            phases: &'a [Phase],
            f: &mut dyn FnMut(&'a Phase) -> Result<(), String>,
        ) -> Result<(), String> {
            for p in phases {
                f(p)?;
                if let Phase::Repeat { phases, .. } = p {
                    walk(phases, f)?;
                }
            }
            Ok(())
        }
        let checked = walk(&self.phases, &mut |p| match p {
            Phase::Serial { accesses, .. } => check_accesses(accesses),
            Phase::ClusterLoop { iters, body } => {
                if *iters == 0 {
                    return Err(format!("{}: zero-iteration cluster loop", self.name));
                }
                check_body(body)
            }
            Phase::Sdoall { outer, inner, body } => {
                if *outer == 0 || *inner == 0 {
                    return Err(format!(
                        "{}: degenerate sdoall {}x{}",
                        self.name, outer, inner
                    ));
                }
                check_body(body)
            }
            Phase::Xdoall { iters, body } => {
                if *iters == 0 {
                    return Err(format!("{}: zero-iteration xdoall", self.name));
                }
                check_body(body)
            }
            Phase::Doacross { iters, body, .. } => {
                if *iters == 0 {
                    return Err(format!("{}: zero-iteration doacross", self.name));
                }
                check_body(body)
            }
            Phase::Repeat { times, .. } => {
                if *times == 0 {
                    return Err(format!("{}: zero-repetition phase", self.name));
                }
                Ok(())
            }
        });
        if let Err(msg) = checked {
            panic!("{msg}");
        }
    }

    /// A reduced copy for fast tests: every `Repeat` count is divided by
    /// `factor` (minimum 1). Loop iteration counts and granularity are
    /// untouched, so per-loop behaviour is preserved.
    pub fn shrunk(&self, factor: u32) -> AppSpec {
        fn shrink(phases: &[Phase], factor: u32) -> Vec<Phase> {
            phases
                .iter()
                .map(|p| match p {
                    Phase::Repeat { times, phases } => Phase::Repeat {
                        times: (times / factor).max(1),
                        phases: shrink(phases, factor),
                    },
                    other => other.clone(),
                })
                .collect()
        }
        AppSpec {
            name: self.name,
            arrays: self.arrays.clone(),
            phases: shrink(&self.phases, factor),
        }
    }

    /// Counts total loop bodies executed (for test budgeting).
    pub fn total_bodies(&self) -> u64 {
        self.flattened()
            .iter()
            .map(|p| match p {
                Phase::Serial { .. } => 0,
                Phase::ClusterLoop { iters, .. } => *iters as u64,
                Phase::Sdoall { outer, inner, .. } => *outer as u64 * *inner as u64,
                Phase::Xdoall { iters, .. } => *iters as u64,
                Phase::Doacross { iters, .. } => *iters as u64,
                Phase::Repeat { .. } => unreachable!("flattened"),
            })
            .sum()
    }

    /// `true` if the app uses the given construct anywhere.
    pub fn uses_xdoall(&self) -> bool {
        self.flattened()
            .iter()
            .any(|p| matches!(p, Phase::Xdoall { .. }))
    }

    /// `true` if the app uses the hierarchical construct anywhere.
    pub fn uses_sdoall(&self) -> bool {
        self.flattened()
            .iter()
            .any(|p| matches!(p, Phase::Sdoall { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AppSpec {
        AppSpec {
            name: "TINY",
            arrays: vec![ArraySpec {
                name: "a",
                bytes: 64 * 1024,
            }],
            phases: vec![Phase::Repeat {
                times: 4,
                phases: vec![
                    Phase::Serial {
                        work: Cycles(100),
                        accesses: vec![],
                    },
                    Phase::Sdoall {
                        outer: 2,
                        inner: 3,
                        body: BodySpec::compute(50).with_access(AccessPattern::sweep(0, 8)),
                    },
                ],
            }],
        }
    }

    #[test]
    fn flatten_expands_repeats() {
        let flat = tiny().flattened();
        assert_eq!(flat.len(), 8); // 4 x (serial + sdoall)
        assert!(matches!(flat[0], Phase::Serial { .. }));
        assert!(matches!(flat[1], Phase::Sdoall { .. }));
    }

    #[test]
    fn total_bodies_counts_inner_iterations() {
        assert_eq!(tiny().total_bodies(), 4 * 2 * 3);
    }

    #[test]
    fn construct_usage_flags() {
        let t = tiny();
        assert!(t.uses_sdoall());
        assert!(!t.uses_xdoall());
    }

    #[test]
    fn shrunk_divides_repeat_counts() {
        let s = tiny().shrunk(4);
        assert_eq!(s.total_bodies(), 2 * 3);
        let s1 = tiny().shrunk(100);
        assert_eq!(s1.total_bodies(), 2 * 3, "repeat count clamps at 1");
    }

    #[test]
    fn validate_accepts_well_formed_spec() {
        tiny().validate();
    }

    #[test]
    #[should_panic(expected = "zero-iteration xdoall")]
    fn validate_rejects_zero_iteration_loop() {
        let mut t = tiny();
        t.phases = vec![Phase::Xdoall {
            iters: 0,
            body: BodySpec::compute(1),
        }];
        t.validate();
    }

    #[test]
    #[should_panic(expected = "missing array")]
    fn validate_rejects_bad_array_reference() {
        let mut t = tiny();
        t.phases = vec![Phase::Serial {
            work: Cycles(1),
            accesses: vec![AccessPattern::sweep(9, 4)],
        }];
        t.validate();
    }

    #[test]
    #[should_panic(expected = "exceeds array")]
    fn validate_rejects_oversized_access() {
        let mut t = tiny();
        t.phases = vec![Phase::Serial {
            work: Cycles(1),
            accesses: vec![AccessPattern::sweep(0, 100_000)],
        }];
        t.validate();
    }

    #[test]
    fn body_words_sums_accesses() {
        let b = BodySpec::compute(10)
            .with_access(AccessPattern::sweep(0, 8))
            .with_access(AccessPattern::strided(0, 4, 2));
        assert_eq!(b.words(), 12);
    }

    #[test]
    fn access_constructors() {
        let s = AccessPattern::sweep(1, 16);
        assert_eq!(s.offset_per_iter, 16);
        assert_eq!(s.stride_dwords, 1);
        let t = AccessPattern::strided(0, 8, 4);
        assert_eq!(t.stride_dwords, 4);
        assert_eq!(t.offset_per_iter, 1);
    }
}
