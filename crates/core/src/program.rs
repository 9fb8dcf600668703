//! Compilation of an [`AppSpec`] into the flat phase list the machine
//! executes.

use std::sync::Arc;

use cedar_apps::{AppSpec, BodySpec, Phase};
use cedar_rtl::LoopKind;
use cedar_sim::Cycles;

/// One executable phase.
#[derive(Debug, Clone)]
pub(crate) enum CompiledPhase {
    /// Serial code on the main lead CE.
    Serial {
        /// Compute cycles.
        work: Cycles,
        /// Accesses performed after the compute.
        accesses: Vec<cedar_apps::AccessPattern>,
    },
    /// A parallel loop of any construct.
    Loop {
        /// Construct.
        kind: LoopKind,
        /// Outer (spread / flat / cluster) iteration count.
        outer: u32,
        /// Inner iterations per outer iteration (1 for flat and cluster
        /// loops).
        inner: u32,
        /// Per-(inner-)iteration work, shared with every task context
        /// that enters the loop (cluster entry clones a handle, not the
        /// access vector).
        body: Arc<BodySpec>,
        /// DOACROSS only: serialized-region work per iteration.
        serial_region: Cycles,
    },
}

/// The compiled program: flattened phases plus bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct CompiledProgram {
    phases: Vec<CompiledPhase>,
}

impl CompiledProgram {
    /// Compiles (validates and flattens) an application model.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    pub(crate) fn compile(app: &AppSpec) -> Self {
        app.validate();
        let phases = app
            .flattened()
            .into_iter()
            .map(|p| match p {
                Phase::Serial { work, accesses } => CompiledPhase::Serial { work, accesses },
                Phase::ClusterLoop { iters, body } => CompiledPhase::Loop {
                    kind: LoopKind::Cluster,
                    outer: 1,
                    inner: iters,
                    body: Arc::new(body),
                    serial_region: Cycles::ZERO,
                },
                Phase::Sdoall { outer, inner, body } => CompiledPhase::Loop {
                    kind: LoopKind::Sdoall,
                    outer,
                    inner,
                    body: Arc::new(body),
                    serial_region: Cycles::ZERO,
                },
                Phase::Xdoall { iters, body } => CompiledPhase::Loop {
                    kind: LoopKind::Xdoall,
                    outer: iters,
                    inner: 1,
                    body: Arc::new(body),
                    serial_region: Cycles::ZERO,
                },
                Phase::Doacross {
                    iters,
                    body,
                    serial_region,
                } => CompiledPhase::Loop {
                    kind: LoopKind::Doacross,
                    outer: 1,
                    inner: iters,
                    body: Arc::new(body),
                    serial_region,
                },
                Phase::Repeat { .. } => unreachable!("flattened() removes repeats"),
            })
            .collect();
        CompiledProgram { phases }
    }

    /// Phase at `idx`, if any.
    pub fn phase(&self, idx: usize) -> Option<&CompiledPhase> {
        self.phases.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_apps::synthetic;

    #[test]
    fn compiles_constructs_to_loop_kinds() {
        let p = CompiledProgram::compile(&synthetic::uniform_xdoall(1, 1, 16, 100, 4));
        let kinds: Vec<_> = p
            .phases
            .iter()
            .filter_map(|ph| match ph {
                CompiledPhase::Loop { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![LoopKind::Xdoall]);
    }

    #[test]
    fn sdoall_keeps_outer_inner_split() {
        let p = CompiledProgram::compile(&synthetic::uniform_sdoall(1, 1, 4, 8, 100, 4));
        let found = p.phases.iter().any(|ph| {
            matches!(
                ph,
                CompiledPhase::Loop {
                    kind: LoopKind::Sdoall,
                    outer: 4,
                    inner: 8,
                    ..
                }
            )
        });
        assert!(found);
    }

    #[test]
    fn xdoall_has_inner_one() {
        let p = CompiledProgram::compile(&synthetic::uniform_xdoall(1, 1, 16, 100, 4));
        for ph in &p.phases {
            if let CompiledPhase::Loop { inner, .. } = ph {
                assert_eq!(*inner, 1);
            }
        }
    }

    #[test]
    fn total_bodies_matches_spec() {
        let app = synthetic::uniform_sdoall(3, 2, 4, 8, 100, 4);
        let p = CompiledProgram::compile(&app);
        let bodies: u64 = p
            .phases
            .iter()
            .map(|ph| match ph {
                CompiledPhase::Serial { .. } => 0,
                CompiledPhase::Loop { outer, inner, .. } => *outer as u64 * *inner as u64,
            })
            .sum();
        assert_eq!(bodies, app.total_bodies());
    }
}
