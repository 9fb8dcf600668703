//! The deterministic occurrence engine behind a [`FaultPlan`].

use cedar_sim::{Cycles, SimTime, SplitMix64};

use crate::plan::FaultPlan;

/// The timed fault classes — the ones that ride the machine's event
/// queue as `Fault` events. The two static classes ([`crate::plan::LockInflation`],
/// [`crate::plan::DegradedNetwork`]) perturb the cost model directly and
/// need no occurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A burst of cross-processor interrupts.
    InterruptStorm,
    /// A burst of AST deliveries.
    AstBurst,
    /// A wave of synthetic page faults.
    PageFaultWave,
    /// A helper-task scheduling stall.
    HelperStall,
}

impl FaultKind {
    /// All timed classes, in stream order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::InterruptStorm,
        FaultKind::AstBurst,
        FaultKind::PageFaultWave,
        FaultKind::HelperStall,
    ];

    /// Dense index (the driver's stream row).
    pub fn index(self) -> usize {
        match self {
            FaultKind::InterruptStorm => 0,
            FaultKind::AstBurst => 1,
            FaultKind::PageFaultWave => 2,
            FaultKind::HelperStall => 3,
        }
    }

    /// Occurrence-counter name in the run's telemetry rollup.
    pub fn counter_name(self) -> &'static str {
        match self {
            FaultKind::InterruptStorm => "faults.occ.storm",
            FaultKind::AstBurst => "faults.occ.ast_burst",
            FaultKind::PageFaultWave => "faults.occ.pgflt_wave",
            FaultKind::HelperStall => "faults.occ.helper_stall",
        }
    }
}

/// The composition of one injected page-fault wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveShape {
    /// Faults charged as sequential.
    pub sequential: u32,
    /// Faults charged as concurrent.
    pub concurrent: u32,
}

/// Turns a [`FaultPlan`] into deterministic occurrence streams.
///
/// One `SplitMix64` per `(class, cluster)` pair, all derived from
/// [`FaultPlan::seed`]: a class's stream on one cluster never observes
/// how often other classes or clusters fire, so the streams are
/// independent of event interleaving — the property the fault
/// determinism suite leans on.
///
/// # Example
///
/// ```
/// use cedar_faults::{FaultDriver, FaultKind, FaultPlan};
/// use cedar_sim::Cycles;
///
/// let mut a = FaultDriver::new(&FaultPlan::canonical(), 2);
/// let mut b = FaultDriver::new(&FaultPlan::canonical(), 2);
/// assert_eq!(a.first_events(), b.first_events());
/// assert_eq!(
///     a.next_after(FaultKind::InterruptStorm, 0, Cycles(500)),
///     b.next_after(FaultKind::InterruptStorm, 0, Cycles(500)),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FaultDriver {
    plan: FaultPlan,
    n_clusters: usize,
    streams: Vec<SplitMix64>,
    occurrences: [u64; FaultKind::ALL.len()],
}

impl FaultDriver {
    /// Builds the driver for `n_clusters` clusters.
    pub fn new(plan: &FaultPlan, n_clusters: usize) -> Self {
        let mut root = SplitMix64::new(plan.seed);
        let streams = (0..FaultKind::ALL.len() * n_clusters)
            .map(|_| root.split())
            .collect();
        FaultDriver {
            plan: *plan,
            n_clusters,
            streams,
            occurrences: [0; FaultKind::ALL.len()],
        }
    }

    /// The plan this driver executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn stream(&mut self, kind: FaultKind, cluster: usize) -> &mut SplitMix64 {
        &mut self.streams[kind.index() * self.n_clusters + cluster]
    }

    /// Mean interval of a timed class, if armed. Helper stalls only
    /// apply to helper clusters (1..), never the main cluster.
    fn interval(&self, kind: FaultKind, cluster: usize) -> Option<Cycles> {
        match kind {
            FaultKind::InterruptStorm => self.plan.interrupt_storm.map(|s| s.mean_interval),
            FaultKind::AstBurst => self.plan.ast_burst.map(|s| s.mean_interval),
            FaultKind::PageFaultWave => self.plan.page_fault_wave.map(|s| s.mean_interval),
            FaultKind::HelperStall => self
                .plan
                .helper_stall
                .filter(|_| cluster >= 1)
                .map(|s| s.mean_interval),
        }
    }

    /// First occurrence of every armed timed class on every applicable
    /// cluster — what the machine schedules at startup.
    pub fn first_events(&mut self) -> Vec<(SimTime, FaultKind, usize)> {
        let mut out = Vec::new();
        for kind in FaultKind::ALL {
            for cluster in 0..self.n_clusters {
                if self.interval(kind, cluster).is_some() {
                    let t = self.draw_next(kind, cluster, Cycles::ZERO);
                    out.push((t, kind, cluster));
                }
            }
        }
        out
    }

    /// Time of the next occurrence of `kind` on `cluster` after `now`,
    /// counting the occurrence that just fired.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not armed for `cluster` — the machine only
    /// dispatches occurrences the driver itself scheduled.
    pub fn next_after(&mut self, kind: FaultKind, cluster: usize, now: SimTime) -> SimTime {
        self.occurrences[kind.index()] += 1;
        self.draw_next(kind, cluster, now)
    }

    /// Draws the jittered (±25%, like the OS daemon schedules) next
    /// occurrence time from the pair's own stream.
    fn draw_next(&mut self, kind: FaultKind, cluster: usize, now: SimTime) -> SimTime {
        let base = self
            .interval(kind, cluster)
            .expect("occurrence drawn for an unarmed fault class")
            .0;
        let jitter_span = base / 2;
        let jitter = self.stream(kind, cluster).next_below(jitter_span.max(1));
        let interval = base - jitter_span / 2 + jitter;
        now + Cycles(interval.max(1))
    }

    /// Draws one wave's sequential/concurrent split from the cluster's
    /// page-fault stream.
    ///
    /// # Panics
    ///
    /// Panics if no page-fault wave is armed.
    pub fn wave_shape(&mut self, cluster: usize) -> WaveShape {
        let spec = self
            .plan
            .page_fault_wave
            .expect("wave drawn with no page-fault wave armed");
        let mut concurrent = 0;
        for _ in 0..spec.faults_per_wave {
            let roll = self
                .stream(FaultKind::PageFaultWave, cluster)
                .next_below(100);
            if roll < spec.concurrent_pct as u64 {
                concurrent += 1;
            }
        }
        WaveShape {
            sequential: spec.faults_per_wave - concurrent,
            concurrent,
        }
    }

    /// Occurrences fired so far for `kind`, across all clusters.
    pub fn occurrences(&self, kind: FaultKind) -> u64 {
        self.occurrences[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{HelperStall, InterruptStorm};

    #[test]
    fn empty_plan_schedules_nothing() {
        let mut d = FaultDriver::new(&FaultPlan::default(), 4);
        assert!(d.first_events().is_empty());
    }

    #[test]
    fn canonical_plan_arms_every_cluster() {
        let mut d = FaultDriver::new(&FaultPlan::canonical(), 4);
        let first = d.first_events();
        // storms/asts/waves on all 4 clusters, stalls only on helpers.
        assert_eq!(first.len(), 4 + 4 + 4 + 3);
        assert!(first.iter().all(|&(t, _, _)| t > Cycles::ZERO));
    }

    #[test]
    fn helper_stalls_skip_the_main_cluster() {
        let plan = FaultPlan::default().with_helper_stall(HelperStall {
            mean_interval: Cycles(10_000),
            stall: Cycles(500),
        });
        let mut d = FaultDriver::new(&plan, 4);
        let first = d.first_events();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|&(_, _, c)| c >= 1));
    }

    #[test]
    fn streams_are_deterministic_and_independent_of_draw_order() {
        let plan = FaultPlan::canonical();
        let mut a = FaultDriver::new(&plan, 2);
        let mut b = FaultDriver::new(&plan, 2);
        // Interleave draws differently; per-(class,cluster) sequences
        // must match regardless.
        let a0 = a.next_after(FaultKind::InterruptStorm, 0, Cycles(100));
        let a1 = a.next_after(FaultKind::InterruptStorm, 1, Cycles(100));
        let b1 = b.next_after(FaultKind::InterruptStorm, 1, Cycles(100));
        let b0 = b.next_after(FaultKind::InterruptStorm, 0, Cycles(100));
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
    }

    #[test]
    fn intervals_jitter_within_25_percent_of_mean() {
        let plan = FaultPlan::default().with_interrupt_storm(InterruptStorm {
            mean_interval: Cycles(10_000),
            burst: 1,
        });
        let mut d = FaultDriver::new(&plan, 1);
        let mut now = Cycles::ZERO;
        let mut sum = 0u64;
        for _ in 0..200 {
            let next = d.next_after(FaultKind::InterruptStorm, 0, now);
            let dt = (next - now).0;
            assert!((7_400..=12_600).contains(&dt), "interval {dt} out of band");
            sum += dt;
            now = next;
        }
        let mean = sum as f64 / 200.0;
        assert!((mean - 10_000.0).abs() < 1_000.0, "mean drifted: {mean}");
        assert_eq!(d.occurrences(FaultKind::InterruptStorm), 200);
    }

    #[test]
    fn wave_shape_respects_the_mix_bounds() {
        let mut d = FaultDriver::new(&FaultPlan::canonical(), 1);
        let spec = FaultPlan::canonical().page_fault_wave.unwrap();
        let mut conc_total = 0u32;
        for _ in 0..100 {
            let shape = d.wave_shape(0);
            assert_eq!(shape.sequential + shape.concurrent, spec.faults_per_wave);
            conc_total += shape.concurrent;
        }
        // 50% mix over 600 draws: comfortably within [35%, 65%].
        let frac = conc_total as f64 / (100 * spec.faults_per_wave) as f64;
        assert!((0.35..=0.65).contains(&frac), "mix drifted: {frac}");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = FaultDriver::new(&FaultPlan::canonical(), 1);
        let mut b = FaultDriver::new(&FaultPlan::canonical().with_seed(7), 1);
        let same = (0..10)
            .filter(|_| {
                a.next_after(FaultKind::AstBurst, 0, Cycles::ZERO)
                    == b.next_after(FaultKind::AstBurst, 0, Cycles::ZERO)
            })
            .count();
        assert!(same < 10, "seed must change the occurrence stream");
    }
}
