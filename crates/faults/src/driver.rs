//! The deterministic occurrence engine behind a [`FaultPlan`].

use cedar_sim::{Cycles, SimTime, SplitMix64};

use crate::plan::{FaultPlan, WAVE_CONCURRENT_PCT, WAVE_FAULTS};

/// Seed of the driver's per-`(class, cluster)` occurrence streams;
/// independent of the machine's master seed.
const STREAM_SEED: u64 = 0xFA17_57ED;

/// The six fault classes, each targeting one attribution surface. The
/// first four are timed: they ride the machine's event queue as `Fault`
/// events, and their order is the driver's stream order. The two static
/// classes perturb the cost model directly and need no occurrences.
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
    /// Kernel-lock hold inflation (static).
    LockInflation,
    /// Degraded switch and module latencies (static).
    DegradedNetwork,
}

impl FaultKind {
    /// All six classes, the timed ones first.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::InterruptStorm,
        FaultKind::AstBurst,
        FaultKind::PageFaultWave,
        FaultKind::HelperStall,
        FaultKind::LockInflation,
        FaultKind::DegradedNetwork,
    ];
}

/// The timed classes' occurrence counters in the run's telemetry
/// rollup, in stream order.
const OCCURRENCE_COUNTERS: [&str; 4] = [
    "faults.occ.storm",
    "faults.occ.ast_burst",
    "faults.occ.pgflt_wave",
    "faults.occ.helper_stall",
];

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
/// One `SplitMix64` per `(timed class, cluster)` pair, all derived from
/// one fixed seed: a class's stream on one cluster never observes how
/// often other classes or clusters fire, so the streams are independent
/// of event interleaving — the property the fault determinism suite
/// leans on.
///
/// # Example
///
/// ```
/// use cedar_faults::{FaultDriver, FaultKind, FaultPlan};
/// use cedar_sim::Cycles;
///
/// let mut a = FaultDriver::new(&FaultPlan::canonical_at(1), 2);
/// let mut b = FaultDriver::new(&FaultPlan::canonical_at(1), 2);
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
    occurrences: [u64; OCCURRENCE_COUNTERS.len()],
}

impl FaultDriver {
    /// Builds the driver for `n_clusters` clusters.
    pub fn new(plan: &FaultPlan, n_clusters: usize) -> Self {
        let mut root = SplitMix64::new(STREAM_SEED);
        let streams = (0..OCCURRENCE_COUNTERS.len() * n_clusters)
            .map(|_| root.split())
            .collect();
        FaultDriver {
            plan: *plan,
            n_clusters,
            streams,
            occurrences: [0; OCCURRENCE_COUNTERS.len()],
        }
    }

    /// A timed class's stream on `cluster`; the class is its row.
    fn stream(&mut self, kind: FaultKind, cluster: usize) -> &mut SplitMix64 {
        &mut self.streams[kind as usize * self.n_clusters + cluster]
    }

    /// Mean interval of a timed class on `cluster`, if armed (never for
    /// a static class). Helper stalls only apply to helper clusters
    /// (1..), never the main cluster.
    fn interval(&self, kind: FaultKind, cluster: usize) -> Option<Cycles> {
        self.plan
            .interval(kind)
            .filter(|_| kind != FaultKind::HelperStall || cluster >= 1)
    }

    /// First occurrence of every armed timed class on every applicable
    /// cluster — what the machine schedules at startup.
    pub fn first_events(&mut self) -> Vec<(SimTime, FaultKind, usize)> {
        let mut out = Vec::new();
        for kind in FaultKind::ALL {
            for cluster in 0..self.n_clusters {
                if let Some(mean) = self.interval(kind, cluster) {
                    let t = self.stream(kind, cluster).jittered(Cycles::ZERO, mean);
                    out.push((t, kind, cluster));
                }
            }
        }
        out
    }

    /// Time of the next occurrence of `kind` on `cluster` after `now`,
    /// counting the occurrence that just fired. Draws the interval
    /// jittered ±25%, like the OS daemon schedules, from the pair's own
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not armed for `cluster` — the machine only
    /// dispatches occurrences the driver itself scheduled.
    pub fn next_after(&mut self, kind: FaultKind, cluster: usize, now: SimTime) -> SimTime {
        let mean = self
            .interval(kind, cluster)
            .expect("occurrence drawn for an unarmed fault class");
        self.occurrences[kind as usize] += 1;
        self.stream(kind, cluster).jittered(now, mean)
    }

    /// Draws one wave's sequential/concurrent split from the cluster's
    /// page-fault stream.
    pub fn wave_shape(&mut self, cluster: usize) -> WaveShape {
        let stream = self.stream(FaultKind::PageFaultWave, cluster);
        let concurrent = (0..WAVE_FAULTS)
            .filter(|_| stream.next_below(100) < WAVE_CONCURRENT_PCT)
            .count() as u32;
        WaveShape {
            sequential: WAVE_FAULTS - concurrent,
            concurrent,
        }
    }

    /// Each timed class's occurrence counter name and the occurrences
    /// fired so far across all clusters.
    pub fn occurrences(&self) -> impl Iterator<Item = (&'static str, u64)> {
        OCCURRENCE_COUNTERS.into_iter().zip(self.occurrences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::STORM_INTERVAL;

    #[test]
    fn empty_plan_schedules_nothing() {
        let mut d = FaultDriver::new(&FaultPlan::default(), 4);
        assert!(d.first_events().is_empty());
    }

    #[test]
    fn canonical_plan_arms_every_cluster() {
        let mut d = FaultDriver::new(&FaultPlan::canonical_at(1), 4);
        let first = d.first_events();
        // storms/asts/waves on all 4 clusters, stalls only on helpers.
        assert_eq!(first.len(), 4 + 4 + 4 + 3);
        assert!(first.iter().all(|&(t, _, _)| t > Cycles::ZERO));
    }

    #[test]
    fn helper_stalls_skip_the_main_cluster() {
        let plan = FaultPlan::canonical_at(3).only(FaultKind::HelperStall);
        let mut d = FaultDriver::new(&plan, 4);
        let first = d.first_events();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|&(_, _, c)| c >= 1));
    }

    #[test]
    fn streams_are_deterministic_and_independent_of_draw_order() {
        let plan = FaultPlan::canonical_at(1);
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
        let plan = FaultPlan::canonical_at(4).only(FaultKind::InterruptStorm);
        let mean = STORM_INTERVAL.0 / 4;
        let mut d = FaultDriver::new(&plan, 1);
        let mut now = Cycles::ZERO;
        let mut sum = 0u64;
        for _ in 0..200 {
            let next = d.next_after(FaultKind::InterruptStorm, 0, now);
            let dt = (next - now).0;
            assert!(
                (mean * 3 / 4..=mean * 5 / 4).contains(&dt),
                "interval {dt} out of band"
            );
            sum += dt;
            now = next;
        }
        let observed = sum as f64 / 200.0;
        assert!(
            (observed - mean as f64).abs() < mean as f64 / 10.0,
            "mean drifted: {observed}"
        );
        let counted: Vec<_> = d.occurrences().collect();
        assert_eq!(counted[0], ("faults.occ.storm", 200));
        assert!(counted[1..].iter().all(|&(_, n)| n == 0));
    }

    #[test]
    fn wave_shape_respects_the_mix_bounds() {
        let mut d = FaultDriver::new(&FaultPlan::canonical_at(1), 1);
        let mut conc_total = 0u32;
        for _ in 0..100 {
            let shape = d.wave_shape(0);
            assert_eq!(shape.sequential + shape.concurrent, WAVE_FAULTS);
            conc_total += shape.concurrent;
        }
        // 50% mix over 600 draws: comfortably within [35%, 65%].
        let frac = conc_total as f64 / (100 * WAVE_FAULTS) as f64;
        assert!((0.35..=0.65).contains(&frac), "mix drifted: {frac}");
    }
}
