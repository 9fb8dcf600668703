//! The timer table: every periodic per-cluster activity of a run.
//!
//! Seven activities fire periodically on each cluster: Xylem's
//! bookkeeping daemon and its asynchronous system traps (§5.1), a
//! competing job's gang quanta under a background load, and the four
//! timed classes of the run's fault plan. Each `(timer, cluster)` pair
//! holds one `SplitMix64` stream and one mean interval; an unarmed pair
//! has a zero mean and never fires. One handler,
//! [`Machine::on_timer`], serves all seven: it stops once the program
//! has finished, otherwise counts the occurrence, schedules the next one
//! `SplitMix64::jittered` (±25% around the mean) from the pair's stream
//! and then charges the activity (`machine/os.rs`, `machine/faults.rs`).
//! The next occurrence's time never depends on what this one does.
//!
//! Determinism discipline:
//!
//! - **Seeds.** The daemon, AST and background streams each take one
//!   draw per cluster from the machine's master RNG, in that
//!   timer-major order, the background ones only under a load. The four
//!   fault streams are split, kind-major, from one fixed seed and never
//!   touch the master RNG, so an **empty plan is a no-op**: the run is
//!   byte-identical to one without the faults subsystem. Each fault
//!   stream draws its intervals and its occurrences' decisions (a
//!   wave's concurrent-or-sequential coin flips, after the interval)
//!   alone, so it never observes how often other classes or clusters
//!   fire, and a plan reproduces exactly under any suite worker count.
//! - **First occurrences** are jittered from time 0 and scheduled per
//!   cluster (daemon, AST, background), then the fault timers,
//!   kind-major. Helper stalls never arm on the main cluster.

use cedar_faults::{FaultKind, WAVE_CONCURRENT_PCT, WAVE_FAULTS};
use cedar_sim::{Cycles, SimTime, SplitMix64};
use cedar_xylem::config::{AST_INTERVAL, CTX_INTERVAL};

use super::Machine;
use crate::config::SimConfig;
use crate::events::Ev;

/// Seed of the fault timers' streams; independent of the master seed.
const FAULT_STREAM_SEED: u64 = 0xFA17_57ED;

/// The seven periodic activities, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timer {
    /// The OS bookkeeping daemon.
    Daemon,
    /// An asynchronous system trap.
    Ast,
    /// A competing job's gang quantum (multiprogrammed extension).
    Background,
    /// [`FaultKind::InterruptStorm`].
    InterruptStorm,
    /// [`FaultKind::AstBurst`].
    AstBurst,
    /// [`FaultKind::PageFaultWave`].
    PageFaultWave,
    /// [`FaultKind::HelperStall`].
    HelperStall,
}

/// The OS timers, armed per cluster in this order.
const OS_TIMERS: [Timer; 3] = [Timer::Daemon, Timer::Ast, Timer::Background];

/// The fault timers in stream order, each with its fault class.
const FAULT_TIMERS: [(Timer, FaultKind); 4] = [
    (Timer::InterruptStorm, FaultKind::InterruptStorm),
    (Timer::AstBurst, FaultKind::AstBurst),
    (Timer::PageFaultWave, FaultKind::PageFaultWave),
    (Timer::HelperStall, FaultKind::HelperStall),
];

/// The fault timers' occurrence counters in the run's telemetry rollup,
/// in stream order.
const OCCURRENCE_COUNTERS: [&str; 4] = [
    "faults.occ.storm",
    "faults.occ.ast_burst",
    "faults.occ.pgflt_wave",
    "faults.occ.helper_stall",
];

/// How many timers there are.
const TIMER_COUNT: usize = OS_TIMERS.len() + FAULT_TIMERS.len();

/// Every timer's stream and mean interval on every cluster, and the
/// occurrences each timer has fired.
#[derive(Debug, Clone)]
pub(crate) struct Timers {
    clusters: usize,
    /// Indexed timer-major, by `timer as usize * clusters + cluster`.
    slots: Vec<(SplitMix64, Cycles)>,
    occurrences: [u64; TIMER_COUNT],
}

impl Timers {
    /// The table for `clusters` clusters under `cfg`, drawing the OS
    /// timers' seeds from the master `rng`.
    pub(crate) fn new(cfg: &SimConfig, clusters: usize, rng: &mut SplitMix64) -> Self {
        let background = cfg.background.map(|load| load.period());
        let mut slots = Vec::with_capacity(TIMER_COUNT * clusters);
        for mean in [Some(CTX_INTERVAL), Some(AST_INTERVAL), background] {
            for _ in 0..clusters {
                slots.push(match mean {
                    Some(mean) => (SplitMix64::new(rng.next_u64()), mean),
                    None => (SplitMix64::new(0), Cycles::ZERO),
                });
            }
        }
        let mut root = SplitMix64::new(FAULT_STREAM_SEED);
        for (_, kind) in FAULT_TIMERS {
            for cluster in 0..clusters {
                let mean = cfg
                    .faults
                    .interval(kind)
                    .filter(|_| kind != FaultKind::HelperStall || cluster >= 1);
                slots.push((root.split(), mean.unwrap_or(Cycles::ZERO)));
            }
        }
        Timers {
            clusters,
            slots,
            occurrences: [0; TIMER_COUNT],
        }
    }

    fn slot(&mut self, timer: Timer, cluster: usize) -> &mut (SplitMix64, Cycles) {
        &mut self.slots[timer as usize * self.clusters + cluster]
    }

    /// The first occurrence of every armed timer, in arming order.
    pub(crate) fn first_occurrences(
        &mut self,
    ) -> impl Iterator<Item = (SimTime, Timer, usize)> + '_ {
        let n = self.clusters;
        let os = (0..n).flat_map(|cluster| OS_TIMERS.map(|timer| (timer, cluster)));
        let faults = FAULT_TIMERS
            .into_iter()
            .flat_map(move |(timer, _)| (0..n).map(move |cluster| (timer, cluster)));
        os.chain(faults).filter_map(|(timer, cluster)| {
            let (stream, mean) = self.slot(timer, cluster);
            (*mean > Cycles::ZERO).then(|| (stream.jittered(Cycles::ZERO, *mean), timer, cluster))
        })
    }

    /// Counts an occurrence of `timer` on `cluster` and draws the time
    /// of the next one after `now`.
    pub(crate) fn next_after(&mut self, timer: Timer, cluster: usize, now: SimTime) -> SimTime {
        self.occurrences[timer as usize] += 1;
        let (stream, mean) = self.slot(timer, cluster);
        debug_assert!(*mean > Cycles::ZERO, "{timer:?} fired unarmed on {cluster}");
        stream.jittered(now, *mean)
    }

    /// How many of a page-fault wave's faults on `cluster` are
    /// concurrent: one coin flip per fault from the cluster's wave
    /// stream.
    pub(crate) fn wave_concurrent(&mut self, cluster: usize) -> u32 {
        let (stream, _) = self.slot(Timer::PageFaultWave, cluster);
        (0..WAVE_FAULTS)
            .filter(|_| stream.next_below(100) < WAVE_CONCURRENT_PCT)
            .count() as u32
    }

    /// Each fault timer's occurrence counter and the occurrences fired
    /// so far across all clusters.
    pub(crate) fn fault_occurrences(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let counts = FAULT_TIMERS.map(|(timer, _)| self.occurrences[timer as usize]);
        OCCURRENCE_COUNTERS.into_iter().zip(counts)
    }
}

impl Machine {
    /// Schedules the first occurrence of every armed timer.
    pub(crate) fn arm_timers(&mut self) {
        for (at, timer, cluster) in self.timers.first_occurrences() {
            self.queue.schedule(at, Ev::Timer { timer, cluster });
        }
    }

    /// An occurrence of `timer` fires on `cluster`.
    pub(crate) fn on_timer(&mut self, timer: Timer, cluster: usize) {
        if self.finished_at.is_some() {
            return; // program over: stop rescheduling
        }
        let next = self.timers.next_after(timer, cluster, self.now);
        self.queue.schedule(next, Ev::Timer { timer, cluster });
        match timer {
            Timer::Daemon => self.run_daemon(cluster),
            Timer::Ast => self.deliver_ast(cluster),
            Timer::Background => self.steal_quantum(cluster),
            Timer::InterruptStorm => self.inject_storm(cluster),
            Timer::AstBurst => self.inject_ast_burst(cluster),
            Timer::PageFaultWave => self.inject_wave(cluster),
            Timer::HelperStall => self.inject_helper_stall(cluster),
        }
    }
}

#[cfg(test)]
mod tests {
    use cedar_faults::FaultPlan;
    use cedar_hw::Configuration;
    use cedar_xylem::BackgroundLoad;

    use super::*;

    /// Every timer armed: the canonical plan at `level` under a heavy
    /// background load.
    fn armed(c: Configuration, level: u32) -> SimConfig {
        SimConfig::cedar(c)
            .with_faults(FaultPlan::canonical_at(level))
            .with_background(BackgroundLoad::heavy())
    }

    fn table(cfg: &SimConfig) -> Timers {
        let clusters = cfg.configuration().clusters() as usize;
        Timers::new(cfg, clusters, &mut SplitMix64::new(cfg.seed))
    }

    fn every_timer() -> impl Iterator<Item = Timer> {
        OS_TIMERS
            .into_iter()
            .chain(FAULT_TIMERS.map(|(timer, _)| timer))
    }

    fn armed_pairs(t: &mut Timers) -> Vec<(Timer, usize)> {
        t.first_occurrences()
            .map(|(_, timer, c)| (timer, c))
            .collect()
    }

    #[test]
    fn intervals_jitter_within_a_quarter_of_the_mean() {
        let mut t = table(&armed(Configuration::P32, 4));
        for timer in every_timer() {
            let Cycles(mean) = t.slot(timer, 1).1;
            let mut now = Cycles::ZERO;
            for _ in 0..200 {
                let next = t.next_after(timer, 1, now);
                let dt = (next - now).0;
                assert!(
                    (mean * 3 / 4..=mean * 5 / 4).contains(&dt),
                    "{timer:?}: {dt}"
                );
                now = next;
            }
            let observed = now.0 as f64 / 200.0;
            let drift = (observed - mean as f64).abs();
            assert!(drift < mean as f64 / 10.0, "{timer:?}: mean {observed}");
        }
    }

    #[test]
    fn streams_follow_the_seed_and_differ_between_clusters() {
        let cfg = armed(Configuration::P32, 1);
        let (mut a, mut b) = (table(&cfg), table(&cfg));
        let draws = |t: &mut Timers, timer, c| -> Vec<SimTime> {
            (0..10)
                .map(|_| t.next_after(timer, c, Cycles::ZERO))
                .collect()
        };
        for timer in [Timer::Daemon, Timer::Background, Timer::PageFaultWave] {
            assert_eq!(
                draws(&mut a, timer, 2),
                draws(&mut b, timer, 2),
                "{timer:?}"
            );
            assert_ne!(
                draws(&mut a, timer, 0),
                draws(&mut a, timer, 1),
                "{timer:?}"
            );
        }
    }

    #[test]
    fn fault_streams_do_not_depend_on_draw_order_or_the_master_seed() {
        let cfg = armed(Configuration::P8, 1);
        let mut a = table(&cfg);
        let mut b = table(&cfg.clone().with_seed(99));
        let storm = Timer::InterruptStorm;
        let a0 = a.next_after(storm, 0, Cycles(100));
        let a1 = a.next_after(storm, 1, Cycles(100));
        let b1 = b.next_after(storm, 1, Cycles(100));
        let b0 = b.next_after(storm, 0, Cycles(100));
        assert_eq!((a0, a1), (b0, b1));
    }

    #[test]
    fn an_empty_plan_arms_only_the_os_timers() {
        let mut t = table(&SimConfig::cedar(Configuration::P32));
        let armed = armed_pairs(&mut t);
        let os: Vec<_> = (0..4)
            .flat_map(|c| [(Timer::Daemon, c), (Timer::Ast, c)])
            .collect();
        assert_eq!(armed, os);
    }

    #[test]
    fn the_canonical_plan_arms_every_fault_timer_but_a_main_cluster_stall() {
        let plan = FaultPlan::canonical_at(1);
        let mut t = table(&SimConfig::cedar(Configuration::P32).with_faults(plan));
        let pairs = armed_pairs(&mut t).into_iter();
        let faults: Vec<_> = pairs
            .filter(|(timer, _)| !OS_TIMERS.contains(timer))
            .collect();
        assert_eq!(faults.len(), 4 + 4 + 4 + 3);
        assert!(!faults.contains(&(Timer::HelperStall, 0)));
        assert!(faults.contains(&(Timer::HelperStall, 1)));
    }

    #[test]
    fn the_wave_mix_stays_near_half_concurrent() {
        let mut t = table(&armed(Configuration::P8, 1));
        let concurrent: u32 = (0..100).map(|_| t.wave_concurrent(0)).sum();
        let frac = f64::from(concurrent) / f64::from(100 * WAVE_FAULTS);
        assert!((0.35..=0.65).contains(&frac), "mix drifted: {frac}");
    }

    #[test]
    fn each_fire_counts_one_occurrence_until_the_program_finishes() {
        let app = cedar_apps::synthetic::uniform_sdoall(1, 1, 8, 8, 200, 0);
        let mut m = Machine::new(&app, armed(Configuration::P32, 1));
        for timer in every_timer() {
            m.on_timer(timer, 1);
        }
        m.finished_at = Some(m.now);
        for timer in every_timer() {
            m.on_timer(timer, 1);
            assert_eq!(m.timers.occurrences[timer as usize], 1, "{timer:?}");
        }
        assert!(m.timers.fault_occurrences().all(|(_, n)| n == 1));
    }

    #[test]
    fn each_background_occurrence_steals_one_quantum() {
        let app = cedar_apps::synthetic::uniform_sdoall(1, 1, 8, 8, 200, 0);
        let load = BackgroundLoad::light();
        let cfg = SimConfig::cedar(Configuration::P8).with_background(load);
        let mut m = Machine::new(&app, cfg);
        for n in 1..=5 {
            m.on_timer(Timer::Background, 0);
            assert_eq!(m.background_stolen, load.quantum() * n);
        }
    }
}
