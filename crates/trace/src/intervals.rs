//! Pairing enter/exit trace events back into intervals.
//!
//! The paper's analysis reconstructs durations from the off-loaded
//! `cedarhpm` trace by matching entry and exit events per processor; this
//! module is that post-processing step.

use cedar_hw::CeId;
use cedar_sim::{Cycles, HpmTicks};

use crate::event::{TraceEvent, TraceEventId};

/// A reconstructed interval on one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Processor the interval occurred on.
    pub ce: CeId,
    /// Interval start.
    pub start: HpmTicks,
    /// Interval end.
    pub end: HpmTicks,
    /// Argument of the *enter* event.
    pub arg: u32,
}

impl Interval {
    /// Interval duration in CE cycles.
    pub fn duration(&self) -> Cycles {
        Cycles((self.end.0 - self.start.0) / cedar_sim::HPM_TICKS_PER_CYCLE)
    }
}

/// Pairs `enter`/`exit` events per processor, in time order.
///
/// Unmatched enters (program ended inside the region) are dropped, as the
/// paper's off-line analysis would drop them. Exits without a pending
/// enter are ignored.
pub fn pair_intervals(
    events: &[TraceEvent],
    enter: TraceEventId,
    exit: TraceEventId,
) -> Vec<Interval> {
    let mut open: Vec<(CeId, HpmTicks, u32)> = Vec::new();
    let mut out = Vec::new();
    for e in events {
        if e.id == enter {
            open.push((e.ce, e.at, e.arg));
        } else if e.id == exit {
            if let Some(pos) = open.iter().rposition(|(ce, _, _)| *ce == e.ce) {
                let (ce, start, arg) = open.remove(pos);
                out.push(Interval {
                    ce,
                    start,
                    end: e.at,
                    arg,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_sim::Cycles;

    fn ev(id: TraceEventId, ce: u16, cycles: u64, arg: u32) -> TraceEvent {
        TraceEvent {
            id,
            at: Cycles(cycles).to_hpm_ticks(),
            ce: CeId(ce),
            arg,
        }
    }

    #[test]
    fn pairs_simple_interval() {
        let events = vec![
            ev(TraceEventId::IterStart, 0, 10, 1),
            ev(TraceEventId::IterEnd, 0, 30, 0),
        ];
        let iv = pair_intervals(&events, TraceEventId::IterStart, TraceEventId::IterEnd);
        assert_eq!(iv.len(), 1);
        assert_eq!(iv[0].duration(), Cycles(20));
        assert_eq!(iv[0].arg, 1);
    }

    #[test]
    fn pairs_per_processor_independently() {
        let events = vec![
            ev(TraceEventId::IterStart, 0, 0, 0),
            ev(TraceEventId::IterStart, 1, 5, 0),
            ev(TraceEventId::IterEnd, 1, 15, 0),
            ev(TraceEventId::IterEnd, 0, 40, 0),
        ];
        let iv = pair_intervals(&events, TraceEventId::IterStart, TraceEventId::IterEnd);
        assert_eq!(iv.len(), 2);
        let d: Vec<_> = iv.iter().map(|i| (i.ce.0, i.duration().0)).collect();
        assert!(d.contains(&(1, 10)));
        assert!(d.contains(&(0, 40)));
    }

    #[test]
    fn drops_unmatched_enter_and_stray_exit() {
        let events = vec![
            ev(TraceEventId::IterEnd, 0, 5, 0),    // stray exit
            ev(TraceEventId::IterStart, 0, 10, 0), // never closed
        ];
        let iv = pair_intervals(&events, TraceEventId::IterStart, TraceEventId::IterEnd);
        assert!(iv.is_empty());
    }

    #[test]
    fn nested_intervals_match_innermost_first() {
        // rposition pairs an exit with the most recent enter on that CE.
        let events = vec![
            ev(TraceEventId::PickIterEnter, 0, 0, 1),
            ev(TraceEventId::PickIterEnter, 0, 10, 2),
            ev(TraceEventId::PickIterExit, 0, 20, 0),
            ev(TraceEventId::PickIterExit, 0, 50, 0),
        ];
        let iv = pair_intervals(
            &events,
            TraceEventId::PickIterEnter,
            TraceEventId::PickIterExit,
        );
        assert_eq!(iv.len(), 2);
        assert_eq!(iv[0].arg, 2);
        assert_eq!(iv[0].duration(), Cycles(10));
        assert_eq!(iv[1].arg, 1);
        assert_eq!(iv[1].duration(), Cycles(50));
    }
}
