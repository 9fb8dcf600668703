//! The `cedarhpm` hardware performance monitor.
//!
//! "For each event, cedarhpm records the event id, the timestamp and the
//! id of the processor on which the event occurred. The timestamp
//! resolution is 50 nanoseconds. The recording of each event is as cheap
//! as a single move assembly level instruction, and thus causes
//! negligible overhead" (§4). The simulated monitor is *exactly*
//! non-intrusive: posting costs zero simulated time.

use cedar_hw::CeId;
use cedar_sim::SimTime;

use crate::event::{TraceEvent, TraceEventId};

/// The trace buffer of the hardware performance monitor.
///
/// # Example
///
/// ```
/// use cedar_trace::{HpmMonitor, TraceEventId};
/// use cedar_hw::CeId;
/// use cedar_sim::Cycles;
///
/// let mut hpm = HpmMonitor::new();
/// hpm.post(TraceEventId::ProgramStart, CeId(0), 0, Cycles(0));
/// hpm.post(TraceEventId::ProgramEnd, CeId(0), 0, Cycles(500));
/// assert_eq!(hpm.events().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HpmMonitor {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl HpmMonitor {
    /// Creates an enabled monitor with an empty trace buffer.
    pub fn new() -> Self {
        HpmMonitor {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// Posts an event to the trigger point (no simulated cost).
    pub fn post(&mut self, id: TraceEventId, ce: CeId, arg: u32, now: SimTime) {
        if self.enabled {
            self.events.push(TraceEvent {
                id,
                at: now.to_hpm_ticks(),
                ce,
                arg,
            });
        }
    }

    /// Turns recording on or off (the real monitor is armed around the
    /// measured region).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The recorded trace, in posting order (equivalently, time order —
    /// the simulation posts monotonically).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the monitor, off-loading the trace buffer (the paper
    /// off-loads to a Sun workstation at program end).
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Events matching `id`, in order.
    pub fn filter(&self, id: TraceEventId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_sim::Cycles;

    #[test]
    fn posts_record_id_time_and_processor() {
        let mut hpm = HpmMonitor::new();
        hpm.post(TraceEventId::IterStart, CeId(7), 2, Cycles(123));
        let e = hpm.events()[0];
        assert_eq!(e.id, TraceEventId::IterStart);
        assert_eq!(e.ce, CeId(7));
        assert_eq!(e.at, Cycles(123).to_hpm_ticks());
        assert_eq!(e.arg, 2);
    }

    #[test]
    fn disabled_monitor_drops_events() {
        let mut hpm = HpmMonitor::new();
        hpm.set_enabled(false);
        hpm.post(TraceEventId::IterStart, CeId(0), 0, Cycles(0));
        assert!(hpm.events().is_empty());
        hpm.set_enabled(true);
        hpm.post(TraceEventId::IterStart, CeId(0), 0, Cycles(0));
        assert_eq!(hpm.events().len(), 1);
    }

    #[test]
    fn filter_by_id_and_ce() {
        let mut hpm = HpmMonitor::new();
        hpm.post(TraceEventId::IterStart, CeId(0), 0, Cycles(0));
        hpm.post(TraceEventId::IterEnd, CeId(0), 0, Cycles(10));
        hpm.post(TraceEventId::IterStart, CeId(1), 0, Cycles(5));
        assert_eq!(hpm.filter(TraceEventId::IterStart).count(), 2);
        let on_ce0 = hpm.events().iter().filter(|e| e.ce == CeId(0));
        assert_eq!(on_ce0.count(), 2);
    }

    #[test]
    fn into_events_offloads_buffer() {
        let mut hpm = HpmMonitor::new();
        hpm.post(TraceEventId::ProgramStart, CeId(0), 0, Cycles(0));
        let events = hpm.into_events();
        assert_eq!(events.len(), 1);
    }
}
