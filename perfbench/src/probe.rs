//! Brackets a run's step loop from outside the simulator.
//!
//! [`Timed`] wraps the schedule a run is given. `Sim::run` asks the
//! schedule for exactly one decision per step, so the first `next` call
//! marks the start of the step loop and the call numbered `budget` marks
//! its last step. The run configuration (and with it the schedule) is
//! dropped when `Sim::run` returns, after the trace merge, so `Drop`
//! marks the end of the runner. Between calls the wrapper only counts:
//! it reads the clock twice per run, not once per step.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use tbwf_sim::{ProcId, Schedule, ScheduleView};

/// Loop marks of one run, filled in when the schedule is dropped.
#[derive(Clone, Copy, Debug)]
pub struct LoopMarks {
    /// First scheduler decision: the step loop starts.
    pub first: Instant,
    /// Decision number `budget`, or the drop time if the run ended early.
    pub last: Instant,
    /// `Sim::run` is returning: the trace has been merged.
    pub dropped: Instant,
    /// Scheduler decisions taken.
    pub decisions: u64,
}

/// Shared slot the caller reads the marks from after the run.
#[derive(Clone, Default)]
pub struct Probe(Arc<Mutex<Option<LoopMarks>>>);

impl Probe {
    /// Wraps `inner` so that its run's loop marks land in this probe.
    pub fn wrap<S: Schedule>(&self, inner: S, budget: u64) -> Timed<S> {
        Timed {
            inner,
            budget,
            calls: 0,
            first: None,
            last: None,
            slot: self.clone(),
        }
    }

    /// The marks of the finished run.
    ///
    /// # Panics
    ///
    /// Panics if the wrapped schedule has not been dropped yet, or never
    /// took a decision.
    pub fn marks(&self) -> LoopMarks {
        self.0
            .lock()
            .expect("probe lock poisoned by a panicking run")
            .expect("the probed run has not finished")
    }
}

/// A schedule wrapper that records [`LoopMarks`].
pub struct Timed<S> {
    inner: S,
    budget: u64,
    calls: u64,
    first: Option<Instant>,
    last: Option<Instant>,
    slot: Probe,
}

impl<S: Schedule> Schedule for Timed<S> {
    fn next(&mut self, view: &ScheduleView<'_>) -> ProcId {
        self.calls += 1;
        if self.calls == 1 {
            self.first = Some(Instant::now());
        }
        if self.calls == self.budget {
            self.last = Some(Instant::now());
        }
        self.inner.next(view)
    }

    fn intended_timely(&self, n: usize) -> Vec<ProcId> {
        self.inner.intended_timely(n)
    }
}

impl<S> Drop for Timed<S> {
    fn drop(&mut self) {
        let dropped = Instant::now();
        let Some(first) = self.first else { return };
        if let Ok(mut slot) = self.slot.0.lock() {
            *slot = Some(LoopMarks {
                first,
                last: self.last.unwrap_or(dropped),
                dropped,
                decisions: self.calls,
            });
        }
    }
}
