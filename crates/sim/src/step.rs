//! The poll-driven step engine: tasks as explicit state machines.
//!
//! Section 3 of the paper has one adversary that grants one step at a
//! time. [`Sim::run`](crate::Sim::run) implements it as a single poll
//! loop: each time slot it asks the schedule for a process, rotates to
//! that process's next live task, and calls [`Stepper::step`] on it.
//! Granting a step is a plain function call — no threads, no locks.
//!
//! One `step()` call runs one *segment* of the task's algorithm. A
//! segment that returns [`Control::Yield`] consumes the step. Returning
//! [`Control::Done`] finishes the task: that final segment runs but is
//! *not* counted as a step, and the process's next task is tried in the
//! same time slot. Register operations straddle segments through their
//! invoke/complete pair (see `tbwf-registers`), which gives each
//! operation its two-step extent in the paper's model. A run is a
//! deterministic function of `(program, schedule, seed)`.
//!
//! Short loops need no named state machine: any
//! `FnMut(&mut StepCtx<'_>) -> Control + Send` closure is a [`Stepper`].
//!
//! ```
//! use tbwf_sim::schedule::RoundRobin;
//! use tbwf_sim::{Control, ProcId, RunConfig, SimBuilder, StepCtx};
//!
//! let mut b = SimBuilder::new();
//! let p = b.add_process("p0");
//! let mut i = 0;
//! b.add_stepper(
//!     p,
//!     "count",
//!     Box::new(move |ctx: &mut StepCtx<'_>| {
//!         ctx.observe("i", 0, i);
//!         i += 1;
//!         Control::Yield
//!     }),
//! );
//! let report = b.build().run(RunConfig::new(10, RoundRobin::new()));
//! assert_eq!(report.trace.last_value(ProcId(0), "i", 0), Some(9));
//! ```

use crate::env::{CrashFlags, Env};
use crate::halt::SimResult;
use crate::ids::ProcId;
use crate::trace::Obs;
use std::cell::RefCell;

/// What a [`Stepper`] tells the scheduler after executing one segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Control {
    /// The segment consumed this step; call `step` again when the
    /// process is next scheduled.
    Yield,
    /// The task is finished. The segment that returned `Done` is *not*
    /// counted as a step.
    Done,
}

/// A task written as an explicit state machine, driven by the scheduler.
///
/// Each `step` call runs one *segment*: the local code between two
/// consecutive steps of the process. Within a segment no other task
/// runs, so process-local state cannot change mid-segment. Register
/// operations must straddle segments via their invoke/complete pair:
/// invoke at the end of one segment, complete at the start of the next —
/// this is what gives operations their two-step (invocation/response)
/// extent in the paper's model.
pub trait Stepper: Send {
    /// Executes one segment. See the trait docs for the contract.
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control;
}

/// A closure is a stepper: each call is one segment.
impl<F> Stepper for F
where
    F: FnMut(&mut StepCtx<'_>) -> Control + Send,
{
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        self(ctx)
    }
}

/// The environment handed to [`Stepper::step`].
///
/// A thin view over the backing [`Env`] that forwards `now`/`pid`/
/// `observe`/`is_crashed` but *panics on `tick`*: a stepper consumes
/// steps by yielding, never by blocking, and the panic catches
/// accidental calls to blocking register operations from stepper code.
pub struct StepCtx<'a> {
    env: &'a dyn Env,
}

impl<'a> StepCtx<'a> {
    /// Wraps a backing environment for the duration of one (or more)
    /// segments.
    pub fn new(env: &'a dyn Env) -> Self {
        StepCtx { env }
    }

    /// Current global time.
    pub fn now(&self) -> u64 {
        self.env.now()
    }

    /// The process this task belongs to.
    pub fn pid(&self) -> ProcId {
        self.env.pid()
    }

    /// Records an observation (see [`Env::observe`]).
    pub fn observe(&self, key: &'static str, idx: u32, value: i64) {
        self.env.observe(key, idx, value);
    }

    /// The context as an [`Env`], for register invoke/complete calls
    /// (which accept `&dyn Env`). `tick` on the returned env panics.
    pub fn env(&self) -> &dyn Env {
        self
    }
}

fn tick_in_stepper() -> ! {
    panic!(
        "Env::tick called from stepper code: a Stepper must return \
         Control::Yield to consume a step (blocking register \
         operations are not available inside a Stepper — use the \
         invoke/complete pair)"
    );
}

impl Env for StepCtx<'_> {
    fn tick(&self) -> SimResult<()> {
        tick_in_stepper()
    }

    fn now(&self) -> u64 {
        self.env.now()
    }

    fn pid(&self) -> ProcId {
        self.env.pid()
    }

    fn observe(&self, key: &'static str, idx: u32, value: i64) {
        self.env.observe(key, idx, value);
    }

    fn is_crashed(&self, p: ProcId) -> bool {
        self.env.is_crashed(p)
    }
}

/// The runner's backing env for one granted step: the process, the
/// clock, and borrows of the run-wide observation log and crash flags.
/// `Sim::run` builds one per time slot; it never outlives the slot.
pub(crate) struct StepEnv<'a> {
    pub(crate) pid: ProcId,
    pub(crate) now: u64,
    pub(crate) obs: &'a RefCell<Vec<Obs>>,
    pub(crate) crashed: &'a CrashFlags,
}

impl Env for StepEnv<'_> {
    fn tick(&self) -> SimResult<()> {
        tick_in_stepper()
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn pid(&self) -> ProcId {
        self.pid
    }

    fn observe(&self, key: &'static str, idx: u32, value: i64) {
        self.obs.borrow_mut().push(Obs {
            time: self.now,
            proc: self.pid,
            key,
            idx,
            value,
        });
    }

    fn is_crashed(&self, p: ProcId) -> bool {
        self.crashed.get(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FreeRunEnv;

    #[test]
    fn ctx_forwards_now_pid_observe() {
        let env = FreeRunEnv::new(ProcId(4));
        env.tick().unwrap();
        let ctx = StepCtx::new(&env);
        assert_eq!(ctx.now(), 1);
        assert_eq!(ctx.pid(), ProcId(4));
        ctx.observe("k", 2, 9);
        let obs = env.take_obs();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].idx, 2);
    }

    #[test]
    #[should_panic(expected = "must return Control::Yield")]
    fn ctx_tick_panics() {
        let env = FreeRunEnv::new(ProcId(0));
        let ctx = StepCtx::new(&env);
        let _ = ctx.env().tick();
    }
}
