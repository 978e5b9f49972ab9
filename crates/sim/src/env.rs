//! The environment through which algorithm code consumes steps.

use crate::halt::SimResult;
use crate::ids::ProcId;
use crate::trace::TraceSink;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shared crash flags: one bit per process, set by the runner the moment
/// a crash (from the static plan or a nemesis injection) takes effect.
///
/// Registers consult these through [`Env::is_crashed`]: a crashed
/// process takes no further steps, so its pending operations can no
/// longer interfere with operations invoked after the crash (see
/// `RegCore` in `tbwf-registers`). Out-of-range ids read as not crashed.
#[derive(Debug, Default)]
pub struct CrashFlags {
    bits: Vec<AtomicBool>,
}

impl CrashFlags {
    /// Creates flags for `n` processes, all alive.
    pub fn new(n: usize) -> Self {
        CrashFlags {
            bits: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Marks `p` as crashed (idempotent).
    pub fn set(&self, p: ProcId) {
        if let Some(b) = self.bits.get(p.0) {
            b.store(true, Ordering::SeqCst);
        }
    }

    /// Whether `p` has crashed.
    pub fn get(&self, p: ProcId) -> bool {
        self.bits.get(p.0).is_some_and(|b| b.load(Ordering::SeqCst))
    }
}

/// The interface between algorithm code and its runtime.
///
/// All the algorithms of the paper (Figures 2–7) are written against this
/// trait, so the same code runs on the deterministic simulator (whose
/// per-step env is handed to each [`Stepper`](crate::Stepper) through
/// [`StepCtx`](crate::StepCtx)) and on real threads (the `native`
/// module of the `tbwf` crate, which owns the thread-backed env).
///
/// A *step* in the sense of Section 3 of the paper is one segment of a
/// stepper in the simulator. Blocking code — the native backend and
/// free-running tests — consumes a step with [`Env::tick`] instead;
/// blocking register operations call it between invocation and response.
pub trait Env {
    /// Consume one step of this process (blocking code only).
    ///
    /// The simulator's step env panics here: a stepper consumes steps by
    /// returning [`Control::Yield`](crate::Control::Yield).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`](crate::Halted) when the run is over; the caller
    /// must propagate it and return.
    fn tick(&self) -> SimResult<()>;

    /// Current global time (number of steps taken by all processes so far).
    fn now(&self) -> u64;

    /// The process this task belongs to.
    fn pid(&self) -> ProcId;

    /// Record an observation of a local output variable into the trace.
    ///
    /// `key` names the variable (e.g. `"leader"`), `idx` disambiguates
    /// vector variables (e.g. `status[q]` uses `idx = q`), and `value` is
    /// the observed value (conventions such as `? == -1` are documented at
    /// the observation sites).
    fn observe(&self, key: &'static str, idx: u32, value: i64);

    /// Whether process `p` has crashed in this run.
    ///
    /// Simulator environments report the runner's [`CrashFlags`];
    /// environments with no crash model (free-running tests, the native
    /// thread backend) use this default and report every process alive.
    fn is_crashed(&self, _p: ProcId) -> bool {
        false
    }
}

/// A free-running environment for unit tests and micro-benchmarks.
///
/// `tick` always succeeds and advances a private clock; observations are
/// recorded into an internal sink that can be drained with
/// [`FreeRunEnv::take_obs`]. There is no scheduler, no determinism
/// guarantee across threads, and no halt signal — use the real simulator
/// for anything that needs the model semantics.
pub struct FreeRunEnv {
    pid: ProcId,
    clock: AtomicU64,
    sink: TraceSink,
}

impl FreeRunEnv {
    /// Creates a free-running environment acting as process `pid`.
    pub fn new(pid: ProcId) -> Self {
        FreeRunEnv {
            pid,
            clock: AtomicU64::new(0),
            sink: TraceSink::new(),
        }
    }

    /// Drains and returns all recorded observations.
    pub fn take_obs(&self) -> Vec<crate::trace::Obs> {
        self.sink.drain()
    }
}

impl Env for FreeRunEnv {
    fn tick(&self) -> SimResult<()> {
        self.clock.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    fn pid(&self) -> ProcId {
        self.pid
    }

    fn observe(&self, key: &'static str, idx: u32, value: i64) {
        self.sink.record(self.now(), self.pid, key, idx, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_run_env_ticks_and_observes() {
        let env = FreeRunEnv::new(ProcId(3));
        assert_eq!(env.now(), 0);
        env.tick().unwrap();
        env.tick().unwrap();
        assert_eq!(env.now(), 2);
        env.observe("x", 1, 42);
        let obs = env.take_obs();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].value, 42);
        assert_eq!(obs[0].proc, ProcId(3));
        assert_eq!(obs[0].idx, 1);
    }
}
