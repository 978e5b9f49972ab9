//! Figure 7: the timeliness-based wait-free transform.
//!
//! `invoke_tbwf` executes one operation `op` on an object `O` of type `T`
//! by combining the dynamic leader elector Ω∆ with the wait-free
//! query-abortable object `O_QA`:
//!
//! 1. wait until `leader_p ≠ p` (the *canonical use* of Ω∆, Definition 6 —
//!    without this wait a timely process could monopolize the object,
//!    winning every election; see experiment E7);
//! 2. become a candidate;
//! 3. whenever Ω∆ says `leader_p = p`, run the Figure 8 state machine on
//!    `O_QA`: `op` → on `⊥` switch to `query` → on `F` retry `op` → on a
//!    normal response, stop competing and return.
//!
//! Theorem 14: this yields a timeliness-based wait-free implementation of
//! `T`; with the abortable-register Ω∆ and the abortable-register `O_QA`,
//! Theorem 15: *every* type has a TBWF implementation from abortable
//! registers.

use crate::object::{ObjectType, Outcome};
use crate::qa::QaSession;
use tbwf_omega::{OmegaHandles, OBS_CANDIDATE};
use tbwf_sim::{Env, SimResult};

/// What the Figure 8 state machine will invoke next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NextInvocation {
    Op,
    Query,
}

fn set_candidate(env: &dyn Env, omega: &OmegaHandles, v: bool) {
    if omega.candidate.get() != v {
        omega.candidate.set(v);
        env.observe(OBS_CANDIDATE, 0, v as i64);
    }
}

/// Where a [`TbwfCall`] is parked between segments.
#[derive(Clone, Copy)]
enum CallState {
    /// First segment of the call.
    Start,
    /// Line 2: waiting until `leader ≠ p` (canonical only).
    LeaderWait,
    /// Line 5 head step consumed: run the line-6 leader check.
    LoopHead,
    /// An `O_QA` invocation is in flight ([`QaSession::poll_op`]).
    OpInFlight,
}

/// One TBWF operation (Figure 7) in poll form: [`TbwfCall::poll`] runs
/// one segment per call and returns the response when the operation
/// completes. Simulated workers drive it directly; the blocking
/// [`invoke_tbwf`] that the native thread harness uses is derived from
/// it by inserting one [`Env::tick`] per pending poll, so both forms
/// consume steps at identical points.
///
/// `TbwfCall::new(op, false)` omits the line-2 wait (and keeps the
/// caller a candidate after it returns). Only experiment E7 uses it,
/// through [`Engine::TbwfNonCanonical`](crate::harness::Engine::TbwfNonCanonical), to show
/// that without the wait a timely process can win every election and
/// monopolize the object.
pub struct TbwfCall<T: ObjectType> {
    op: T::Op,
    canonical: bool,
    next: NextInvocation,
    observed_applying: bool,
    state: CallState,
}

impl<T: ObjectType> TbwfCall<T> {
    /// Prepares the operation; `canonical` enables the line-2 wait and
    /// the phase observations of [`invoke_tbwf`].
    pub fn new(op: T::Op, canonical: bool) -> Self {
        TbwfCall {
            op,
            canonical,
            next: NextInvocation::Op,
            observed_applying: false,
            state: CallState::Start,
        }
    }

    /// Lines 3–5: become a candidate and enter the main loop.
    fn enter_competition(&mut self, env: &dyn Env, omega: &OmegaHandles) {
        set_candidate(env, omega, true);
        if self.canonical {
            env.observe("phase", 0, 2);
        }
        self.state = CallState::LoopHead;
    }

    /// Runs one segment. Returns the response when the operation has
    /// completed (lines 8/10 reached a normal response), in the segment
    /// that received it: the caller's next work runs in the same step.
    pub fn poll(
        &mut self,
        env: &dyn Env,
        session: &mut QaSession<T>,
        omega: &OmegaHandles,
    ) -> Option<T::Resp> {
        let p = session.pid();
        loop {
            match self.state {
                CallState::Start => {
                    if self.canonical {
                        // 2: while LEADER = p do skip (canonical use).
                        env.observe("phase", 0, 1);
                        if omega.leader.get() == Some(p) {
                            self.state = CallState::LeaderWait;
                            return None;
                        }
                    }
                    self.enter_competition(env, omega);
                    return None;
                }
                CallState::LeaderWait => {
                    if omega.leader.get() == Some(p) {
                        return None;
                    }
                    self.enter_competition(env, omega);
                    return None;
                }
                CallState::LoopHead => {
                    // 6: if LEADER = p
                    if omega.leader.get() != Some(p) {
                        return None;
                    }
                    if self.canonical && !self.observed_applying {
                        self.observed_applying = true;
                        env.observe("phase", 0, 3);
                    }
                    // 7: res ← invoke(op', O_QA, T_QA)
                    match self.next {
                        NextInvocation::Op => session.begin_apply(self.op.clone()),
                        NextInvocation::Query => session.begin_query(),
                    }
                    self.state = CallState::OpInFlight;
                    // The invocation's first segment runs here, in the
                    // same segment that started it.
                }
                CallState::OpInFlight => {
                    match session.poll_op(env)? {
                        // 8: normal response ⇒ stop competing and return.
                        Outcome::Done(v) => {
                            if self.canonical {
                                set_candidate(env, omega, false);
                            }
                            return Some(v);
                        }
                        // 9: ⊥ ⇒ ask about the fate of op.
                        Outcome::Bot => self.next = NextInvocation::Query,
                        // 10: F ⇒ op did not take effect; try it again.
                        Outcome::NoEffect => self.next = NextInvocation::Op,
                    }
                    self.state = CallState::LoopHead;
                    return None;
                }
            }
        }
    }
}

/// Executes `op` on the TBWF object (Figure 7, lines 1–10). Blocks (in
/// simulation steps) until the operation completes; a timely caller always
/// returns in finitely many of its own steps.
///
/// See `tbwf::TbwfSystemBuilder` (crate `tbwf`) for the high-level way to
/// assemble the whole system; this function is the raw per-process driver
/// used by its workers:
///
/// ```no_run
/// # use tbwf_universal::{tbwf::invoke_tbwf, object::{Counter, CounterOp}, QaSession};
/// # use tbwf_omega::OmegaHandles;
/// # fn worker(
/// #     env: &dyn tbwf_sim::Env,
/// #     session: &mut QaSession<Counter>,
/// #     omega: &OmegaHandles,
/// # ) -> tbwf_sim::SimResult<()> {
/// let response = invoke_tbwf(env, session, omega, CounterOp::Inc)?;
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`Halted`](tbwf_sim::Halted) when the run ends.
pub fn invoke_tbwf<T: ObjectType>(
    env: &dyn Env,
    session: &mut QaSession<T>,
    omega: &OmegaHandles,
    op: T::Op,
) -> SimResult<T::Resp> {
    let mut call = TbwfCall::new(op, true);
    loop {
        if let Some(v) = call.poll(env, session, omega) {
            return Ok(v);
        }
        env.tick()?;
    }
}
