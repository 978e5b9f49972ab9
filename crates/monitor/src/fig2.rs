//! Figure 2: implementation of `A(p, q)` using (atomic) registers.
//!
//! The shared state is a single atomic register `HbRegister[q, p]`, written
//! by the monitored process `q` and read by the monitoring process `p`.
//! When `q` is active for `p` it writes an increasing heartbeat counter;
//! when it stops willingly it writes the special value `−1`. The
//! monitoring side reads the register with an *adaptive* timeout
//! (`hbTimeout` grows by one on every suspicion), which is what makes
//! `faultCntr` bounded whenever `q` is `p`-timely — there is an unknown
//! but fixed bound to adapt to.
//!
//! Each side is a poll-driven [`Stepper`]: one `step` is one step of the
//! process, and every register operation spans two of them (invoked at
//! the end of one segment, completed at the start of the next). Line
//! numbers in the comments refer to Figure 2 of the paper.

use crate::Status;
use tbwf_registers::{OpToken, RegisterFactory, SharedAtomic};
use tbwf_sim::{Control, Env, Local, ProcId, StepCtx, Stepper};

/// Observation keys used by the monitoring side.
pub const OBS_STATUS: &str = "status";
/// Observation key for `faultCntr_p[q]`.
pub const OBS_FAULT: &str = "faultCntr";

/// The monitored side of `A(p, q)`: code run *by `q`* (Figure 2, top).
pub struct MonitoredSide {
    /// `active-for_q[p]`: whether `q` currently wants to appear active to
    /// `p`. Input variable, written by `q`'s other tasks at any time.
    pub active_for: Local<bool>,
    hb: SharedAtomic<i64>,
}

impl MonitoredSide {
    /// The task run by `q`, as a poll-driven [`Stepper`]. Runs forever.
    pub fn into_stepper(self) -> MonitoredStepper {
        MonitoredStepper {
            side: self,
            hb_counter: 0,
            state: MonitoredState::Start,
        }
    }
}

/// Where the Figure 2 (top) loop is parked between steps.
#[derive(Clone, Copy)]
enum MonitoredState {
    /// Line 2, at the top of the outer loop: about to invoke the `−1`
    /// write.
    Start,
    /// Line 2: the `WRITE(HbRegister[q, p], −1)` is in flight.
    WriteMinus1Pending(OpToken),
    /// Line 3: `while ACTIVE-FOR[p] = off do skip` — one step per check.
    WaitActive,
    /// Line 6: the `WRITE(HbRegister[q, p], hbCounter)` is in flight.
    WriteHbPending(OpToken),
}

/// The monitored side of `A(p, q)` (Figure 2, top) as a [`Stepper`].
/// Built with [`MonitoredSide::into_stepper`].
pub struct MonitoredStepper {
    side: MonitoredSide,
    /// `hbCounter` (local variable).
    hb_counter: i64,
    state: MonitoredState,
}

impl MonitoredStepper {
    /// Lines 3–6: skip while not active; once active, start the next
    /// heartbeat write.
    fn wait_or_beat(&mut self, env: &dyn Env) {
        // 3: while ACTIVE-FOR[p] = off do skip
        if self.side.active_for.get() {
            // 5: hbCounter ← hbCounter + 1
            self.hb_counter += 1;
            // 6: WRITE(HbRegister[q, p], hbCounter) — invocation.
            let tok = self.side.hb.invoke_write(env, self.hb_counter);
            self.state = MonitoredState::WriteHbPending(tok);
        } else {
            self.state = MonitoredState::WaitActive;
        }
    }
}

impl Stepper for MonitoredStepper {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        match self.state {
            MonitoredState::Start => {
                // 2: WRITE(HbRegister[q, p], −1) — invocation.
                let tok = self.side.hb.invoke_write(env, -1);
                self.state = MonitoredState::WriteMinus1Pending(tok);
            }
            MonitoredState::WriteMinus1Pending(tok) => {
                // 2: response.
                self.side.hb.complete_write(env, tok);
                self.wait_or_beat(env);
            }
            MonitoredState::WaitActive => self.wait_or_beat(env),
            MonitoredState::WriteHbPending(tok) => {
                // 6: response.
                self.side.hb.complete_write(env, tok);
                // 4: while ACTIVE-FOR[p] = on do (lines 5–6 again) …
                if self.side.active_for.get() {
                    self.hb_counter += 1;
                    let tok = self.side.hb.invoke_write(env, self.hb_counter);
                    self.state = MonitoredState::WriteHbPending(tok);
                } else {
                    // … else back to line 2.
                    let tok = self.side.hb.invoke_write(env, -1);
                    self.state = MonitoredState::WriteMinus1Pending(tok);
                }
            }
        }
        Control::Yield
    }
}

/// The monitoring side of `A(p, q)`: code run *by `p`* (Figure 2, bottom).
pub struct MonitoringSide {
    /// The monitored process `q` (used as the observation index).
    pub q: ProcId,
    /// `monitoring_p[q]`: whether `p` currently wants to monitor `q`.
    pub monitoring: Local<bool>,
    /// Output `status_p[q]`.
    pub status: Local<Status>,
    /// Output `faultCntr_p[q]`.
    pub fault_cntr: Local<u64>,
    /// **Ablation knob** (paper behavior: `true`). When `false`, line 25
    /// (`hbTimeout ← hbTimeout + 1`) is skipped, i.e. the timeout is
    /// fixed at its initial value. This breaks Property 5(a): a timely
    /// `q` whose (unknown) timeliness bound exceeds the fixed timeout is
    /// suspected over and over, so `faultCntr` grows without bound —
    /// exactly why the paper adapts the timeout. See experiment E9.
    pub adaptive_timeout: bool,
    hb: SharedAtomic<i64>,
}

impl MonitoringSide {
    fn set_status(&self, env: &dyn Env, s: Status) {
        if self.status.get() != s {
            self.status.set(s);
            env.observe(OBS_STATUS, self.q.0 as u32, s.code());
        }
    }

    fn bump_fault(&self, env: &dyn Env) {
        let v = self.fault_cntr.update(|f| {
            *f += 1;
            *f
        });
        env.observe(OBS_FAULT, self.q.0 as u32, v as i64);
    }

    /// The task run by `p`, as a poll-driven [`Stepper`]. Runs forever.
    pub fn into_stepper(self) -> MonitoringStepper {
        // { Initial state }
        MonitoringStepper {
            side: self,
            hb_timeout: 1,
            hb_timer: 1,
            hb_counter: 0,
            prev_hb_counter: 0,
            allow_increment: true,
            state: MonitoringState::Start,
        }
    }
}

/// Where the Figure 2 (bottom) loop is parked between steps.
#[derive(Clone, Copy)]
enum MonitoringState {
    /// Before the first step: the initial observations, then line 8.
    Start,
    /// Line 9: `while MONITORING[q] = off do skip` — one step per check.
    WaitMon,
    /// Line 11: one iteration of the monitoring loop costs one step;
    /// this segment runs lines 12–13.
    InnerBody,
    /// Line 16: the `READ(HbRegister[q, p])` is in flight.
    ReadPending(OpToken),
}

/// The monitoring side of `A(p, q)` (Figure 2, bottom) as a
/// [`Stepper`]. Built with [`MonitoringSide::into_stepper`].
pub struct MonitoringStepper {
    side: MonitoringSide,
    /// `hbTimeout`: grows by one per suspicion (line 25).
    hb_timeout: u64,
    /// `hbTimer`: counts loop iterations down to the next read.
    hb_timer: u64,
    /// `hbCounter`: the last heartbeat read.
    hb_counter: i64,
    /// `prevHbCounter`: the heartbeat read before that.
    prev_hb_counter: i64,
    /// Condition (b) of the prose: `faultCntr` may grow only once per
    /// fresh heartbeat.
    allow_increment: bool,
    state: MonitoringState,
}

impl MonitoringStepper {
    /// Lines 9–11: skip while not monitoring, then (re-)arm the timer
    /// and enter the monitoring loop.
    fn wait_or_enter(&mut self) {
        // 9: while MONITORING[q] = off do skip
        if self.side.monitoring.get() {
            // 10: hbTimer ← hbTimeout
            self.hb_timer = self.hb_timeout;
            self.state = MonitoringState::InnerBody;
        } else {
            self.state = MonitoringState::WaitMon;
        }
    }

    /// The bottom of a monitoring-loop iteration: either go around (line
    /// 11) or fall out to the top of the outer loop (line 8).
    fn continue_or_leave(&mut self, env: &dyn Env) {
        // 11: while MONITORING[q] = on do
        if self.side.monitoring.get() {
            self.state = MonitoringState::InnerBody;
        } else {
            // 8: STATUS[q] ← ?
            self.side.set_status(env, Status::Unknown);
            self.wait_or_enter();
        }
    }
}

impl Stepper for MonitoringStepper {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        match self.state {
            MonitoringState::Start => {
                // Initial values of the outputs.
                env.observe(
                    OBS_STATUS,
                    self.side.q.0 as u32,
                    self.side.status.get().code(),
                );
                env.observe(
                    OBS_FAULT,
                    self.side.q.0 as u32,
                    self.side.fault_cntr.get() as i64,
                );
                // 7: repeat forever
                // 8: STATUS[q] ← ?
                self.side.set_status(env, Status::Unknown);
                self.wait_or_enter();
            }
            MonitoringState::WaitMon => self.wait_or_enter(),
            MonitoringState::InnerBody => {
                // 12: if hbTimer ≥ 1 then hbTimer ← hbTimer − 1
                if self.hb_timer >= 1 {
                    self.hb_timer -= 1;
                }
                // 13: if hbTimer = 0 then
                if self.hb_timer == 0 {
                    // 14: hbTimer ← hbTimeout
                    self.hb_timer = self.hb_timeout;
                    // 15: prevHbCounter ← hbCounter
                    self.prev_hb_counter = self.hb_counter;
                    // 16: hbCounter ← READ(HbRegister[q, p]) — invocation.
                    let tok = self.side.hb.invoke_read(env);
                    self.state = MonitoringState::ReadPending(tok);
                } else {
                    self.continue_or_leave(env);
                }
            }
            MonitoringState::ReadPending(tok) => {
                // 16: response.
                self.hb_counter = self.side.hb.complete_read(env, tok);
                // 17: if hbCounter < 0 then STATUS[q] ← inactive
                if self.hb_counter < 0 {
                    self.side.set_status(env, Status::Inactive);
                }
                // 18–20: fresh heartbeat ⇒ active, re-arm increment
                if self.hb_counter >= 0 && self.hb_counter > self.prev_hb_counter {
                    self.side.set_status(env, Status::Active);
                    self.allow_increment = true;
                }
                // 21–26: stale heartbeat ⇒ inactive; suspicion counts
                // only if the register is not −1 (condition (a) of the
                // prose) and increased since the last increment
                // (condition (b), tracked by allow_increment).
                if self.hb_counter >= 0 && self.hb_counter <= self.prev_hb_counter {
                    self.side.set_status(env, Status::Inactive);
                    if self.allow_increment {
                        self.side.bump_fault(env);
                        // 25 (ablatable): adapt the timeout upward.
                        if self.side.adaptive_timeout {
                            self.hb_timeout += 1;
                        }
                        self.allow_increment = false;
                    }
                }
                self.continue_or_leave(env);
            }
        }
        Control::Yield
    }
}

/// The two sides of one activity monitor `A(p, q)`.
pub struct ActivityMonitorPair {
    /// Code and handles for the monitoring process `p`.
    pub monitoring_side: MonitoringSide,
    /// Code and handles for the monitored process `q`.
    pub monitored_side: MonitoredSide,
}

/// Creates the activity monitor `A(p, q)` (its shared heartbeat register
/// and both side handles) for `p` monitoring `q`.
///
/// ```
/// use tbwf_monitor::{activity_monitor, Status};
/// use tbwf_registers::RegisterFactory;
/// use tbwf_sim::schedule::RoundRobin;
/// use tbwf_sim::{ProcId, RunConfig, SimBuilder};
///
/// let factory = RegisterFactory::default();
/// let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
/// pair.monitoring_side.monitoring.set(true);
/// pair.monitored_side.active_for.set(true);
/// let status = pair.monitoring_side.status.clone();
///
/// let mut b = SimBuilder::new();
/// let p0 = b.add_process("p0");
/// b.add_stepper(p0, "monitoring", Box::new(pair.monitoring_side.into_stepper()));
/// let p1 = b.add_process("p1");
/// b.add_stepper(p1, "monitored", Box::new(pair.monitored_side.into_stepper()));
/// b.build().run(RunConfig::new(3_000, RoundRobin::new())).assert_no_panics();
/// assert_eq!(status.get(), Status::Active); // q is timely and active
/// ```
///
/// # Panics
///
/// Panics if `p == q` (the paper's footnote 6: `A(p, p)` is trivial and
/// implemented inline by users instead).
pub fn activity_monitor(factory: &RegisterFactory, p: ProcId, q: ProcId) -> ActivityMonitorPair {
    assert_ne!(p, q, "A(p, p) is trivial and not register-backed");
    let hb = factory.atomic(&format!("Hb[{q},{p}]"), -1i64);
    ActivityMonitorPair {
        monitoring_side: MonitoringSide {
            q,
            monitoring: Local::new(false),
            status: Local::new(Status::Unknown),
            fault_cntr: Local::new(0),
            adaptive_timeout: true,
            hb: hb.clone(),
        },
        monitored_side: MonitoredSide {
            active_for: Local::new(false),
            hb,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::{RunConfig, SimBuilder};

    /// Builds a two-process system in which p0 monitors p1; the driver
    /// closures configure the inputs.
    fn run_pair(
        steps: u64,
        configure_p: impl Fn(&Local<bool>) + Send + 'static,
        configure_q: impl Fn(&Local<bool>) + Send + 'static,
    ) -> (tbwf_sim::RunReport, Local<Status>, Local<u64>) {
        let factory = RegisterFactory::default();
        let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
        let status = pair.monitoring_side.status.clone();
        let fault = pair.monitoring_side.fault_cntr.clone();
        let monitoring = pair.monitoring_side.monitoring.clone();
        let active_for = pair.monitored_side.active_for.clone();
        configure_p(&monitoring);
        configure_q(&active_for);

        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(
            p0,
            "monitoring",
            Box::new(pair.monitoring_side.into_stepper()),
        );
        let p1 = b.add_process("p1");
        b.add_stepper(
            p1,
            "monitored",
            Box::new(pair.monitored_side.into_stepper()),
        );
        let report = b.build().run(RunConfig::new(steps, RoundRobin::new()));
        report.assert_no_panics();
        (report, status, fault)
    }

    #[test]
    fn active_timely_q_is_reported_active() {
        let (_r, status, _fault) = run_pair(4_000, |m| m.set(true), |a| a.set(true));
        assert_eq!(status.get(), Status::Active);
    }

    #[test]
    fn inactive_q_is_reported_inactive() {
        let (_r, status, _fault) = run_pair(4_000, |m| m.set(true), |a| a.set(false));
        assert_eq!(status.get(), Status::Inactive);
    }

    #[test]
    fn not_monitoring_keeps_status_unknown() {
        let (_r, status, fault) = run_pair(2_000, |m| m.set(false), |a| a.set(true));
        assert_eq!(status.get(), Status::Unknown);
        assert_eq!(fault.get(), 0);
    }

    #[test]
    fn fault_cntr_is_bounded_for_timely_active_q() {
        // Round-robin keeps q timely: faultCntr must stabilize quickly.
        let (r, _status, fault) = run_pair(12_000, |m| m.set(true), |a| a.set(true));
        let series = r.trace.obs_series(ProcId(0), OBS_FAULT, 1);
        let final_val = fault.get();
        // The counter must have stopped growing well before the end.
        let last_change = series.last().map(|(t, _)| *t).unwrap_or(0);
        assert!(
            last_change < 6_000,
            "faultCntr still changing at t={last_change} (value {final_val})"
        );
    }

    #[test]
    fn pair_reproduces_blocking_reference_digest() {
        // Golden pin: the digest of this configuration run as blocking
        // closures on the thread-per-task backend the steppers replaced
        // (same register seeds via a fresh default factory). Any shift in
        // the steppers' step positions would change it.
        let (r, _status, _fault) = run_pair(6_000, |m| m.set(true), |a| a.set(true));
        assert_eq!(r.trace.digest(), 0xc204_3b82_52d3_d321);
    }

    #[test]
    #[should_panic(expected = "trivial")]
    fn self_pair_rejected() {
        let factory = RegisterFactory::default();
        let _ = activity_monitor(&factory, ProcId(0), ProcId(0));
    }
}
