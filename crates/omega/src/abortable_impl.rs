//! Figures 4–6: implementation of Ω∆ using single-writer single-reader
//! **abortable** registers only (Theorem 13).
//!
//! Three pieces, exactly as in the paper:
//!
//! * [`MsgChannels`] (Figure 4) — communicating the *final value of a
//!   variable that stops changing*: the writer retries until one write
//!   succeeds; the reader backs off (doubling `readTimeout`) whenever its
//!   reads abort or return nothing new, eventually letting a `q`-timely
//!   writer run solo.
//! * [`HeartbeatChannels`] (Figure 5) — communicating a heartbeat through
//!   **two** alternating registers. One register is not enough: a read
//!   that aborts proves the writer is alive but not that it is timely —
//!   a slow writer can keep one register perpetually "under write". With
//!   two registers a slow writer is caught: while it dawdles on one
//!   register, reads of the *other* neither abort nor see a new value.
//! * [`AbortableOmegaProcess`] (Figure 6) — the main loop: rank by local
//!   counter views, punish inactive processes by *asking them* to raise
//!   their own counter (`actrTo`), self-punish on re-candidacy, and gate
//!   heartbeats on `writeDone` so that a process that cannot deliver its
//!   counter to `q` stops looking active to `q`.
//!
//! All three run as one poll-driven [`Stepper`]
//! ([`AbortableOmegaStepper`]): the Figure 6 loop with the Figure 4/5
//! sub-routines inlined. One `step` is one step of the process, and
//! every register operation spans two of them (invoked at the end of one
//! segment, completed at the start of the next). Line numbers in
//! comments refer to Figures 4, 5 and 6.

// The `for q in 0..n` loops below deliberately mirror the paper's
// "for each q ∈ Π − {p}" iterations over several parallel vectors.
#![allow(clippy::needless_range_loop)]

use crate::{set_leader, OmegaHandles};
use std::collections::BTreeSet;
use tbwf_registers::{OpToken, ReadOutcome, SharedAbortable};
use tbwf_sim::{Control, Env, ProcId, StepCtx, Stepper};

/// A Figure 4/6 message: `⟨counter_p[p], actrTo_p[q]⟩`.
pub type Msg = (i64, i64);

/// The Figure 4 communication state of one process `p`.
pub struct MsgChannels {
    /// `MsgRegister[p, q]`, written by `p`, read by `q` (index `q`).
    out: Vec<Option<SharedAbortable<Msg>>>,
    /// `MsgRegister[q, p]`, written by `q`, read by `p` (index `q`).
    inn: Vec<Option<SharedAbortable<Msg>>>,
    /// `msgCurr[q]`: the message being delivered to `q`.
    msg_curr: Vec<Msg>,
    /// `prevMsgFrom[q]`: the last message successfully read from `q`.
    prev_msg_from: Vec<Msg>,
    /// `readTimer[q]` / `readTimeout[q]`: the read backoff towards `q`.
    read_timer: Vec<u64>,
    read_timeout: Vec<u64>,
    /// `prevWriteDone[q]`: whether `msgCurr[q]` was written successfully.
    prev_write_done: Vec<bool>,
}

impl MsgChannels {
    /// Creates the channel state of one process `p` in a system of `n`
    /// processes. `out[q]`/`inn[q]` must be `Some` exactly for `q ≠ p`.
    pub fn new(
        n: usize,
        out: Vec<Option<SharedAbortable<Msg>>>,
        inn: Vec<Option<SharedAbortable<Msg>>>,
    ) -> Self {
        MsgChannels {
            out,
            inn,
            msg_curr: vec![(0, 0); n],
            prev_msg_from: vec![(0, 0); n],
            read_timer: vec![1; n],
            read_timeout: vec![1; n],
            prev_write_done: vec![true; n],
        }
    }
}

/// The Figure 5 heartbeat state of one process `p`.
pub struct HeartbeatChannels {
    /// `HbRegister1[p, q]` / `HbRegister2[p, q]` (written by `p`).
    hb1_out: Vec<Option<SharedAbortable<i64>>>,
    hb2_out: Vec<Option<SharedAbortable<i64>>>,
    /// `HbRegister1[q, p]` / `HbRegister2[q, p]` (read by `p`).
    hb1_in: Vec<Option<SharedAbortable<i64>>>,
    hb2_in: Vec<Option<SharedAbortable<i64>>>,
    /// `hbTimeout[q]` / `hbTimer[q]`: the adaptive sampling period.
    hb_timeout: Vec<u64>,
    hb_timer: Vec<u64>,
    /// `prevHb1[q]`, `prevHb2[q]`, `hb1[q]`, `hb2[q]`: the previous and
    /// current samples of both registers; `None` encodes `⊥` (an aborted
    /// read).
    prev_hb1: Vec<Option<i64>>,
    prev_hb2: Vec<Option<i64>>,
    hb1: Vec<Option<i64>>,
    hb2: Vec<Option<i64>>,
    /// `hbSendCounter`.
    hb_send_counter: i64,
    /// `activeSet`, as last returned by `ReceiveHeartbeat`.
    active_set: BTreeSet<ProcId>,
}

impl HeartbeatChannels {
    /// Creates the heartbeat state; register vectors must be `Some`
    /// exactly for `q ≠ p`.
    pub fn new(
        p: ProcId,
        n: usize,
        hb1_out: Vec<Option<SharedAbortable<i64>>>,
        hb2_out: Vec<Option<SharedAbortable<i64>>>,
        hb1_in: Vec<Option<SharedAbortable<i64>>>,
        hb2_in: Vec<Option<SharedAbortable<i64>>>,
    ) -> Self {
        let mut active_set = BTreeSet::new();
        active_set.insert(p); // { Initial state }: activeSet = {p}
        HeartbeatChannels {
            hb1_out,
            hb2_out,
            hb1_in,
            hb2_in,
            hb_timeout: vec![1; n],
            hb_timer: vec![1; n],
            prev_hb1: vec![Some(0); n],
            prev_hb2: vec![Some(0); n],
            hb1: vec![Some(0); n],
            hb2: vec![Some(0); n],
            hb_send_counter: 0,
            active_set,
        }
    }
}

/// The per-process state and code of the Figure 6 main algorithm.
pub struct AbortableOmegaProcess {
    /// This process.
    pub p: ProcId,
    /// Number of processes.
    pub n: usize,
    /// The Ω∆ input/output handles.
    pub handles: OmegaHandles,
    /// Figure 4 channel state.
    pub msgs: MsgChannels,
    /// Figure 5 heartbeat state.
    pub hb: HeartbeatChannels,
}

impl AbortableOmegaProcess {
    /// The Figure 6 main loop, with the Figure 4/5 sub-routines inlined,
    /// as a poll-driven [`Stepper`]. Runs forever.
    pub fn into_stepper(self) -> AbortableOmegaStepper {
        let n = self.n;
        // { Initial state }
        AbortableOmegaStepper {
            leader: self.p,
            counter: vec![0; n],
            actr_to: vec![0; n],
            write_done: vec![false; n],
            msg_to: vec![(0, 0); n],
            state: AbState::Start,
            proc: self,
        }
    }
}

/// Where the Figure 4–6 control flow is parked between steps. `Body`
/// variants name the per-peer segment the next step executes; `Pending`
/// variants carry the token of an in-flight register operation.
///
/// Each iteration of a `for each q ∈ Π − {p}` loop in Figures 4 and 5
/// costs one local step (the `Body` segments), plus two steps per
/// register operation it performs.
#[derive(Clone, Copy)]
enum AbState {
    /// Line 41: the top of `repeat forever`; runs lines 42–44.
    Start,
    /// Line 43: `while CANDIDATE = false do skip` — one step per check.
    WaitCand,
    /// Line 45: one iteration of `do … while CANDIDATE = true` costs one
    /// step; this segment enters `SendHeartbeat` (line 46, Figure 5
    /// line 21).
    MainHead,
    /// Figure 5, lines 22–25: the per-`q` step of `SendHeartbeat`.
    SendBody { q: usize },
    /// Figure 5: the `WRITE(HbRegister1[p, q], hbSendCounter)` is in
    /// flight.
    SendHb1Pending { q: usize, tok: OpToken },
    /// Figure 5: the `WRITE(HbRegister2[p, q], hbSendCounter)` is in
    /// flight.
    SendHb2Pending { q: usize, tok: OpToken },
    /// Figure 5, lines 27–30: the per-`q` step of `ReceiveHeartbeat`.
    RecvBody { q: usize },
    /// Figure 5, line 33: the `READ(HbRegister1[q, p])` is in flight.
    RecvHb1Pending { q: usize, tok: OpToken },
    /// Figure 5, line 34: the `READ(HbRegister2[q, p])` is in flight.
    RecvHb2Pending { q: usize, tok: OpToken },
    /// Figure 4, lines 2–4: the per-`q` step of `WriteMsgs`.
    WriteBody { q: usize },
    /// Figure 4, line 5: the `WRITE(MsgRegister[p, q], msgCurr[q])` is in
    /// flight.
    WritePending { q: usize, tok: OpToken },
    /// Figure 4, lines 9–12: the per-`q` step of `ReadMsgs`.
    ReadBody { q: usize },
    /// Figure 4, line 13: the `READ(MsgRegister[q, p])` is in flight.
    ReadPending { q: usize, tok: OpToken },
}

/// The Figure 6 main loop of one process, with the Figure 4/5 channel
/// sub-routines inlined, as a [`Stepper`] state machine. Built with
/// [`AbortableOmegaProcess::into_stepper`].
pub struct AbortableOmegaStepper {
    proc: AbortableOmegaProcess,
    /// `leader`: the last leader chosen on line 48.
    leader: ProcId,
    /// `counter[q]`: the local view of every process's counter.
    counter: Vec<i64>,
    /// `actrTo[q]`: the counter value `q` is asked to exceed.
    actr_to: Vec<i64>,
    /// `writeDone`: what `WriteMsgs` returned (line 54).
    write_done: Vec<bool>,
    /// `msgTo[q]` (line 53).
    msg_to: Vec<Msg>,
    state: AbState,
}

impl AbortableOmegaStepper {
    /// The first peer `≥ from` (skipping `p`), if any.
    fn next_other(&self, from: usize) -> Option<usize> {
        (from..self.proc.n).find(|&q| q != self.proc.p.0)
    }

    /// Line 42, then fall through to the line-43 check.
    fn outer_top(&mut self, env: &dyn Env) {
        // 42: LEADER ← ?
        set_leader(env, &self.proc.handles.leader, None);
        self.arm_or_wait(env);
    }

    /// Line 43; on candidacy, line 44 and entry into the line-45 loop.
    fn arm_or_wait(&mut self, _env: &dyn Env) {
        // 43: while CANDIDATE = false do skip
        if !self.proc.handles.candidate.get() {
            self.state = AbState::WaitCand;
            return;
        }
        // 44: self-punishment beyond the current leader's counter.
        let p = self.proc.p.0;
        self.counter[p] = self.counter[p].max(self.counter[self.leader.0] + 1);
        self.state = AbState::MainHead;
    }

    /// Advances the `SendHeartbeat` loop (Figure 5, line 22) past peer
    /// `q`.
    fn advance_send(&mut self, env: &dyn Env, q: usize) {
        match self.next_other(q + 1) {
            Some(q) => self.state = AbState::SendBody { q },
            None => self.begin_receive(env),
        }
    }

    /// Line 47: enter `ReceiveHeartbeat` (Figure 5, line 27).
    fn begin_receive(&mut self, env: &dyn Env) {
        match self.next_other(0) {
            Some(q) => self.state = AbState::RecvBody { q },
            None => self.finish_receive(env),
        }
    }

    /// Advances the `ReceiveHeartbeat` loop (Figure 5, line 27) past peer
    /// `q`.
    fn advance_recv(&mut self, env: &dyn Env, q: usize) {
        match self.next_other(q + 1) {
            Some(q) => self.state = AbState::RecvBody { q },
            None => self.finish_receive(env),
        }
    }

    /// Figure 5 line 40 (`return activeSet`), lines 48–53, then entry
    /// into `WriteMsgs` (line 54, Figure 4 line 2).
    fn finish_receive(&mut self, env: &dyn Env) {
        let p = self.proc.p.0;
        // 47: activeSet ← ReceiveHeartbeat()
        // 48: pick the active process with the smallest counter.
        self.leader = *self
            .proc
            .hb
            .active_set
            .iter()
            .min_by_key(|&&q| (self.counter[q.0], q))
            .expect("activeSet always contains p");
        // 49: LEADER ← leader
        set_leader(env, &self.proc.handles.leader, Some(self.leader));
        // 50–53: assemble messages, punishing inactive processes.
        for q in 0..self.proc.n {
            if q == p {
                continue;
            }
            // 51–52: ask inactive q to raise its counter beyond the
            // current leader's.
            if !self.proc.hb.active_set.contains(&ProcId(q)) {
                self.actr_to[q] = self.actr_to[q].max(self.counter[self.leader.0] + 1);
            }
            // 53: msgTo[q] ← ⟨counter[p], actrTo[q]⟩
            self.msg_to[q] = (self.counter[p], self.actr_to[q]);
        }
        match self.next_other(0) {
            Some(q) => self.state = AbState::WriteBody { q },
            None => self.finish_writes(env),
        }
    }

    /// Advances the `WriteMsgs` loop (Figure 4, line 2) past peer `q`.
    fn advance_write(&mut self, env: &dyn Env, q: usize) {
        match self.next_other(q + 1) {
            Some(q) => self.state = AbState::WriteBody { q },
            None => self.finish_writes(env),
        }
    }

    /// Figure 4 line 7 / line 54, then entry into `ReadMsgs` (line 55,
    /// Figure 4 line 9).
    fn finish_writes(&mut self, env: &dyn Env) {
        // 7: return prevWriteDone; 54: writeDone ← WriteMsgs(msgTo)
        self.write_done = self.proc.msgs.prev_write_done.clone();
        match self.next_other(0) {
            Some(q) => self.state = AbState::ReadBody { q },
            None => self.finish_reads(env),
        }
    }

    /// Advances the `ReadMsgs` loop (Figure 4, line 9) past peer `q`.
    fn advance_read(&mut self, env: &dyn Env, q: usize) {
        match self.next_other(q + 1) {
            Some(q) => self.state = AbState::ReadBody { q },
            None => self.finish_reads(env),
        }
    }

    /// Lines 56–58, then the line-59 re-check.
    fn finish_reads(&mut self, env: &dyn Env) {
        let p = self.proc.p.0;
        // 19: return prevMsgFrom; 55: msgFrom ← ReadMsgs()
        // 56–58: adopt counters and apply received punishments.
        for q in 0..self.proc.n {
            if q == p {
                continue;
            }
            let (cq, actr_from_q) = self.proc.msgs.prev_msg_from[q];
            self.counter[q] = cq;
            self.counter[p] = self.counter[p].max(actr_from_q);
        }
        // 59: while CANDIDATE = true
        if self.proc.handles.candidate.get() {
            self.state = AbState::MainHead;
        } else {
            self.outer_top(env);
        }
    }
}

impl Stepper for AbortableOmegaStepper {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        match self.state {
            AbState::Start => self.outer_top(env),
            AbState::WaitCand => self.arm_or_wait(env),
            AbState::MainHead => {
                // 46 / Figure 5 line 21: bump the heartbeat counter, then
                // the first per-peer inspection step.
                self.proc.hb.hb_send_counter += 1;
                match self.next_other(0) {
                    Some(q) => self.state = AbState::SendBody { q },
                    None => self.begin_receive(env),
                }
            }
            AbState::SendBody { q } => {
                // 22–25: write both registers of every destination
                // (dest = writeDone); write aborts are ignored.
                if self.write_done[q] {
                    let hb = &self.proc.hb;
                    let tok = hb.hb1_out[q]
                        .as_ref()
                        .expect("hb1 out register")
                        .invoke_write(env, hb.hb_send_counter);
                    self.state = AbState::SendHb1Pending { q, tok };
                } else {
                    self.advance_send(env, q);
                }
            }
            AbState::SendHb1Pending { q, tok } => {
                let hb = &self.proc.hb;
                let _ = hb.hb1_out[q]
                    .as_ref()
                    .expect("hb1 out register")
                    .complete_write(env, tok);
                let tok = hb.hb2_out[q]
                    .as_ref()
                    .expect("hb2 out register")
                    .invoke_write(env, hb.hb_send_counter);
                self.state = AbState::SendHb2Pending { q, tok };
            }
            AbState::SendHb2Pending { q, tok } => {
                let _ = self.proc.hb.hb2_out[q]
                    .as_ref()
                    .expect("hb2 out register")
                    .complete_write(env, tok);
                self.advance_send(env, q);
            }
            AbState::RecvBody { q } => {
                let hb = &mut self.proc.hb;
                // 28: if hbTimer[q] ≥ 1 then hbTimer[q] ← hbTimer[q] − 1
                if hb.hb_timer[q] >= 1 {
                    hb.hb_timer[q] -= 1;
                }
                // 29: if hbTimer[q] = 0 then
                if hb.hb_timer[q] == 0 {
                    // 30: hbTimer[q] ← hbTimeout[q]
                    hb.hb_timer[q] = hb.hb_timeout[q];
                    // 31–32: remember the previous samples.
                    hb.prev_hb1[q] = hb.hb1[q];
                    hb.prev_hb2[q] = hb.hb2[q];
                    // 33: invoke the first read.
                    let tok = hb.hb1_in[q]
                        .as_ref()
                        .expect("hb1 in register")
                        .invoke_read(env);
                    self.state = AbState::RecvHb1Pending { q, tok };
                } else {
                    self.advance_recv(env, q);
                }
            }
            AbState::RecvHb1Pending { q, tok } => {
                // 33: response (⊥ becomes None); 34: invoke the second read.
                let hb = &mut self.proc.hb;
                hb.hb1[q] = hb.hb1_in[q]
                    .as_ref()
                    .expect("hb1 in register")
                    .complete_read(env, tok)
                    .value();
                let tok = hb.hb2_in[q]
                    .as_ref()
                    .expect("hb2 in register")
                    .invoke_read(env);
                self.state = AbState::RecvHb2Pending { q, tok };
            }
            AbState::RecvHb2Pending { q, tok } => {
                // 34: response.
                let hb = &mut self.proc.hb;
                hb.hb2[q] = hb.hb2_in[q]
                    .as_ref()
                    .expect("hb2 in register")
                    .complete_read(env, tok)
                    .value();
                // 35: fresh-or-aborted on BOTH registers ⇒ active.
                let fresh1 = hb.hb1[q].is_none() || hb.hb1[q] != hb.prev_hb1[q];
                let fresh2 = hb.hb2[q].is_none() || hb.hb2[q] != hb.prev_hb2[q];
                if fresh1 && fresh2 {
                    // 36: activeSet ← activeSet ∪ {q}
                    hb.active_set.insert(ProcId(q));
                } else {
                    // 38–39: activeSet ← activeSet − {q}; adapt timeout.
                    hb.active_set.remove(&ProcId(q));
                    hb.hb_timeout[q] += 1;
                }
                self.advance_recv(env, q);
            }
            AbState::WriteBody { q } => {
                let msgs = &mut self.proc.msgs;
                // 3: if (not prevWriteDone[q]) or msgCurr[q] ≠ msgTo[q]
                if !msgs.prev_write_done[q] || msgs.msg_curr[q] != self.msg_to[q] {
                    // 4: if prevWriteDone[q] then msgCurr[q] := msgTo[q]
                    if msgs.prev_write_done[q] {
                        msgs.msg_curr[q] = self.msg_to[q];
                    }
                    // 5: res ← WRITE(MsgRegister[p, q], msgCurr[q])
                    let tok = msgs.out[q]
                        .as_ref()
                        .expect("out register for peer")
                        .invoke_write(env, msgs.msg_curr[q]);
                    self.state = AbState::WritePending { q, tok };
                } else {
                    self.advance_write(env, q);
                }
            }
            AbState::WritePending { q, tok } => {
                // 5: response; 6: prevWriteDone[q] ← (res = ok)
                let msgs = &mut self.proc.msgs;
                let res = msgs.out[q]
                    .as_ref()
                    .expect("out register for peer")
                    .complete_write(env, tok);
                msgs.prev_write_done[q] = res.is_ok();
                self.advance_write(env, q);
            }
            AbState::ReadBody { q } => {
                let msgs = &mut self.proc.msgs;
                // 10: if readTimer[q] ≥ 1 then readTimer[q] ← readTimer[q] − 1
                if msgs.read_timer[q] >= 1 {
                    msgs.read_timer[q] -= 1;
                }
                // 11: if readTimer[q] = 0 then
                if msgs.read_timer[q] == 0 {
                    // 12: readTimer[q] ← readTimeout[q]
                    msgs.read_timer[q] = msgs.read_timeout[q];
                    // 13: res[q] ← READ(MsgRegister[q, p])
                    let tok = msgs.inn[q]
                        .as_ref()
                        .expect("in register for peer")
                        .invoke_read(env);
                    self.state = AbState::ReadPending { q, tok };
                } else {
                    self.advance_read(env, q);
                }
            }
            AbState::ReadPending { q, tok } => {
                // 13: response.
                let msgs = &mut self.proc.msgs;
                let res = msgs.inn[q]
                    .as_ref()
                    .expect("in register for peer")
                    .complete_read(env, tok);
                match res {
                    // 14–15: abort or stale ⇒ back off.
                    ReadOutcome::Aborted => msgs.read_timeout[q] += 1,
                    ReadOutcome::Value(v) if v == msgs.prev_msg_from[q] => {
                        msgs.read_timeout[q] += 1;
                    }
                    // 16–18: fresh value ⇒ record it, reset the backoff.
                    ReadOutcome::Value(v) => {
                        msgs.prev_msg_from[q] = v;
                        msgs.read_timeout[q] = 1;
                    }
                }
                self.advance_read(env, q);
            }
        }
        Control::Yield
    }
}

#[cfg(test)]
mod tests {
    use crate::harness::{run_omega_system, OmegaKind, OmegaSystemConfig};
    use crate::spec::{check_spec, OmegaRunData, SpecParams};
    use crate::CandidateScript;
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::{ProcId, RunConfig};

    #[test]
    fn abortable_omega_elects_with_all_timely() {
        let cfg = OmegaSystemConfig {
            n: 3,
            kind: OmegaKind::Abortable,
            scripts: vec![CandidateScript::Always; 3],
            ..Default::default()
        };
        let out = run_omega_system(&cfg, RunConfig::new(120_000, RoundRobin::new()));
        out.report.assert_no_panics();
        let timely: Vec<ProcId> = (0..3).map(ProcId).collect();
        let data = OmegaRunData::from_trace(&out.report.trace, 3, &timely);
        let v = check_spec(&data, SpecParams::default(), false);
        assert!(v.ok, "spec failures: {:?}", v.failures);
        let l = v.elected.expect("a leader must be elected");
        for p in 0..3 {
            assert_eq!(out.handles[p].leader.get(), Some(l), "p{p} disagrees");
        }
    }

    #[test]
    fn abortable_omega_survives_leader_crash() {
        let cfg = OmegaSystemConfig {
            n: 3,
            kind: OmegaKind::Abortable,
            scripts: vec![CandidateScript::Always; 3],
            ..Default::default()
        };
        let out = run_omega_system(
            &cfg,
            RunConfig::new(300_000, RoundRobin::new()).crash(30_000, ProcId(0)),
        );
        out.report.assert_no_panics();
        let l1 = out.handles[1].leader.get();
        let l2 = out.handles[2].leader.get();
        assert_eq!(l1, l2, "survivors disagree: {l1:?} vs {l2:?}");
        assert_ne!(l1, Some(ProcId(0)), "crashed process still leads");
        assert!(l1.is_some(), "no leader after crash");
    }
}
