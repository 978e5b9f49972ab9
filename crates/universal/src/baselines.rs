//! Baselines the paper positions itself against (Sections 1.2 and 2).
//!
//! * [`ObstructionFreeCall`] — the query-abortable object used
//!   directly, with no coordination at all: obstruction-free, and under
//!   steady contention essentially no one makes progress.
//! * [`FlmsBoost`] — a panic-flag booster in the style of Fich,
//!   Luchangco, Moir & Shavit \[7\]: on contention everyone publishes a
//!   timestamp and defers to the minimal one. It boosts
//!   obstruction-freedom to wait-freedom **when all correct processes are
//!   timely**, but it is not gracefully degrading: a single
//!   correct-but-slow timestamp holder stalls every timely process
//!   (experiment E5 reproduces the paper's Section 2 claim). This is a
//!   faithful-in-spirit simplification of \[7\] — same coordination
//!   structure (panic flag + minimal timestamp wins), without the
//!   bounded-timeout rotation refinements.
//! * [`CasUniversal`] — a Herlihy-style wait-free universal construction
//!   from compare-and-swap with helping via an announce array: the
//!   "strong synchronization primitives" alternative of Section 1.2.
//!   Wait-free for everyone regardless of timeliness, but built from an
//!   object strictly stronger than (abortable) registers.

use crate::object::{ObjectType, Outcome};
use crate::qa::{Entry, QaSession};
use parking_lot::Mutex;
use std::sync::Arc;
use tbwf_registers::{CasOp, OpToken, RegisterFactory, SharedAtomic, SharedCas};
use tbwf_sim::{Env, ProcId};

/// One operation on the query-abortable object driven with *no*
/// coordination: the plain obstruction-free baseline, in poll form.
///
/// Each attempt is one `apply` (or, after a `⊥`, one `query`) on the
/// object; a finished attempt without a response costs one more local
/// step before the next begins. Under contention this may spin for the
/// whole run (which is the point of the baseline).
pub struct ObstructionFreeCall<T: ObjectType> {
    op: T::Op,
    query_next: bool,
    in_flight: bool,
}

impl<T: ObjectType> ObstructionFreeCall<T> {
    /// Prepares the operation.
    pub fn new(op: T::Op) -> Self {
        ObstructionFreeCall {
            op,
            query_next: false,
            in_flight: false,
        }
    }

    /// Runs one segment. Returns the response in the segment that
    /// completes the operation.
    pub fn poll(&mut self, env: &dyn Env, session: &mut QaSession<T>) -> Option<T::Resp> {
        self.attempt(env, session).flatten()
    }

    /// Starts or continues one attempt. `None` while its register
    /// operations are in flight; otherwise the attempt ended in this
    /// segment, with the response if the operation completed.
    fn attempt(&mut self, env: &dyn Env, session: &mut QaSession<T>) -> Option<Option<T::Resp>> {
        if !self.in_flight {
            if self.query_next {
                session.begin_query();
            } else {
                session.begin_apply(self.op.clone());
            }
            self.in_flight = true;
        }
        let out = session.poll_op(env)?;
        self.in_flight = false;
        Some(match out {
            Outcome::Done(v) => Some(v),
            Outcome::Bot => {
                self.query_next = true;
                None
            }
            Outcome::NoEffect => {
                self.query_next = false;
                None
            }
        })
    }
}

/// Timestamp value meaning "not waiting".
const TS_INF: i64 = i64::MAX;

/// Shared state of the FLMS-style panic booster.
pub struct FlmsShared {
    /// The panic flag: set when some process suspects contention.
    pub panic: SharedAtomic<bool>,
    /// `ts[p]`: the timestamp `p` is waiting with (`TS_INF` if none).
    pub ts: Vec<SharedAtomic<i64>>,
    /// Timestamp generator (read-increment-write; ties broken by id).
    pub ts_gen: SharedAtomic<i64>,
}

impl FlmsShared {
    /// Creates the booster's shared registers for `n` processes.
    pub fn new(factory: &RegisterFactory, n: usize) -> Arc<Self> {
        Arc::new(FlmsShared {
            panic: factory.atomic("FLMS.panic", false),
            ts: (0..n)
                .map(|q| factory.atomic(&format!("FLMS.ts[{q}]"), TS_INF))
                .collect(),
            ts_gen: factory.atomic("FLMS.tsGen", 0),
        })
    }
}

/// Per-process driver of the FLMS-style booster.
pub struct FlmsBoost {
    shared: Arc<FlmsShared>,
    /// Fast-path attempts before panicking.
    pub panic_threshold: u32,
}

impl FlmsBoost {
    /// Creates a driver with the default panic threshold.
    pub fn new(shared: Arc<FlmsShared>) -> Self {
        FlmsBoost {
            shared,
            panic_threshold: 4,
        }
    }
}

/// Where an [`FlmsCall`] is parked between segments. `Pending` stages
/// carry the register operation invoked at the end of the previous
/// segment.
enum FlmsStage {
    /// The call's first segment: it ends at the loop-top step.
    Begin,
    /// Top of an iteration: read the panic flag.
    Iterate,
    /// The panic-flag read is in flight.
    PanicRead(OpToken),
    /// An attempt on the object is in flight (fast path or, when
    /// `panicking`, as the minimal waiter).
    Attempt { panicking: bool },
    /// Raising the panic flag after too many fast-path attempts.
    SetPanic(OpToken),
    /// Panic mode, first time: reading the timestamp generator…
    TsGenRead(OpToken),
    /// …advancing it past `t`…
    TsGenWrite { tok: OpToken, t: i64 },
    /// …and publishing `t` as the own timestamp.
    TsPublish { tok: OpToken, t: i64 },
    /// Scanning `ts[q]` for the minimal `(ts, id)` waiter.
    TsRead {
        q: usize,
        tok: OpToken,
        min: (i64, usize),
    },
    /// Done: withdrawing the own timestamp (then clearing the panic flag
    /// if `unpanic`).
    Withdraw { tok: OpToken, unpanic: bool },
    /// Done: clearing the panic flag.
    Unpanic(OpToken),
}

/// One operation through the FLMS-style booster, in poll form: fast path
/// while the panic flag is clear; on panic, publish a timestamp and
/// proceed only as the minimal waiter.
pub struct FlmsCall<T: ObjectType> {
    of: ObstructionFreeCall<T>,
    attempts: u32,
    registered: bool,
    my_ts: i64,
    resp: Option<T::Resp>,
    stage: FlmsStage,
}

impl<T: ObjectType> FlmsCall<T> {
    /// Prepares the operation.
    pub fn new(op: T::Op) -> Self {
        FlmsCall {
            of: ObstructionFreeCall::new(op),
            attempts: 0,
            registered: false,
            my_ts: TS_INF,
            resp: None,
            stage: FlmsStage::Begin,
        }
    }

    /// Runs one segment. Returns the response in the segment that
    /// completes the operation.
    pub fn poll(
        &mut self,
        env: &dyn Env,
        boost: &FlmsBoost,
        session: &mut QaSession<T>,
    ) -> Option<T::Resp> {
        let sh = &boost.shared;
        let p = session.pid().0;
        match std::mem::replace(&mut self.stage, FlmsStage::Iterate) {
            FlmsStage::Begin => {}
            FlmsStage::Iterate => {
                self.stage = FlmsStage::PanicRead(sh.panic.invoke_read(env));
            }
            FlmsStage::PanicRead(tok) => {
                if sh.panic.complete_read(env, tok) {
                    // Panic mode: publish a timestamp once. The read+write
                    // on ts_gen is not atomic, so two processes may
                    // acquire the same timestamp; the minimal-waiter
                    // comparison tie-breaks on (ts, id), which keeps the
                    // winner unique.
                    if self.registered {
                        self.scan_from(env, sh, 0, (self.my_ts, p));
                    } else {
                        self.stage = FlmsStage::TsGenRead(sh.ts_gen.invoke_read(env));
                    }
                } else {
                    // Fast path: try the obstruction-free object directly.
                    return self.attempt(env, boost, session, false);
                }
            }
            FlmsStage::Attempt { panicking } => {
                return self.attempt(env, boost, session, panicking);
            }
            FlmsStage::SetPanic(tok) => sh.panic.complete_write(env, tok),
            FlmsStage::TsGenRead(tok) => {
                let t = sh.ts_gen.complete_read(env, tok);
                let tok = sh.ts_gen.invoke_write(env, t + 1);
                self.stage = FlmsStage::TsGenWrite { tok, t };
            }
            FlmsStage::TsGenWrite { tok, t } => {
                sh.ts_gen.complete_write(env, tok);
                let tok = sh.ts[p].invoke_write(env, t);
                self.stage = FlmsStage::TsPublish { tok, t };
            }
            FlmsStage::TsPublish { tok, t } => {
                sh.ts[p].complete_write(env, tok);
                self.my_ts = t;
                self.registered = true;
                self.scan_from(env, sh, 0, (t, p));
            }
            FlmsStage::TsRead { q, tok, mut min } => {
                let tq = sh.ts[q].complete_read(env, tok);
                if tq != TS_INF && (tq, q) < min {
                    min = (tq, q);
                }
                if q + 1 < sh.ts.len() {
                    self.scan_from(env, sh, q + 1, min);
                } else if min == (self.my_ts, p) {
                    // …and proceed only while holding the minimal (ts, id).
                    return self.attempt(env, boost, session, true);
                }
                // Not minimal: wait. This wait is exactly what makes the
                // booster non-gracefully-degrading — the minimal holder
                // may be arbitrarily slow.
            }
            FlmsStage::Withdraw { tok, unpanic } => {
                sh.ts[p].complete_write(env, tok);
                if !unpanic {
                    return self.resp.take();
                }
                self.stage = FlmsStage::Unpanic(sh.panic.invoke_write(env, false));
            }
            FlmsStage::Unpanic(tok) => {
                sh.panic.complete_write(env, tok);
                return self.resp.take();
            }
        }
        None
    }

    /// Invokes the read of `ts[q]` in the minimal-waiter scan.
    fn scan_from(&mut self, env: &dyn Env, sh: &FlmsShared, q: usize, min: (i64, usize)) {
        let tok = sh.ts[q].invoke_read(env);
        self.stage = FlmsStage::TsRead { q, tok, min };
    }

    /// Runs one segment of an attempt on the object and, when it ends,
    /// the code that follows it.
    fn attempt(
        &mut self,
        env: &dyn Env,
        boost: &FlmsBoost,
        session: &mut QaSession<T>,
        panicking: bool,
    ) -> Option<T::Resp> {
        let sh = &boost.shared;
        let p = session.pid().0;
        self.stage = FlmsStage::Iterate;
        match self.of.attempt(env, session) {
            None => self.stage = FlmsStage::Attempt { panicking },
            Some(Some(v)) => {
                if !self.registered && !panicking {
                    return Some(v);
                }
                self.resp = Some(v);
                let tok = sh.ts[p].invoke_write(env, TS_INF);
                self.stage = FlmsStage::Withdraw {
                    tok,
                    unpanic: panicking,
                };
            }
            Some(None) if !panicking => {
                self.attempts += 1;
                if self.attempts > boost.panic_threshold {
                    self.stage = FlmsStage::SetPanic(sh.panic.invoke_write(env, true));
                }
            }
            Some(None) => {}
        }
        None
    }
}

/// Herlihy-style wait-free universal construction from CAS, with helping.
pub struct CasUniversal<T: ObjectType> {
    ty: Arc<T>,
    n: usize,
    factory: Arc<RegisterFactory>,
    announce: Vec<SharedAtomic<Option<Entry<T::Op>>>>,
    decisions: Mutex<Vec<DecisionReg<T>>>,
}

/// One slot's decision register in the CAS construction.
type DecisionReg<T> = SharedCas<Option<Entry<<T as ObjectType>::Op>>>;

impl<T: ObjectType> CasUniversal<T> {
    /// Creates the shared object for `n` processes.
    pub fn new(ty: T, n: usize, factory: Arc<RegisterFactory>) -> Arc<Self> {
        let announce = (0..n)
            .map(|q| factory.atomic(&format!("Announce[{q}]"), None))
            .collect();
        Arc::new(CasUniversal {
            ty: Arc::new(ty),
            n,
            factory,
            announce,
            decisions: Mutex::new(Vec::new()),
        })
    }

    fn decision(&self, s: usize) -> DecisionReg<T> {
        let mut d = self.decisions.lock();
        while d.len() <= s {
            let i = d.len();
            d.push(self.factory.cas(&format!("Decide[{i}]"), None));
        }
        Arc::clone(&d[s])
    }

    /// Opens a session for process `p`.
    pub fn session(self: &Arc<Self>, p: ProcId) -> CasSession<T> {
        CasSession {
            obj: Arc::clone(self),
            p,
            replica: self.ty.initial(),
            last_of: vec![None; self.n],
            cursor: 0,
            my_seq: 0,
            mine: None,
            stage: CasStage::Idle,
        }
    }
}

/// Where a [`CasSession`] operation is parked between segments.
enum CasStage<Op> {
    /// No operation in flight.
    Idle,
    /// The operation's first segment: announce it.
    Start,
    /// The announce write is in flight.
    Announce(OpToken),
    /// The read of the frontier slot's decision register is in flight.
    DecisionRead(OpToken),
    /// The read of the helped process's announce register is in flight.
    HelpRead(OpToken),
    /// The CAS deciding slot `s` is in flight.
    Decide {
        s: usize,
        op: CasOp<Option<Entry<Op>>>,
    },
    /// Done: the announce register is being cleared.
    Clear(OpToken),
}

/// Per-process handle on a [`CasUniversal`] object.
pub struct CasSession<T: ObjectType> {
    obj: Arc<CasUniversal<T>>,
    p: ProcId,
    replica: T::State,
    last_of: Vec<Option<(u64, T::Resp)>>,
    cursor: usize,
    my_seq: u64,
    /// The entry of the operation in flight.
    mine: Option<Entry<T::Op>>,
    stage: CasStage<T::Op>,
}

impl<T: ObjectType> CasSession<T> {
    fn applied(&self, e: &Entry<T::Op>) -> bool {
        self.last_of[e.proposer.0]
            .as_ref()
            .is_some_and(|(seq, _)| *seq >= e.seq)
    }

    fn replay_one(&mut self, e: Entry<T::Op>) {
        if !self.applied(&e) {
            let resp = self.obj.ty.apply(&mut self.replica, &e.op);
            self.last_of[e.proposer.0] = Some((e.seq, resp));
        }
        self.cursor += 1;
    }

    /// Starts `op` (see [`CasSession::poll_apply`]). Wait-free for every
    /// process that keeps taking steps, via announce-array helping — but
    /// requires CAS, a strong primitive.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn begin_apply(&mut self, op: T::Op) {
        assert!(
            matches!(self.stage, CasStage::Idle),
            "begin_apply while an operation is in flight"
        );
        self.my_seq += 1;
        self.mine = Some(Entry {
            proposer: self.p,
            seq: self.my_seq,
            op,
        });
        self.stage = CasStage::Start;
    }

    /// Runs one segment of the operation in flight: completes the
    /// register operation invoked at the end of the previous segment,
    /// runs the local code up to the next register invocation (invoking
    /// it), and returns the response in the segment that completes the
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if no operation is in flight.
    pub fn poll_apply(&mut self, env: &dyn Env) -> Option<T::Resp> {
        let me = self.p.0;
        match std::mem::replace(&mut self.stage, CasStage::Idle) {
            CasStage::Idle => panic!("poll_apply without an operation in flight"),
            CasStage::Start => {
                let tok = self.obj.announce[me].invoke_write(env, self.mine.clone());
                self.stage = CasStage::Announce(tok);
            }
            CasStage::Announce(tok) => {
                self.obj.announce[me].complete_write(env, tok);
                self.replay_next(env);
            }
            CasStage::DecisionRead(tok) => {
                // Replay decided slots.
                match self.obj.decision(self.cursor).complete_read(env, tok) {
                    Some(e) => {
                        self.replay_one(e);
                        self.replay_next(env);
                    }
                    None => {
                        let seq = self.mine.as_ref().expect("operation in flight").seq;
                        if self.last_of[me].as_ref().is_some_and(|(s, _)| *s == seq) {
                            let tok = self.obj.announce[me].invoke_write(env, None);
                            self.stage = CasStage::Clear(tok);
                        } else {
                            // Decide the frontier slot, helping the
                            // slot's owner.
                            let helped = &self.obj.announce[self.cursor % self.obj.n];
                            self.stage = CasStage::HelpRead(helped.invoke_read(env));
                        }
                    }
                }
            }
            CasStage::HelpRead(tok) => {
                let s = self.cursor;
                let helped = self.obj.announce[s % self.obj.n].complete_read(env, tok);
                let cand = match helped {
                    Some(e) if !self.applied(&e) => e,
                    _ => self.mine.clone().expect("operation in flight"),
                };
                let op = self.obj.decision(s).invoke_cas(env, None, Some(cand));
                self.stage = CasStage::Decide { s, op };
            }
            CasStage::Decide { s, op } => {
                // The slot is now decided (by us or a racer).
                let _ = self.obj.decision(s).complete_cas(env, op);
                self.replay_next(env);
            }
            CasStage::Clear(tok) => {
                self.obj.announce[me].complete_write(env, tok);
                self.mine = None;
                let (_, resp) = self.last_of[me].as_ref().expect("own operation replayed");
                return Some(resp.clone());
            }
        }
        None
    }

    /// Invokes the read of the frontier slot's decision register.
    fn replay_next(&mut self, env: &dyn Env) {
        let tok = self.obj.decision(self.cursor).invoke_read(env);
        self.stage = CasStage::DecisionRead(tok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Counter, CounterOp};
    use crate::qa::QaObject;
    use tbwf_registers::RegisterFactoryConfig;
    use tbwf_sim::FreeRunEnv;

    fn factory() -> Arc<RegisterFactory> {
        Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()))
    }

    /// Drives a poll-form operation solo on a free-running env: one
    /// `tick` between segments.
    fn solo(env: &FreeRunEnv, mut poll: impl FnMut(&dyn Env) -> Option<i64>) -> i64 {
        loop {
            if let Some(v) = poll(env) {
                return v;
            }
            env.tick().unwrap();
        }
    }

    #[test]
    fn obstruction_free_driver_completes_solo() {
        let obj = QaObject::new(Counter, 2, factory());
        let env = FreeRunEnv::new(ProcId(0));
        let mut s = obj.session(ProcId(0));
        for i in 1..=10 {
            let mut call = ObstructionFreeCall::new(CounterOp::Inc);
            assert_eq!(solo(&env, |env| call.poll(env, &mut s)), i);
        }
    }

    #[test]
    fn cas_universal_sequential_sessions() {
        let f = factory();
        let obj = CasUniversal::new(Counter, 2, f);
        let env0 = FreeRunEnv::new(ProcId(0));
        let env1 = FreeRunEnv::new(ProcId(1));
        let mut s0 = obj.session(ProcId(0));
        let mut s1 = obj.session(ProcId(1));
        let mut responses = Vec::new();
        for i in 0..10 {
            let (s, env) = if i % 2 == 0 {
                (&mut s0, &env0)
            } else {
                (&mut s1, &env1)
            };
            s.begin_apply(CounterOp::Inc);
            responses.push(solo(env, |env| s.poll_apply(env)));
        }
        let mut sorted = responses.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=10).collect::<Vec<i64>>());
    }

    #[test]
    fn flms_solo_completes() {
        let f = factory();
        let obj = QaObject::new(Counter, 2, Arc::clone(&f));
        let shared = FlmsShared::new(&f, 2);
        let boost = FlmsBoost::new(shared);
        let env = FreeRunEnv::new(ProcId(0));
        let mut s = obj.session(ProcId(0));
        for i in 1..=5 {
            let mut call = FlmsCall::new(CounterOp::Inc);
            assert_eq!(solo(&env, |env| call.poll(env, &boost, &mut s)), i);
        }
    }

    /// Golden pins: digests of the n = 3 counter workloads run with the
    /// blocking forms of these baselines on the thread-per-task backend.
    /// The poll forms must take exactly the same steps.
    #[test]
    fn poll_forms_reproduce_blocking_reference_digests() {
        use crate::harness::{run_counter_workload, Engine, WorkloadConfig};
        use tbwf_sim::schedule::{RoundRobin, SeededRandom};
        use tbwf_sim::RunConfig;
        let cases = [
            (
                Engine::PlainOf,
                0x4440_51bb_b77c_756d,
                0x8022_793f_393b_654e,
                0x3974_466c_ccd9_a7da,
            ),
            (
                Engine::FlmsBoost,
                0x344f_9e59_e3ba_d021,
                0x84e6_4544_9b0c_4a86,
                0xf98b_b46f_de0c_2354,
            ),
            (
                Engine::HerlihyCas,
                0xacb7_9173_5b51_0091,
                0x17d3_8bae_533b_3a4e,
                0x5df3_2e30_8af8_7037,
            ),
        ];
        for (engine, rr, random_4ops, random) in cases {
            let run = |ops_per_proc, config| {
                let cfg = WorkloadConfig {
                    n: 3,
                    engine,
                    ops_per_proc,
                    ..Default::default()
                };
                let out = run_counter_workload(&cfg, config);
                out.report.assert_no_panics();
                out.report.trace.digest()
            };
            let rr_got = run(u64::MAX, RunConfig::new(30_000, RoundRobin::new()));
            assert_eq!(rr_got, rr, "{engine:?}, round-robin");
            let got = run(4, RunConfig::new(30_000, SeededRandom::new(3)));
            assert_eq!(got, random_4ops, "{engine:?}, 4 ops, seeded random");
            let got = run(u64::MAX, RunConfig::new(30_000, SeededRandom::new(9)));
            assert_eq!(got, random, "{engine:?}, seeded random");
        }
    }
}
