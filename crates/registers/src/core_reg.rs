//! The simulated register core: two-phase operations with overlap
//! detection, and the atomic and abortable registers built on it.

use crate::outcome::{ReadOutcome, WriteOutcome};
use crate::policy::{AbortPolicy, EffectPolicy, PolicyDial};
use crate::stats::{OpEvent, OpKind, OpLog};
use crate::{AbortableRegister, AtomicRegister, OpToken};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use tbwf_sim::{Env, ProcId};

/// Per-process counters of operations currently in flight (invoked but
/// not yet completed) across all registers of one factory.
///
/// The cells are plain shared integers so a nemesis can watch one as a
/// gauge: `inflight[p] ≥ 1` holds exactly between `invoke_` and
/// `complete_` of an operation by `p`, which is the window a
/// crash-mid-operation injection targets.
#[derive(Default)]
pub struct InflightGauges {
    cells: Mutex<Vec<Arc<AtomicI64>>>,
}

impl InflightGauges {
    /// Creates gauges with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared counter of process `p` (created on first use).
    pub fn cell(&self, p: ProcId) -> Arc<AtomicI64> {
        let mut cells = self.cells.lock();
        while cells.len() <= p.0 {
            cells.push(Arc::new(AtomicI64::new(0)));
        }
        Arc::clone(&cells[p.0])
    }
}

/// An operation in flight between its invocation and response steps.
struct Inflight<T> {
    id: u64,
    /// The invoking process (its in-flight gauge is held until the
    /// response step).
    proc: ProcId,
    /// Set as soon as any other operation's interval overlaps this one.
    overlapped: bool,
    /// Time of the invocation step (for the operation log).
    invoked: u64,
    /// A write's value, captured at invocation.
    payload: Option<T>,
}

struct CoreState<T> {
    value: T,
    inflight: Vec<Inflight<T>>,
    next_id: u64,
    rng: StdRng,
    /// Per-process gauge cells, cached on first use so the per-operation
    /// gauge updates are a single `fetch_add` instead of a lock + `Arc`
    /// clone through [`InflightGauges::cell`] (the hot path runs twice
    /// per operation).
    gauge_cache: Vec<Option<Arc<AtomicI64>>>,
}

/// Shared core of one simulated register.
pub(crate) struct RegCore<T> {
    name: Arc<str>,
    state: Mutex<CoreState<T>>,
    log: Arc<OpLog>,
    gauges: Arc<InflightGauges>,
}

/// What the core reports when an operation resolves.
struct Resolution<T> {
    overlapped: bool,
    /// Uniform samples for the abort and effect decisions.
    u_abort: f64,
    u_effect: f64,
    /// Invocation time, echoed back from `begin`.
    invoked: u64,
    /// The invoking process, echoed back from `begin` (the completer is
    /// always the invoker, so `record` needs no `env.pid()` call).
    proc: ProcId,
    /// The write payload captured at invocation, if any.
    payload: Option<T>,
}

impl<T: Clone + Send> RegCore<T> {
    fn new(name: String, init: T, seed: u64, log: Arc<OpLog>, gauges: Arc<InflightGauges>) -> Self {
        RegCore {
            name: name.into(),
            state: Mutex::new(CoreState {
                value: init,
                inflight: Vec::new(),
                next_id: 0,
                rng: StdRng::seed_from_u64(seed),
                gauge_cache: Vec::new(),
            }),
            log,
            gauges,
        }
    }

    /// Updates process `p`'s in-flight gauge through the per-register
    /// cache (the caller already holds the state lock, so the cache needs
    /// no synchronization of its own).
    fn gauge_add(&self, st: &mut CoreState<T>, p: ProcId, delta: i64) {
        if st.gauge_cache.len() <= p.0 {
            st.gauge_cache.resize(p.0 + 1, None);
        }
        st.gauge_cache[p.0]
            .get_or_insert_with(|| self.gauges.cell(p))
            .fetch_add(delta, Ordering::SeqCst);
    }

    /// Invocation step: register the in-flight op and mark overlaps.
    ///
    /// Operations left pending by a crashed process are dropped first: a
    /// crashed process takes no further steps, so its unfinished
    /// operation cannot interfere with operations invoked after the
    /// crash (its write never takes effect — the crash landed before the
    /// linearization point). Without this, one crash mid-operation would
    /// mark every later operation on the register as overlapped forever,
    /// and an `AlwaysOnOverlap` abortable register would wedge all
    /// survivors. Overlap marks already made by the dead operation stand:
    /// operations genuinely concurrent with it before the crash may still
    /// abort.
    fn begin(&self, env: &dyn Env, proc: ProcId, invoked: u64, payload: Option<T>) -> u64 {
        let mut st = self.state.lock();
        let mut i = 0;
        while i < st.inflight.len() {
            if env.is_crashed(st.inflight[i].proc) {
                let dead = st.inflight.remove(i);
                self.gauge_add(&mut st, dead.proc, -1);
            } else {
                i += 1;
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        let any = !st.inflight.is_empty();
        for o in &mut st.inflight {
            o.overlapped = true;
        }
        st.inflight.push(Inflight {
            id,
            proc,
            overlapped: any,
            invoked,
            payload,
        });
        self.gauge_add(&mut st, proc, 1);
        id
    }

    /// Response step: remove the in-flight op, sample the adversary, and
    /// run `apply` on the resolution and the register value — all under
    /// one state lock, so completing an operation locks exactly once.
    fn resolve_apply<R>(
        &self,
        id: u64,
        apply: impl FnOnce(&mut Resolution<T>, &mut T) -> R,
    ) -> (Resolution<T>, R) {
        let mut st = self.state.lock();
        let pos = st
            .inflight
            .iter()
            .position(|o| o.id == id)
            .expect("resolving unknown operation");
        let op = st.inflight.remove(pos);
        // The adversary samples are always drawn, even when the current
        // policy ignores them: policy-dial changes must not shift the
        // per-register RNG stream, or shrinking a fault plan would
        // perturb the rest of the run.
        let u_abort = st.rng.random::<f64>();
        let u_effect = st.rng.random::<f64>();
        self.gauge_add(&mut st, op.proc, -1);
        let mut res = Resolution {
            overlapped: op.overlapped,
            u_abort,
            u_effect,
            invoked: op.invoked,
            proc: op.proc,
            payload: op.payload,
        };
        let out = apply(&mut res, &mut st.value);
        (res, out)
    }

    /// Response step without a value effect (tests only; the register
    /// implementations fold their effect into [`Self::resolve_apply`]).
    #[cfg(test)]
    fn resolve(&self, id: u64) -> Resolution<T> {
        self.resolve_apply(id, |_, _| ()).0
    }

    fn record(
        &self,
        env: &dyn Env,
        invoked: u64,
        kind: OpKind,
        res: &Resolution<T>,
        aborted: bool,
        effect: bool,
    ) {
        self.log.push(OpEvent {
            invoked,
            responded: env.now(),
            proc: res.proc,
            reg: self.name.clone(),
            kind,
            overlapped: res.overlapped,
            aborted,
            effect,
        });
    }
}

/// Simulated atomic register (linearizes at the response step).
pub(crate) struct SimAtomicReg<T> {
    core: RegCore<T>,
}

impl<T: Clone + Send> SimAtomicReg<T> {
    pub(crate) fn new(
        name: String,
        init: T,
        seed: u64,
        log: Arc<OpLog>,
        gauges: Arc<InflightGauges>,
    ) -> Self {
        SimAtomicReg {
            core: RegCore::new(name, init, seed, log, gauges),
        }
    }
}

impl<T: Clone + Send + Sync> AtomicRegister<T> for SimAtomicReg<T> {
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken {
        OpToken::new(self.core.begin(env, env.pid(), env.now(), Some(v)))
    }

    fn complete_write(&self, env: &dyn Env, tok: OpToken) {
        let (res, ()) = self.core.resolve_apply(tok.raw(), |res, value| {
            *value = res.payload.take().expect("write resolved without payload");
        });
        self.core
            .record(env, res.invoked, OpKind::Write, &res, false, true);
    }

    fn invoke_read(&self, env: &dyn Env) -> OpToken {
        OpToken::new(self.core.begin(env, env.pid(), env.now(), None))
    }

    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> T {
        let (res, v) = self.core.resolve_apply(tok.raw(), |_, value| value.clone());
        self.core
            .record(env, res.invoked, OpKind::Read, &res, false, false);
        v
    }
}

/// Simulated abortable register.
pub(crate) struct SimAbortableReg<T> {
    core: RegCore<T>,
    abort_policy: AbortPolicy,
    effect_policy: EffectPolicy,
    /// Run-wide override dial shared with the factory (and the nemesis).
    dial: PolicyDial,
    /// If set, only this process may write (single-writer enforcement).
    writer: Option<ProcId>,
    /// If set, only this process may read (single-reader enforcement).
    reader: Option<ProcId>,
}

impl<T: Clone + Send> SimAbortableReg<T> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        init: T,
        seed: u64,
        log: Arc<OpLog>,
        gauges: Arc<InflightGauges>,
        abort_policy: AbortPolicy,
        effect_policy: EffectPolicy,
        dial: PolicyDial,
        writer: Option<ProcId>,
        reader: Option<ProcId>,
    ) -> Self {
        SimAbortableReg {
            core: RegCore::new(name, init, seed, log, gauges),
            abort_policy,
            effect_policy,
            dial,
            writer,
            reader,
        }
    }

    /// The abort/effect policies in force right now (base policies
    /// possibly overridden by the dial).
    fn policies(&self) -> (AbortPolicy, EffectPolicy) {
        self.dial.resolve((self.abort_policy, self.effect_policy))
    }
}

impl<T: Clone + Send + Sync> AbortableRegister<T> for SimAbortableReg<T> {
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken {
        if let Some(w) = self.writer {
            assert_eq!(
                env.pid(),
                w,
                "register {} written by non-owner",
                self.core.name
            );
        }
        OpToken::new(self.core.begin(env, env.pid(), env.now(), Some(v)))
    }

    fn complete_write(&self, env: &dyn Env, tok: OpToken) -> WriteOutcome {
        let (abort_policy, effect_policy) = self.policies();
        let (res, (aborted, effect)) = self.core.resolve_apply(tok.raw(), |res, value| {
            let v = res.payload.take().expect("write resolved without payload");
            if res.overlapped && abort_policy.aborts(res.u_abort) {
                let effect = effect_policy.takes_effect(res.u_effect);
                if effect {
                    *value = v;
                }
                (true, effect)
            } else {
                *value = v;
                (false, true)
            }
        });
        self.core
            .record(env, res.invoked, OpKind::Write, &res, aborted, effect);
        if aborted {
            WriteOutcome::Aborted
        } else {
            WriteOutcome::Ok
        }
    }

    fn invoke_read(&self, env: &dyn Env) -> OpToken {
        if let Some(r) = self.reader {
            assert_eq!(
                env.pid(),
                r,
                "register {} read by non-owner",
                self.core.name
            );
        }
        OpToken::new(self.core.begin(env, env.pid(), env.now(), None))
    }

    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> ReadOutcome<T> {
        let (abort_policy, _) = self.policies();
        let (res, v) = self.core.resolve_apply(tok.raw(), |res, value| {
            if res.overlapped && abort_policy.aborts(res.u_abort) {
                None
            } else {
                Some(value.clone())
            }
        });
        match v {
            Some(v) => {
                self.core
                    .record(env, res.invoked, OpKind::Read, &res, false, false);
                ReadOutcome::Value(v)
            }
            None => {
                self.core
                    .record(env, res.invoked, OpKind::Read, &res, true, false);
                ReadOutcome::Aborted
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::{FreeRunEnv, SimResult};

    fn log() -> Arc<OpLog> {
        Arc::new(OpLog::new())
    }

    fn gauges() -> Arc<InflightGauges> {
        Arc::new(InflightGauges::new())
    }

    /// A free-running env that also reports a fixed set of crashed
    /// processes, for exercising the pending-op purge in `begin`.
    struct CrashyEnv {
        inner: FreeRunEnv,
        crashed: Vec<ProcId>,
    }

    impl Env for CrashyEnv {
        fn tick(&self) -> SimResult<()> {
            self.inner.tick()
        }
        fn now(&self) -> u64 {
            self.inner.now()
        }
        fn pid(&self) -> ProcId {
            self.inner.pid()
        }
        fn observe(&self, key: &'static str, idx: u32, value: i64) {
            self.inner.observe(key, idx, value);
        }
        fn is_crashed(&self, p: ProcId) -> bool {
            self.crashed.contains(&p)
        }
    }

    #[test]
    fn atomic_read_write_solo() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = SimAtomicReg::new("R".into(), 0i64, 1, log(), gauges());
        r.write(&env, 7).unwrap();
        assert_eq!(r.read(&env).unwrap(), 7);
    }

    #[test]
    fn abortable_solo_never_aborts() {
        let env = FreeRunEnv::new(ProcId(0));
        let r = SimAbortableReg::new(
            "R".into(),
            0i64,
            1,
            log(),
            gauges(),
            AbortPolicy::AlwaysOnOverlap,
            EffectPolicy::Never,
            PolicyDial::new(),
            None,
            None,
        );
        for i in 0..100 {
            assert_eq!(r.write(&env, i).unwrap(), WriteOutcome::Ok);
            assert_eq!(r.read(&env).unwrap(), ReadOutcome::Value(i));
        }
    }

    #[test]
    fn overlap_detection_marks_both_ops() {
        let env = FreeRunEnv::new(ProcId(0));
        let r: RegCore<i64> = RegCore::new("R".into(), 0, 1, log(), gauges());
        let a = r.begin(&env, ProcId(0), 0, None);
        let b = r.begin(&env, ProcId(1), 0, Some(1));
        let ra = r.resolve(a);
        let rb = r.resolve(b);
        assert!(ra.overlapped);
        assert!(rb.overlapped);
    }

    #[test]
    fn sequential_ops_do_not_overlap() {
        let env = FreeRunEnv::new(ProcId(0));
        let r: RegCore<i64> = RegCore::new("R".into(), 0, 1, log(), gauges());
        let a = r.begin(&env, ProcId(0), 0, None);
        let ra = r.resolve(a);
        let b = r.begin(&env, ProcId(0), 1, Some(1));
        let rb = r.resolve(b);
        assert!(!ra.overlapped);
        assert!(!rb.overlapped);
    }

    #[test]
    #[should_panic(expected = "written by non-owner")]
    fn single_writer_enforced() {
        let env = FreeRunEnv::new(ProcId(3));
        let r = SimAbortableReg::new(
            "R".into(),
            0i64,
            1,
            log(),
            gauges(),
            AbortPolicy::default(),
            EffectPolicy::default(),
            PolicyDial::new(),
            Some(ProcId(0)),
            None,
        );
        let _ = r.write(&env, 1);
    }

    #[test]
    fn ops_are_logged() {
        let env = FreeRunEnv::new(ProcId(2));
        let l = log();
        let r = SimAtomicReg::new("Reg".into(), 0i64, 1, Arc::clone(&l), gauges());
        r.write(&env, 1).unwrap();
        r.read(&env).unwrap();
        let evs = l.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, OpKind::Write);
        assert_eq!(evs[1].kind, OpKind::Read);
        assert_eq!(evs[0].proc, ProcId(2));
        assert_eq!(&*evs[0].reg, "Reg");
        assert!(evs[0].responded > evs[0].invoked);
    }

    #[test]
    fn inflight_gauge_tracks_invoke_to_complete_window() {
        let g = gauges();
        let r: RegCore<i64> = RegCore::new("R".into(), 0, 1, log(), Arc::clone(&g));
        let env = FreeRunEnv::new(ProcId(2));
        let cell = g.cell(ProcId(2));
        assert_eq!(cell.load(Ordering::SeqCst), 0);
        let a = r.begin(&env, ProcId(2), 0, Some(1));
        assert_eq!(
            cell.load(Ordering::SeqCst),
            1,
            "held between invoke and complete"
        );
        let b = r.begin(&env, ProcId(2), 0, None);
        assert_eq!(cell.load(Ordering::SeqCst), 2);
        r.resolve(a);
        r.resolve(b);
        assert_eq!(cell.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn crashed_pending_op_does_not_poison_later_ops() {
        // p1 invokes a write and crashes before completing it. Under
        // AlwaysOnOverlap, p0's next operations must still succeed: the
        // dead pending op is purged at the next invocation and no longer
        // counts as overlapping.
        let g = gauges();
        let r = SimAbortableReg::new(
            "R".into(),
            0i64,
            1,
            log(),
            Arc::clone(&g),
            AbortPolicy::AlwaysOnOverlap,
            EffectPolicy::Never,
            PolicyDial::new(),
            None,
            None,
        );
        let p1 = CrashyEnv {
            inner: FreeRunEnv::new(ProcId(1)),
            crashed: vec![],
        };
        let _dangling = r.invoke_write(&p1, 99); // never completed
        let p0 = CrashyEnv {
            inner: FreeRunEnv::new(ProcId(0)),
            crashed: vec![ProcId(1)],
        };
        for i in 0..50 {
            assert_eq!(r.write(&p0, i).unwrap(), WriteOutcome::Ok);
            assert_eq!(r.read(&p0).unwrap(), ReadOutcome::Value(i));
        }
        // The dead op's gauge was released when it was purged, and the
        // crashed write never took effect.
        assert_eq!(g.cell(ProcId(1)).load(Ordering::SeqCst), 0);
    }

    #[test]
    fn dial_overrides_only_while_set() {
        let env = FreeRunEnv::new(ProcId(0));
        let dial = PolicyDial::new();
        let r = SimAbortableReg::new(
            "R".into(),
            0i64,
            1,
            log(),
            gauges(),
            AbortPolicy::Never,
            EffectPolicy::Never,
            dial.clone(),
            None,
            None,
        );
        // Overlapped ops under the base Never policy do not abort.
        let t1 = r.invoke_write(&env, 1);
        let t2 = r.invoke_write(&env, 2);
        assert_eq!(r.complete_write(&env, t1), WriteOutcome::Ok);
        assert_eq!(r.complete_write(&env, t2), WriteOutcome::Ok);
        // Under the storm mode they abort (and the writes take effect).
        dial.set(crate::policy::DIAL_ABORT_STORM);
        let t1 = r.invoke_write(&env, 3);
        let t2 = r.invoke_write(&env, 4);
        assert_eq!(r.complete_write(&env, t1), WriteOutcome::Aborted);
        assert_eq!(r.complete_write(&env, t2), WriteOutcome::Aborted);
        assert_eq!(r.read(&env).unwrap(), ReadOutcome::Value(4));
        // Back to base: Never again.
        dial.set(crate::policy::DIAL_BASE);
        let t1 = r.invoke_write(&env, 5);
        let t2 = r.invoke_write(&env, 6);
        assert_eq!(r.complete_write(&env, t1), WriteOutcome::Ok);
        assert_eq!(r.complete_write(&env, t2), WriteOutcome::Ok);
    }
}
