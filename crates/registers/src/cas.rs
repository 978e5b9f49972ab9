//! Compare-and-swap registers — the *strong* primitive used only by the
//! Herlihy-style baseline (Section 1.2 of the paper: "any object has a
//! wait-free implementation, provided one is allowed to use some strong
//! synchronization primitives like compare-and-swap"). The paper's own
//! constructions never use this.

use crate::stats::{OpEvent, OpKind, OpLog};
use crate::OpToken;
use parking_lot::Mutex;
use std::sync::Arc;
use tbwf_sim::Env;

/// A compare-and-swap between its invocation and its response step: the
/// invocation time and the operands captured at invocation.
#[derive(Clone, Debug)]
pub struct CasOp<T> {
    invoked: u64,
    expected: T,
    new: T,
}

/// A linearizable compare-and-swap register. Never aborts.
///
/// Like the other registers, an operation spans an invocation step and a
/// response step; the poll form is the only form (stepper code invokes
/// at the end of one segment and completes at the start of the next).
pub trait CasRegister<T: Clone + PartialEq>: Send + Sync {
    /// Invocation step of a compare-and-swap of `expected` → `new`.
    fn invoke_cas(&self, env: &dyn Env, expected: T, new: T) -> CasOp<T>;

    /// Response step; linearization point. Atomically: if the value
    /// equals `expected`, replace it with `new` and return `true`;
    /// otherwise return `false`.
    fn complete_cas(&self, env: &dyn Env, op: CasOp<T>) -> bool;

    /// Invocation step of a read.
    fn invoke_read(&self, env: &dyn Env) -> OpToken;

    /// Response step of a read; linearization point.
    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> T;
}

/// Simulated CAS register: two-step operation, linearizes at the response.
pub struct SimCasReg<T> {
    name: Arc<str>,
    value: Mutex<T>,
    log: Arc<OpLog>,
}

impl<T: Clone + PartialEq + Send> SimCasReg<T> {
    pub(crate) fn new(name: String, init: T, log: Arc<OpLog>) -> Self {
        SimCasReg {
            name: name.into(),
            value: Mutex::new(init),
            log,
        }
    }

    fn record(&self, env: &dyn Env, invoked: u64, kind: OpKind) {
        self.log.push(OpEvent {
            invoked,
            responded: env.now(),
            proc: env.pid(),
            reg: self.name.clone(),
            kind,
            overlapped: false,
            aborted: false,
            effect: true,
        });
    }
}

impl<T: Clone + PartialEq + Send + Sync> CasRegister<T> for SimCasReg<T> {
    fn invoke_cas(&self, env: &dyn Env, expected: T, new: T) -> CasOp<T> {
        CasOp {
            invoked: env.now(),
            expected,
            new,
        }
    }

    fn complete_cas(&self, env: &dyn Env, op: CasOp<T>) -> bool {
        let mut v = self.value.lock();
        let ok = *v == op.expected;
        if ok {
            *v = op.new;
        }
        drop(v);
        self.record(env, op.invoked, OpKind::Write);
        ok
    }

    fn invoke_read(&self, env: &dyn Env) -> OpToken {
        OpToken::new(env.now())
    }

    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> T {
        let v = self.value.lock().clone();
        self.record(env, tok.raw(), OpKind::Read);
        v
    }
}

/// Shorthand for a shared CAS register handle.
pub type SharedCas<T> = Arc<dyn CasRegister<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::{FreeRunEnv, ProcId};

    fn cas<T: Clone + PartialEq + Send + Sync>(
        r: &SimCasReg<T>,
        env: &FreeRunEnv,
        e: T,
        n: T,
    ) -> bool {
        let op = r.invoke_cas(env, e, n);
        env.tick().unwrap();
        r.complete_cas(env, op)
    }

    fn read<T: Clone + PartialEq + Send + Sync>(r: &SimCasReg<T>, env: &FreeRunEnv) -> T {
        let tok = r.invoke_read(env);
        env.tick().unwrap();
        r.complete_read(env, tok)
    }

    #[test]
    fn cas_succeeds_on_match() {
        let log = Arc::new(OpLog::new());
        let r = SimCasReg::new("C".into(), 0i64, Arc::clone(&log));
        let env = FreeRunEnv::new(ProcId(0));
        assert!(cas(&r, &env, 0, 5));
        assert_eq!(read(&r, &env), 5);
        // Each operation spans its invocation and response step.
        assert!(log.events().iter().all(|e| e.responded == e.invoked + 1));
    }

    #[test]
    fn cas_fails_on_mismatch() {
        let log = Arc::new(OpLog::new());
        let r = SimCasReg::new("C".into(), 0i64, log);
        let env = FreeRunEnv::new(ProcId(0));
        assert!(!cas(&r, &env, 3, 5));
        assert_eq!(read(&r, &env), 0);
    }

    #[test]
    fn cas_on_option_values() {
        let log = Arc::new(OpLog::new());
        let r: SimCasReg<Option<u32>> = SimCasReg::new("C".into(), None, log);
        let env = FreeRunEnv::new(ProcId(0));
        assert!(cas(&r, &env, None, Some(7)));
        assert!(!cas(&r, &env, None, Some(9)));
        assert_eq!(read(&r, &env), Some(7));
    }
}
