//! Shared registers for the TBWF reproduction: atomic and **abortable**
//! registers (plus the compare-and-swap register of the strong-primitive
//! baseline), all built on one simulated core.
//!
//! # Model
//!
//! In the paper's model (Section 3 and \[2\]) a register operation spans an
//! *invocation* step and a *response* step; two operations are
//! **concurrent** iff their invoke–response intervals overlap. The
//! registers here implement exactly that:
//!
//! * an operation is *invoked* at the end of one step of the caller and
//!   *completed* at the start of the caller's next step (arbitrarily far
//!   in global time): the `invoke_*`/`complete_*` pair that stepper code
//!   uses. The blocking `read`/`write` forms, which the native thread
//!   harness (`tbwf::native`) uses, are derived from that pair with one
//!   [`Env::tick`] in between;
//! * an **atomic** register linearizes at the response and never aborts;
//! * an **abortable** register *may abort* any operation that overlaps
//!   another operation on the same register: an aborted read returns no
//!   value, an aborted write returns `⊥` and *may or may not take effect*
//!   (the writer cannot tell) — the semantics of \[2\] as summarized in
//!   Section 1.2 of the paper. Operations that overlap nothing **never**
//!   abort, which is what makes solo execution (and hence
//!   obstruction-freedom) possible.
//!
//! Abort and effect decisions are driven by a seeded [`AbortPolicy`] /
//! [`EffectPolicy`] so every adversary is reproducible; the default policy
//! (`AlwaysOnOverlap`) is the strongest admissible adversary. The same
//! registers serve simulated and real-thread runs: overlap detection is
//! done under a lock, so on real threads abortable registers abort on
//! real races.
//!
//! All registers are created through a [`RegisterFactory`], which tags each
//! register with a name and records every operation into a shared
//! [`OpLog`] — the write-efficiency experiment (E6) and the abort-rate
//! ablation (E8) read the log.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cas;
mod core_reg;
mod factory;
mod outcome;
mod policy;
pub mod stats;

pub use cas::{CasOp, CasRegister, SharedCas};
pub use core_reg::InflightGauges;
pub use factory::{RegisterFactory, RegisterFactoryConfig};
pub use outcome::{ReadOutcome, WriteOutcome};
pub use policy::{
    AbortPolicy, EffectPolicy, PolicyDial, DIAL_ABORT_NO_EFFECT, DIAL_ABORT_STORM, DIAL_BASE,
    DIAL_CALM,
};
pub use stats::{OpEvent, OpKind, OpLog};

use std::sync::Arc;
use tbwf_sim::{Env, SimResult};

/// Opaque handle to one register operation between its invocation and its
/// response step.
///
/// Returned by the `invoke_*` methods; passed to the matching `complete_*`
/// method exactly once, on a *later* step of the same task (in stepper
/// code: invoke at the end of one segment, complete at the start of the
/// next). Completing a token twice, or a token from a different register,
/// panics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpToken(u64);

impl OpToken {
    /// Wraps a raw operation id (for register implementors).
    pub fn new(raw: u64) -> Self {
        OpToken(raw)
    }

    /// The raw operation id (for register implementors).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A multi-writer multi-reader atomic register.
///
/// Operations never abort; each costs two steps (invoke + response).
///
/// The required methods are the two-phase (poll) form used by stepper
/// code; a write value is captured at invocation. The blocking `write`/
/// `read` are *derived*: invoke, consume one step with [`Env::tick`],
/// complete. Because the derivation is the only difference between the
/// two forms, an algorithm using either form performs its register steps
/// at identical times.
pub trait AtomicRegister<T: Clone>: Send + Sync {
    /// Invocation step of a write of `v` (the value is captured now).
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken;

    /// Response step of a write; linearization point.
    fn complete_write(&self, env: &dyn Env, tok: OpToken);

    /// Invocation step of a read.
    fn invoke_read(&self, env: &dyn Env) -> OpToken;

    /// Response step of a read; returns the value read.
    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> T;

    /// Writes `v`; linearizes at the response step (blocking form).
    ///
    /// # Errors
    /// Propagates [`Halted`](tbwf_sim::Halted) at the end of a run.
    fn write(&self, env: &dyn Env, v: T) -> SimResult<()> {
        let tok = self.invoke_write(env, v);
        env.tick()?;
        self.complete_write(env, tok);
        Ok(())
    }

    /// Reads the current value (blocking form).
    ///
    /// # Errors
    /// Propagates [`Halted`](tbwf_sim::Halted) at the end of a run.
    fn read(&self, env: &dyn Env) -> SimResult<T> {
        let tok = self.invoke_read(env);
        env.tick()?;
        Ok(self.complete_read(env, tok))
    }
}

/// An abortable register (\[2\]; Section 1.2 of the paper).
///
/// Operations that are concurrent with other operations on the same
/// register **may** return `⊥` ([`WriteOutcome::Aborted`] /
/// [`ReadOutcome::Aborted`]); an aborted write may or may not have taken
/// effect. An operation concurrent with nothing never aborts.
///
/// As with [`AtomicRegister`], the required methods are the two-phase
/// (poll) form and the blocking forms are derived from them, so both
/// forms take steps at identical times.
pub trait AbortableRegister<T: Clone>: Send + Sync {
    /// Invocation step of a write of `v` (the value is captured now).
    fn invoke_write(&self, env: &dyn Env, v: T) -> OpToken;

    /// Response step of a write; reports whether it aborted.
    fn complete_write(&self, env: &dyn Env, tok: OpToken) -> WriteOutcome;

    /// Invocation step of a read.
    fn invoke_read(&self, env: &dyn Env) -> OpToken;

    /// Response step of a read; aborted reads return no value.
    fn complete_read(&self, env: &dyn Env, tok: OpToken) -> ReadOutcome<T>;

    /// Attempts to write `v` (blocking form).
    ///
    /// # Errors
    /// Propagates [`Halted`](tbwf_sim::Halted) at the end of a run.
    fn write(&self, env: &dyn Env, v: T) -> SimResult<WriteOutcome> {
        let tok = self.invoke_write(env, v);
        env.tick()?;
        Ok(self.complete_write(env, tok))
    }

    /// Attempts to read (blocking form).
    ///
    /// # Errors
    /// Propagates [`Halted`](tbwf_sim::Halted) at the end of a run.
    fn read(&self, env: &dyn Env) -> SimResult<ReadOutcome<T>> {
        let tok = self.invoke_read(env);
        env.tick()?;
        Ok(self.complete_read(env, tok))
    }
}

/// Shorthand for a shared atomic register handle.
pub type SharedAtomic<T> = Arc<dyn AtomicRegister<T>>;
/// Shorthand for a shared abortable register handle.
pub type SharedAbortable<T> = Arc<dyn AbortableRegister<T>>;
