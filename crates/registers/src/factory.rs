//! The register factory: creates named, logged, seeded registers for one
//! run.

use crate::core_reg::{InflightGauges, SimAbortableReg, SimAtomicReg};
use crate::policy::{AbortPolicy, EffectPolicy, PolicyDial};
use crate::stats::OpLog;
use crate::{SharedAbortable, SharedAtomic};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use tbwf_sim::ProcId;

/// Configuration for all registers created by one factory.
#[derive(Clone, Copy, Debug)]
pub struct RegisterFactoryConfig {
    /// Master seed; each register derives its own RNG from it.
    pub seed: u64,
    /// Abort policy for abortable registers.
    pub abort_policy: AbortPolicy,
    /// Effect policy for aborted writes.
    pub effect_policy: EffectPolicy,
}

impl Default for RegisterFactoryConfig {
    fn default() -> Self {
        RegisterFactoryConfig {
            seed: 0xB0A7,
            abort_policy: AbortPolicy::default(),
            effect_policy: EffectPolicy::default(),
        }
    }
}

/// Creates the shared registers of one run, all feeding a common
/// [`OpLog`].
///
/// ```
/// use tbwf_registers::{ReadOutcome, RegisterFactory, WriteOutcome};
/// use tbwf_sim::{FreeRunEnv, ProcId};
///
/// let factory = RegisterFactory::default();
/// let reg = factory.abortable("R", 0i64);
/// let env = FreeRunEnv::new(ProcId(0));
/// // Solo operations on an abortable register never abort.
/// assert_eq!(reg.write(&env, 7)?, WriteOutcome::Ok);
/// assert_eq!(reg.read(&env)?, ReadOutcome::Value(7));
/// # Ok::<(), tbwf_sim::Halted>(())
/// ```
pub struct RegisterFactory {
    config: RegisterFactoryConfig,
    log: Arc<OpLog>,
    counter: AtomicU64,
    dial: PolicyDial,
    gauges: Arc<InflightGauges>,
}

impl RegisterFactory {
    /// Creates a factory with the given configuration.
    pub fn new(config: RegisterFactoryConfig) -> Self {
        RegisterFactory {
            config,
            log: Arc::new(OpLog::new()),
            counter: AtomicU64::new(0),
            dial: PolicyDial::new(),
            gauges: Arc::new(InflightGauges::new()),
        }
    }

    /// Creates a factory whose operation log is disabled (for the native
    /// harness: full-speed threads would otherwise record millions of
    /// events).
    pub fn new_unlogged(config: RegisterFactoryConfig) -> Self {
        RegisterFactory {
            config,
            log: Arc::new(OpLog::disabled()),
            counter: AtomicU64::new(0),
            dial: PolicyDial::new(),
            gauges: Arc::new(InflightGauges::new()),
        }
    }

    /// The shared operation log.
    pub fn log(&self) -> Arc<OpLog> {
        Arc::clone(&self.log)
    }

    /// The factory configuration.
    pub fn config(&self) -> RegisterFactoryConfig {
        self.config
    }

    /// The run-wide policy-override dial shared by every abortable
    /// register of this factory (register its [`PolicyDial::handle`]
    /// with a nemesis to inject register fault bursts).
    pub fn policy_dial(&self) -> PolicyDial {
        self.dial.clone()
    }

    /// The in-flight-operation gauge of process `p` across all registers
    /// of this factory (register it with a nemesis to crash `p` between
    /// `invoke_` and `complete_` of an operation).
    pub fn inflight_gauge(&self, p: ProcId) -> Arc<AtomicI64> {
        self.gauges.cell(p)
    }

    fn next_seed(&self) -> u64 {
        // SplitMix-style derivation keeps per-register streams independent.
        let i = self.counter.fetch_add(1, Ordering::Relaxed);
        self.config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i)
    }

    /// Creates a multi-writer multi-reader atomic register.
    pub fn atomic<T: Clone + Send + Sync + 'static>(&self, name: &str, init: T) -> SharedAtomic<T> {
        Arc::new(SimAtomicReg::new(
            name.to_string(),
            init,
            self.next_seed(),
            self.log(),
            Arc::clone(&self.gauges),
        ))
    }

    /// Creates a multi-writer multi-reader abortable register.
    pub fn abortable<T: Clone + Send + Sync + 'static>(
        &self,
        name: &str,
        init: T,
    ) -> SharedAbortable<T> {
        Arc::new(SimAbortableReg::new(
            name.to_string(),
            init,
            self.next_seed(),
            self.log(),
            Arc::clone(&self.gauges),
            self.config.abort_policy,
            self.config.effect_policy,
            self.dial.clone(),
            None,
            None,
        ))
    }

    /// Creates a single-writer single-reader abortable register owned by
    /// `writer`/`reader` (ownership is asserted at every operation), as
    /// used throughout Section 6.
    pub fn abortable_swsr<T: Clone + Send + Sync + 'static>(
        &self,
        name: &str,
        init: T,
        writer: ProcId,
        reader: ProcId,
    ) -> SharedAbortable<T> {
        Arc::new(SimAbortableReg::new(
            name.to_string(),
            init,
            self.next_seed(),
            self.log(),
            Arc::clone(&self.gauges),
            self.config.abort_policy,
            self.config.effect_policy,
            self.dial.clone(),
            Some(writer),
            Some(reader),
        ))
    }

    /// Creates a single-writer multi-reader abortable register owned by
    /// `writer` (write ownership is asserted at every operation).
    pub fn abortable_swmr<T: Clone + Send + Sync + 'static>(
        &self,
        name: &str,
        init: T,
        writer: ProcId,
    ) -> SharedAbortable<T> {
        Arc::new(SimAbortableReg::new(
            name.to_string(),
            init,
            self.next_seed(),
            self.log(),
            Arc::clone(&self.gauges),
            self.config.abort_policy,
            self.config.effect_policy,
            self.dial.clone(),
            Some(writer),
            None,
        ))
    }

    /// Creates a compare-and-swap register (used only by the strong-
    /// primitive baseline, never by the paper's constructions).
    pub fn cas<T: Clone + PartialEq + Send + Sync + 'static>(
        &self,
        name: &str,
        init: T,
    ) -> crate::SharedCas<T> {
        Arc::new(crate::cas::SimCasReg::new(
            name.to_string(),
            init,
            self.log(),
        ))
    }
}

impl Default for RegisterFactory {
    fn default() -> Self {
        RegisterFactory::new(RegisterFactoryConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReadOutcome, WriteOutcome};
    use tbwf_sim::{Env, FreeRunEnv};

    #[test]
    fn factory_creates_working_registers() {
        let f = RegisterFactory::default();
        let env = FreeRunEnv::new(ProcId(0));
        let a = f.atomic("A", 1i64);
        let b = f.abortable("B", 2i64);
        assert_eq!(a.read(&env).unwrap(), 1);
        assert_eq!(b.read(&env).unwrap(), ReadOutcome::Value(2));
        assert_eq!(b.write(&env, 9).unwrap(), WriteOutcome::Ok);
        assert_eq!(b.read(&env).unwrap(), ReadOutcome::Value(9));
        assert_eq!(f.log().len(), 4);
    }

    #[test]
    fn swsr_allows_owner() {
        let f = RegisterFactory::default();
        let env = FreeRunEnv::new(ProcId(1));
        let r = f.abortable_swsr("R", 0i64, ProcId(1), ProcId(1));
        assert_eq!(r.write(&env, 5).unwrap(), WriteOutcome::Ok);
        assert_eq!(r.read(&env).unwrap(), ReadOutcome::Value(5));
    }

    #[test]
    fn seeds_differ_per_register() {
        let f = RegisterFactory::new(RegisterFactoryConfig {
            seed: 42,
            ..Default::default()
        });
        // Two registers created by the same factory must not share RNG
        // streams; we can only check the derivation differs.
        let s1 = f.next_seed();
        let s2 = f.next_seed();
        assert_ne!(s1, s2);
    }

    #[test]
    fn env_tick_advances_between_invoke_and_response() {
        let f = RegisterFactory::default();
        let env = FreeRunEnv::new(ProcId(0));
        let a = f.atomic("A", 0i64);
        let before = env.now();
        a.write(&env, 1).unwrap();
        assert_eq!(env.now(), before + 1, "one tick per operation");
    }
}
