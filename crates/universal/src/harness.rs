//! Workload runners: complete n-process systems executing counter
//! workloads on each progress engine, used by integration tests and the
//! E4/E5/E7 experiments.

use crate::baselines::{
    CasSession, CasUniversal, FlmsBoost, FlmsCall, FlmsShared, ObstructionFreeCall,
};
use crate::object::{Counter, CounterOp};
use crate::qa::{QaObject, QaSession};
use crate::tbwf::TbwfCall;
use std::sync::Arc;
use tbwf_omega::harness::install_omega;
use tbwf_omega::{OmegaHandles, OmegaKind};
use tbwf_registers::{OpLog, RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::{Control, Env, ProcId, RunConfig, RunReport, SimBuilder, StepCtx, Stepper};

/// Observation key: number of completed operations of a worker.
pub const OBS_COMPLETED: &str = "completed";
/// Observation key: each response value returned to a worker.
pub const OBS_RESP: &str = "resp";

/// The progress engine a workload runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The paper's construction: Ω∆ + query-abortable object (Figure 7).
    Tbwf(OmegaKind),
    /// Figure 7 without the canonical line-2 wait (for E7 only).
    TbwfNonCanonical(OmegaKind),
    /// The query-abortable object driven directly (obstruction-free).
    PlainOf,
    /// FLMS-style panic-flag boosting (assumes all-timely).
    FlmsBoost,
    /// Herlihy-style wait-free construction from CAS.
    HerlihyCas,
}

/// Configuration of a counter workload run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of processes; each runs one worker performing increments.
    pub n: usize,
    /// Progress engine.
    pub engine: Engine,
    /// Register backend configuration.
    pub factory: RegisterFactoryConfig,
    /// Operations per worker (`u64::MAX` = keep going until the run ends).
    pub ops_per_proc: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n: 3,
            engine: Engine::Tbwf(OmegaKind::Atomic),
            factory: RegisterFactoryConfig::default(),
            ops_per_proc: u64::MAX,
        }
    }
}

/// One process's handle on an engine, running one increment at a time.
trait IncClient: Send {
    /// Starts the next increment.
    fn begin(&mut self);

    /// Runs one segment of the increment in flight; `Some(resp)` in the
    /// segment that completes it.
    fn poll(&mut self, env: &dyn Env) -> Option<i64>;
}

/// Figure 7: one [`TbwfCall`] per increment.
struct TbwfClient {
    session: QaSession<Counter>,
    omega: OmegaHandles,
    canonical: bool,
    call: Option<TbwfCall<Counter>>,
}

impl IncClient for TbwfClient {
    fn begin(&mut self) {
        self.call = Some(TbwfCall::new(CounterOp::Inc, self.canonical));
    }

    fn poll(&mut self, env: &dyn Env) -> Option<i64> {
        let call = self.call.as_mut().expect("worker has a call in flight");
        call.poll(env, &mut self.session, &self.omega)
    }
}

/// The query-abortable object with no coordination.
struct PlainOfClient {
    session: QaSession<Counter>,
    call: Option<ObstructionFreeCall<Counter>>,
}

impl IncClient for PlainOfClient {
    fn begin(&mut self) {
        self.call = Some(ObstructionFreeCall::new(CounterOp::Inc));
    }

    fn poll(&mut self, env: &dyn Env) -> Option<i64> {
        let call = self.call.as_mut().expect("worker has a call in flight");
        call.poll(env, &mut self.session)
    }
}

/// The query-abortable object behind the FLMS-style booster.
struct FlmsClient {
    session: QaSession<Counter>,
    boost: FlmsBoost,
    call: Option<FlmsCall<Counter>>,
}

impl IncClient for FlmsClient {
    fn begin(&mut self) {
        self.call = Some(FlmsCall::new(CounterOp::Inc));
    }

    fn poll(&mut self, env: &dyn Env) -> Option<i64> {
        let call = self.call.as_mut().expect("worker has a call in flight");
        call.poll(env, &self.boost, &mut self.session)
    }
}

impl IncClient for CasSession<Counter> {
    fn begin(&mut self) {
        self.begin_apply(CounterOp::Inc);
    }

    fn poll(&mut self, env: &dyn Env) -> Option<i64> {
        self.poll_apply(env)
    }
}

/// The increment worker of every engine: one increment after another
/// until `ops` have completed, observing each response and the running
/// count.
struct Worker<C> {
    client: C,
    ops: u64,
    done: u64,
    started: bool,
}

impl<C: IncClient + 'static> Worker<C> {
    fn boxed(client: C, ops: u64) -> Box<dyn Stepper> {
        Box::new(Worker {
            client,
            ops,
            done: 0,
            started: false,
        })
    }
}

impl<C: IncClient> Stepper for Worker<C> {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        if !self.started {
            self.started = true;
            env.observe(OBS_COMPLETED, 0, 0);
            if self.done >= self.ops {
                return Control::Done;
            }
            self.client.begin();
        }
        // The next increment's first segment runs in the segment that
        // completed the previous one.
        while let Some(v) = self.client.poll(env) {
            self.done += 1;
            env.observe(OBS_RESP, 0, v);
            env.observe(OBS_COMPLETED, 0, self.done as i64);
            if self.done >= self.ops {
                return Control::Done;
            }
            self.client.begin();
        }
        Control::Yield
    }
}

/// The result of a workload run.
pub struct WorkloadOutput {
    /// The run report.
    pub report: RunReport,
    /// Completed operations per process.
    pub completed: Vec<u64>,
    /// The responses each process received, in order.
    pub responses: Vec<Vec<i64>>,
    /// The register operation log.
    pub log: Arc<OpLog>,
}

impl WorkloadOutput {
    /// All responses across processes (for linearizability checks).
    pub fn all_responses(&self) -> Vec<i64> {
        self.responses.iter().flatten().copied().collect()
    }

    /// Asserts the counter invariant: every `Inc` response is distinct
    /// (each increment's response is the unique post-increment value).
    ///
    /// # Panics
    ///
    /// Panics if two responses coincide — a linearizability violation.
    pub fn assert_distinct_responses(&self) {
        let mut all = self.all_responses();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            total,
            "duplicate Inc responses: linearizability violated"
        );
    }
}

/// Builds and runs an n-process increment workload on the chosen engine.
pub fn run_counter_workload(cfg: &WorkloadConfig, run: RunConfig) -> WorkloadOutput {
    let factory = Arc::new(RegisterFactory::new(cfg.factory));
    let mut b = SimBuilder::new();
    for p in 0..cfg.n {
        b.add_process(&format!("p{p}"));
    }
    let ops = cfg.ops_per_proc;

    let workers: Vec<Box<dyn Stepper>> = match cfg.engine {
        Engine::Tbwf(kind) | Engine::TbwfNonCanonical(kind) => {
            let canonical = matches!(cfg.engine, Engine::Tbwf(_));
            let omega_handles = install_omega(&mut b, &factory, cfg.n, kind);
            let obj = QaObject::new(Counter, cfg.n, Arc::clone(&factory));
            (0..cfg.n)
                .map(|p| {
                    let client = TbwfClient {
                        session: obj.session(ProcId(p)),
                        omega: omega_handles[p].clone(),
                        canonical,
                        call: None,
                    };
                    Worker::boxed(client, ops)
                })
                .collect()
        }
        Engine::PlainOf => {
            let obj = QaObject::new(Counter, cfg.n, Arc::clone(&factory));
            (0..cfg.n)
                .map(|p| {
                    let client = PlainOfClient {
                        session: obj.session(ProcId(p)),
                        call: None,
                    };
                    Worker::boxed(client, ops)
                })
                .collect()
        }
        Engine::FlmsBoost => {
            let obj = QaObject::new(Counter, cfg.n, Arc::clone(&factory));
            let shared = FlmsShared::new(&factory, cfg.n);
            (0..cfg.n)
                .map(|p| {
                    let client = FlmsClient {
                        session: obj.session(ProcId(p)),
                        boost: FlmsBoost::new(Arc::clone(&shared)),
                        call: None,
                    };
                    Worker::boxed(client, ops)
                })
                .collect()
        }
        Engine::HerlihyCas => {
            let obj = CasUniversal::new(Counter, cfg.n, Arc::clone(&factory));
            (0..cfg.n)
                .map(|p| Worker::boxed(obj.session(ProcId(p)), ops))
                .collect()
        }
    };
    for (p, worker) in workers.into_iter().enumerate() {
        b.add_stepper(ProcId(p), "worker", worker);
    }

    let report = b.build().run(run);
    let completed = (0..cfg.n)
        .map(|p| {
            report
                .trace
                .last_value(ProcId(p), OBS_COMPLETED, 0)
                .unwrap_or(0) as u64
        })
        .collect();
    let responses = (0..cfg.n)
        .map(|p| {
            report
                .trace
                .obs_series(ProcId(p), OBS_RESP, 0)
                .into_iter()
                .map(|(_, v)| v)
                .collect()
        })
        .collect();
    WorkloadOutput {
        report,
        completed,
        responses,
        log: factory.log(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::schedule::RoundRobin;

    #[test]
    fn herlihy_cas_all_complete_under_round_robin() {
        let cfg = WorkloadConfig {
            n: 3,
            engine: Engine::HerlihyCas,
            ops_per_proc: 5,
            ..Default::default()
        };
        let out = run_counter_workload(&cfg, RunConfig::new(40_000, RoundRobin::new()));
        out.report.assert_no_panics();
        assert_eq!(out.completed, vec![5, 5, 5]);
        out.assert_distinct_responses();
        let mut all = out.all_responses();
        all.sort_unstable();
        assert_eq!(all, (1..=15).collect::<Vec<i64>>());
    }

    #[test]
    fn tbwf_atomic_all_timely_everyone_progresses() {
        let cfg = WorkloadConfig {
            n: 3,
            engine: Engine::Tbwf(OmegaKind::Atomic),
            ops_per_proc: u64::MAX,
            ..Default::default()
        };
        let out = run_counter_workload(&cfg, RunConfig::new(200_000, RoundRobin::new()));
        out.report.assert_no_panics();
        out.assert_distinct_responses();
        for p in 0..3 {
            assert!(
                out.completed[p] >= 1,
                "timely p{p} completed no operations: {:?}",
                out.completed
            );
        }
    }

    #[test]
    fn plain_of_solo_process_progresses() {
        let cfg = WorkloadConfig {
            n: 1,
            engine: Engine::PlainOf,
            ops_per_proc: 10,
            ..Default::default()
        };
        let out = run_counter_workload(&cfg, RunConfig::new(10_000, RoundRobin::new()));
        out.report.assert_no_panics();
        assert_eq!(out.completed, vec![10]);
    }
}
