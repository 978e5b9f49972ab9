//! B4 — universal-construction costs: query-abortable operations
//! (solo), the full TBWF stack and the baselines under contention, and
//! the TBWF stack on real threads.

use std::sync::Arc;
use std::time::Duration;
use tbwf_bench::bench::Bench;
use tbwf_omega::OmegaKind;
use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::{Env, FreeRunEnv, ProcId, RunConfig};
use tbwf_universal::baselines::CasUniversal;
use tbwf_universal::harness::{run_counter_workload, Engine, WorkloadConfig};
use tbwf_universal::object::{Counter, CounterOp};
use tbwf_universal::{Outcome, QaObject};

const ENGINE_STEPS: u64 = 100_000;

fn main() {
    let mut b = Bench::from_args("universal", Duration::from_secs(3));
    b.header("counter increments, n = 2 (solo, native) and n = 3 (engines)");

    let env = FreeRunEnv::new(ProcId(0));
    let factory = Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
    let obj = QaObject::new(Counter, 2, factory);
    let mut session = obj.session(ProcId(0));
    b.run("qa-object/solo-inc", || {
        // Solo fresh-slot applies always succeed in one call.
        match session.apply(&env, CounterOp::Inc).unwrap() {
            Outcome::Done(v) => v,
            other => panic!("solo apply must succeed, got {other:?}"),
        }
    });

    let factory = Arc::new(RegisterFactory::new(RegisterFactoryConfig::default()));
    let obj = CasUniversal::new(Counter, 2, factory);
    let mut session = obj.session(ProcId(0));
    b.run("qa-object/cas-universal-solo-inc", || {
        session.begin_apply(CounterOp::Inc);
        loop {
            if let Some(v) = session.poll_apply(&env) {
                break v;
            }
            env.tick().unwrap();
        }
    });

    b.set_window(Duration::from_secs(15));
    for (name, engine) in [
        ("tbwf-atomic", Engine::Tbwf(OmegaKind::Atomic)),
        ("tbwf-abortable", Engine::Tbwf(OmegaKind::Abortable)),
        ("herlihy-cas", Engine::HerlihyCas),
        ("flms-boost", Engine::FlmsBoost),
    ] {
        let cfg = WorkloadConfig {
            n: 3,
            engine,
            ..Default::default()
        };
        let row = format!("engine-run-100k-steps/{name}");
        b.run_work(row, ENGINE_STEPS, "steps", || {
            let out = run_counter_workload(&cfg, RunConfig::new(ENGINE_STEPS, RoundRobin::new()));
            out.report.assert_no_panics();
            out.completed.iter().sum::<u64>()
        });
    }

    // Real-thread latency: one client invoking while the full monitor +
    // Ω∆ stack runs on background threads.
    b.set_window(Duration::from_secs(10));
    let system = tbwf::native::NativeTbwf::start(Counter, 2, OmegaKind::Atomic);
    let mut client = system.client(0);
    // Warm up until leadership stabilizes.
    for _ in 0..50 {
        client.invoke(CounterOp::Inc).unwrap();
    }
    b.run("native-tbwf/counter-inc-n2", || {
        client.invoke(CounterOp::Inc).unwrap()
    });
    drop(client);
    system.shutdown();
    b.report();
}
