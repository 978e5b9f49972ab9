//! B1 — register operation costs: one solo write or read (invocation
//! plus response) on each simulated register kind, and one CAS.

use std::hint::black_box;
use std::time::Duration;
use tbwf_bench::bench::Bench;
use tbwf_registers::RegisterFactory;
use tbwf_sim::{Env, FreeRunEnv, ProcId};

fn main() {
    let mut b = Bench::from_args("registers", Duration::from_secs(3));
    b.header("solo operations on a free-running env");
    let factory = RegisterFactory::default();
    let env = FreeRunEnv::new(ProcId(0));

    let atomic = factory.atomic("A", 0i64);
    b.run("sim-registers/atomic-write", || {
        atomic.write(&env, black_box(1)).unwrap()
    });
    b.run("sim-registers/atomic-read", || atomic.read(&env).unwrap());

    let abortable = factory.abortable("B", 0i64);
    b.run("sim-registers/abortable-write-solo", || {
        abortable.write(&env, black_box(1)).unwrap()
    });
    b.run("sim-registers/abortable-read-solo", || {
        abortable.read(&env).unwrap()
    });

    let cas = factory.cas("C", 0i64);
    b.run("sim-registers/cas", || {
        let op = cas.invoke_cas(&env, black_box(0), black_box(0));
        env.tick().unwrap();
        cas.complete_cas(&env, op)
    });
    b.report();
}
