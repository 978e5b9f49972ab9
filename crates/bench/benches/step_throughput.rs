//! B5 — step-engine throughput: a 3-process Ω∆ system (algorithm
//! tasks, monitor mesh, candidate drivers) driven by `Sim::run`'s poll
//! loop, in simulated steps per wall-clock second. Each iteration is one
//! complete system run.

// `for p in 0..N` indexing parallel handle vectors mirrors the paper's
// per-process wiring; an iterator chain would obscure it.
#![allow(clippy::needless_range_loop)]

use std::time::Duration;
use tbwf_bench::bench::Bench;
use tbwf_omega::harness::install_omega;
use tbwf_omega::{add_candidate_driver, CandidateScript, OmegaKind};
use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::{Json, ProcId, RunConfig, SimBuilder};

/// Global steps per iteration; one iteration = one complete system run.
const STEPS: u64 = 10_000;
const N: usize = 3;

fn omega_run(kind: OmegaKind) {
    let factory = RegisterFactory::new(RegisterFactoryConfig::default());
    let mut b = SimBuilder::new();
    for p in 0..N {
        b.add_process(&format!("p{p}"));
    }
    let handles = install_omega(&mut b, &factory, N, kind);
    for p in 0..N {
        add_candidate_driver(&mut b, ProcId(p), &handles[p], CandidateScript::Always);
    }
    let report = b.build().run(RunConfig::new(STEPS, RoundRobin::new()));
    report.assert_no_panics();
    assert!(
        handles[0].leader.get().is_some(),
        "no leader elected in bench run"
    );
}

fn main() {
    let mut b = Bench::from_args("step_throughput", Duration::from_secs(5));
    b.header(&format!("{N}-process Omega-Delta, {STEPS} steps/run"));
    b.note("n", Json::Int(N as i128));
    b.note("steps_per_run", Json::Int(STEPS as i128));
    for (kind, system) in [
        (OmegaKind::Atomic, "atomic"),
        (OmegaKind::Abortable, "abortable"),
    ] {
        b.run_work(system, STEPS, "steps", || omega_run(kind));
    }
    b.report();
}
