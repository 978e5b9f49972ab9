//! B3 — Ω∆ election runs: atomic-register (Fig. 3) vs abortable-register
//! (Figs. 4–6) implementations across system sizes.

use std::time::Duration;
use tbwf_bench::bench::Bench;
use tbwf_omega::{run_omega_system, CandidateScript, OmegaKind, OmegaSystemConfig};
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::RunConfig;

fn election_run(n: usize, kind: OmegaKind, steps: u64) {
    let cfg = OmegaSystemConfig {
        n,
        kind,
        scripts: vec![CandidateScript::Always; n],
        ..Default::default()
    };
    let out = run_omega_system(&cfg, RunConfig::new(steps, RoundRobin::new()));
    out.report.assert_no_panics();
    assert!(
        out.handles[0].leader.get().is_some(),
        "no leader elected in bench run"
    );
}

fn main() {
    let mut b = Bench::from_args("omega", Duration::from_secs(10));
    b.header("all processes always candidates, round-robin, 20k steps per process");
    for n in [2usize, 4] {
        let steps = 20_000 * n as u64;
        for (name, kind) in [
            ("atomic", OmegaKind::Atomic),
            ("abortable", OmegaKind::Abortable),
        ] {
            b.run_work(
                format!("omega-election-run/{name}/{n}"),
                steps,
                "steps",
                || election_run(n, kind, steps),
            );
        }
    }
    b.report();
}
