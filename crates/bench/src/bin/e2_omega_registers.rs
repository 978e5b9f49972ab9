//! **E2 — Ω∆ from atomic registers** (Figure 3, Theorems 11–12).
//!
//! Runs the register-based Ω∆ over a grid of system sizes and candidacy /
//! synchrony scenarios and checks the Definition 5 specification on every
//! trace. Also reports the election convergence time (the last leader
//! change at any permanent candidate).

use tbwf_bench::print_table;
use tbwf_omega::{
    check_spec, run_omega_system, CandidateScript, OmegaKind, OmegaRunData, OmegaSystemConfig,
    SpecParams,
};
use tbwf_sim::schedule::{Flicker, GapGrowth, PartiallySynchronous, RoundRobin, Schedule};
use tbwf_sim::{ProcId, RunConfig};

struct Scenario {
    name: &'static str,
    n: usize,
    scripts: Vec<CandidateScript>,
    schedule: Box<dyn FnOnce(usize) -> Box<dyn Schedule>>,
    timely: Box<dyn Fn(usize) -> Vec<ProcId>>,
    crash: Option<(u64, ProcId)>,
}

fn scenarios(n: usize) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "all P, all timely",
            n,
            scripts: vec![CandidateScript::Always; n],
            schedule: Box::new(|_| Box::new(RoundRobin::new())),
            timely: Box::new(|n| (0..n).map(ProcId).collect()),
            crash: None,
        },
        Scenario {
            name: "one N-candidate",
            n,
            scripts: {
                let mut s = vec![CandidateScript::Always; n];
                s[n - 1] = CandidateScript::Never;
                s
            },
            schedule: Box::new(|_| Box::new(RoundRobin::new())),
            timely: Box::new(|n| (0..n).map(ProcId).collect()),
            crash: None,
        },
        Scenario {
            name: "one R-candidate",
            n,
            scripts: {
                let mut s = vec![CandidateScript::Always; n];
                s[n - 1] = CandidateScript::Blink {
                    on: 15_000,
                    off: 15_000,
                };
                s
            },
            schedule: Box::new(|_| Box::new(RoundRobin::new())),
            timely: Box::new(|n| (0..n).map(ProcId).collect()),
            crash: None,
        },
        Scenario {
            name: "one non-timely P",
            n,
            scripts: vec![CandidateScript::Always; n],
            // Linear growth: the last process is not timely but takes
            // enough steps within the prefix to converge (Def. 5 (b)
            // quantifies over infinite runs).
            schedule: Box::new(|n| {
                Box::new(PartiallySynchronous::with_growth(
                    (0..n - 1).map(ProcId).collect(),
                    4,
                    GapGrowth::Linear(4),
                ))
            }),
            timely: Box::new(|n| (0..n - 1).map(ProcId).collect()),
            crash: None,
        },
        Scenario {
            name: "flickering P",
            n,
            scripts: vec![CandidateScript::Always; n],
            schedule: Box::new(move |n| {
                // Long bursts so the flickerer completes whole Ω∆ loop
                // iterations per burst; linearly growing silences keep it
                // non-timely while letting it converge within the prefix.
                Box::new(Flicker::with_quiet_growth(
                    ProcId(n - 1),
                    512,
                    2_000,
                    GapGrowth::Linear(500),
                ))
            }),
            timely: Box::new(|n| (0..n - 1).map(ProcId).collect()),
            crash: None,
        },
        Scenario {
            name: "lowest id crashes",
            n,
            scripts: vec![CandidateScript::Always; n],
            schedule: Box::new(|_| Box::new(RoundRobin::new())),
            timely: Box::new(|n| (1..n).map(ProcId).collect()),
            crash: Some((40_000, ProcId(0))),
        },
    ]
}

fn main() {
    tbwf_bench::no_args(env!("CARGO_BIN_NAME"));
    println!("E2: Omega-Delta from atomic registers + activity monitors (Fig. 3)");
    println!("    checking Definition 5 on every run\n");
    let mut rows = Vec::new();
    let mut failures = 0;
    for n in [2usize, 4, 6] {
        let steps: u64 = 60_000 * n as u64;
        for sc in scenarios(n) {
            let cfg = OmegaSystemConfig {
                n: sc.n,
                kind: OmegaKind::Atomic,
                scripts: sc.scripts.clone(),
                ..Default::default()
            };
            let mut run = RunConfig {
                max_steps: steps,
                crashes: Vec::new(),
                schedule: (sc.schedule)(n),
                nemesis: None,
            };
            if let Some((t, p)) = sc.crash {
                run = run.crash(t, p);
            }
            let out = run_omega_system(&cfg, run);
            out.report.assert_no_panics();
            let timely = (sc.timely)(n);
            let data = OmegaRunData::from_trace(&out.report.trace, n, &timely);
            let v = check_spec(&data, SpecParams::default(), false);
            if !v.ok {
                failures += 1;
            }
            let converged = tbwf_omega::spec::convergence_time(&out.report.trace, n);
            rows.push(vec![
                n.to_string(),
                sc.name.to_string(),
                steps.to_string(),
                v.elected
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into()),
                converged.to_string(),
                if v.ok {
                    "ok".into()
                } else {
                    format!("FAIL {:?}", v.failures)
                },
            ]);
        }
    }
    print_table(
        &["n", "scenario", "steps", "leader", "converged@", "Def.5"],
        &rows,
    );
    println!("\n{failures} spec failure(s) (paper predicts 0)");
    assert_eq!(failures, 0);
}
