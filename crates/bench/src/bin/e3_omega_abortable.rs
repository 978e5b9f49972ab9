//! **E3 — Ω∆ from abortable registers** (Figures 4–6, Theorem 13).
//!
//! Same specification grid as E2, but over the SWSR **abortable**-register
//! implementation, swept across register-adversary policies: every
//! overlapping operation aborts (strongest), 50 % abort, never abort
//! (atomic behavior, as a control). The election must satisfy
//! Definition 5 under every policy; convergence slows as the adversary
//! strengthens (the read-backoff of Figure 4 has to find the writers'
//! cadence).

use tbwf_bench::print_table;
use tbwf_omega::{
    check_spec, run_omega_system, CandidateScript, OmegaKind, OmegaRunData, OmegaSystemConfig,
    SpecParams,
};
use tbwf_registers::{AbortPolicy, EffectPolicy, RegisterFactoryConfig};
use tbwf_sim::schedule::{GapGrowth, PartiallySynchronous, RoundRobin, Schedule};
use tbwf_sim::{ProcId, RunConfig};

fn main() {
    tbwf_bench::no_args(env!("CARGO_BIN_NAME"));
    println!("E3: Omega-Delta from SWSR abortable registers (Figs. 4-6)");
    println!("    checking Definition 5 under three register adversaries\n");
    let policies: [(&str, AbortPolicy); 3] = [
        ("always-abort", AbortPolicy::AlwaysOnOverlap),
        ("p=0.5", AbortPolicy::Seeded { p_abort: 0.5 }),
        ("never", AbortPolicy::Never),
    ];
    let mut rows = Vec::new();
    let mut failures = 0;
    for n in [2usize, 3, 4] {
        for (pname, policy) in policies {
            for (sname, timely_k, crash) in [
                ("all P timely", n, None),
                ("one non-timely", n - 1, None),
                ("leader crash", n, Some((60_000u64, ProcId(0)))),
            ] {
                let steps: u64 = 120_000 * n as u64;
                let cfg = OmegaSystemConfig {
                    n,
                    kind: OmegaKind::Abortable,
                    scripts: vec![CandidateScript::Always; n],
                    factory: RegisterFactoryConfig {
                        seed: 0xE3,
                        abort_policy: policy,
                        effect_policy: EffectPolicy::Seeded { p_effect: 0.5 },
                    },
                };
                let schedule: Box<dyn Schedule> = if timely_k == n {
                    Box::new(RoundRobin::new())
                } else {
                    Box::new(PartiallySynchronous::with_growth(
                        (0..timely_k).map(ProcId).collect(),
                        4,
                        GapGrowth::Linear(4),
                    ))
                };
                let mut run = RunConfig {
                    max_steps: steps,
                    crashes: Vec::new(),
                    schedule,
                    nemesis: None,
                };
                if let Some((t, p)) = crash {
                    run = run.crash(t, p);
                }
                let out = run_omega_system(&cfg, run);
                out.report.assert_no_panics();
                let timely: Vec<ProcId> = (0..n)
                    .map(ProcId)
                    .filter(|p| p.0 < timely_k && Some(*p) != crash.map(|(_, c)| c))
                    .collect();
                let data = OmegaRunData::from_trace(&out.report.trace, n, &timely);
                let v = check_spec(&data, SpecParams::default(), false);
                if !v.ok {
                    failures += 1;
                }
                let converged = tbwf_omega::spec::convergence_time(&out.report.trace, n);
                let (_, overlapped, aborted) = out.log.abort_stats();
                rows.push(vec![
                    n.to_string(),
                    pname.to_string(),
                    sname.to_string(),
                    v.elected
                        .map(|p| p.to_string())
                        .unwrap_or_else(|| "-".into()),
                    converged.to_string(),
                    format!("{overlapped}/{aborted}"),
                    if v.ok {
                        "ok".into()
                    } else {
                        format!("FAIL {:?}", v.failures)
                    },
                ]);
            }
        }
    }
    print_table(
        &[
            "n",
            "abort policy",
            "scenario",
            "leader",
            "converged@",
            "ovl/abrt",
            "Def.5",
        ],
        &rows,
    );
    println!("\n{failures} spec failure(s) (paper predicts 0)");
    assert_eq!(failures, 0);
}
