//! **E5 — TBWF vs. boosting vs. obstruction-freedom vs. CAS**
//! (Sections 1.2 and 2).
//!
//! Four engines run the same increment workload under two synchrony
//! regimes:
//!
//! * **all timely** (round-robin): every coordinated engine should let
//!   everyone progress;
//! * **one non-timely** process (growing gaps): the paper's Section 2
//!   claim — boosting à la \[7\]/\[8\] is *not* gracefully degrading: the
//!   non-timely process can stall all the timely ones; TBWF protects the
//!   timely ones; plain obstruction-freedom collapses under contention
//!   either way; Herlihy's CAS construction is immune but needs a strong
//!   primitive.

use tbwf_bench::{print_table, summarize};
use tbwf_omega::OmegaKind;
use tbwf_sim::schedule::{PartiallySynchronous, RoundRobin, Schedule};
use tbwf_sim::{ProcId, RunConfig};
use tbwf_universal::harness::{run_counter_workload, Engine, WorkloadConfig};

fn main() {
    tbwf_bench::no_args(env!("CARGO_BIN_NAME"));
    let n = 4;
    let steps: u64 = 500_000;
    println!("E5: progress per engine under full vs. partial synchrony");
    println!("    n = {n}, {steps} steps, unlimited increments per process\n");

    let engines: [(&str, Engine); 4] = [
        ("TBWF (paper)", Engine::Tbwf(OmegaKind::Atomic)),
        ("FLMS-boost [7]", Engine::FlmsBoost),
        ("plain OF", Engine::PlainOf),
        ("Herlihy CAS", Engine::HerlihyCas),
    ];
    let regimes: [(&str, usize); 2] = [("all timely", n), ("one non-timely", n - 1)];

    let mut rows = Vec::new();
    for (rname, k) in regimes {
        for (ename, engine) in engines {
            let cfg = WorkloadConfig {
                n,
                engine,
                ops_per_proc: u64::MAX,
                ..Default::default()
            };
            let schedule: Box<dyn Schedule> = if k == n {
                Box::new(RoundRobin::new())
            } else {
                Box::new(PartiallySynchronous::new(
                    (0..k).map(ProcId).collect(),
                    4,
                    true,
                ))
            };
            let out = run_counter_workload(
                &cfg,
                RunConfig {
                    max_steps: steps,
                    crashes: Vec::new(),
                    schedule,
                    nemesis: None,
                },
            );
            out.report.assert_no_panics();
            out.assert_distinct_responses();
            let timely: Vec<u64> = out.completed[..k].to_vec();
            let slow: Vec<u64> = out.completed[k..].to_vec();
            rows.push(vec![
                rname.to_string(),
                ename.to_string(),
                summarize(&timely),
                summarize(&slow),
                (*timely.iter().min().unwrap()).to_string(),
            ]);
        }
    }
    print_table(
        &[
            "regime",
            "engine",
            "timely ops",
            "non-timely ops",
            "min timely",
        ],
        &rows,
    );
    println!();
    println!("expected shape (paper, Sections 1.2 & 2):");
    println!("  - all timely: TBWF, FLMS and CAS all progress for everyone");
    println!("  - one non-timely: TBWF keeps every timely process > 0;");
    println!("    FLMS lets the slow process stall the timely ones (min ~ 0);");
    println!("    plain OF collapses under contention; CAS is immune (strong primitive)");
}
