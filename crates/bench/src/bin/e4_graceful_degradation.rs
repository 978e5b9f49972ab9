//! **E4 — Graceful degradation** (the headline claim, Section 1.1;
//! Theorems 14–15).
//!
//! n processes hammer one TBWF counter while the schedule keeps only `k`
//! of them timely (the rest step with exponentially growing gaps —
//! correct but not timely). Reported per `k`, for both Ω∆ backends:
//!
//! * operations completed by the *least productive* timely process — the
//!   wait-freedom-for-the-timely guarantee (must be > 0 for every k ≥ 1);
//! * total timely / non-timely throughput — the gradual
//!   obstruction-freedom → lock-freedom → wait-freedom bridge.
//!
//! The paper has no empirical section; this experiment renders its
//! Section 1.1 narrative as a measurable curve (see EXPERIMENTS.md).

use tbwf::prelude::*;
use tbwf_bench::{print_table, summarize};

fn main() {
    tbwf_bench::no_args(env!("CARGO_BIN_NAME"));
    let n = 6;
    let steps: u64 = 400_000;
    println!("E4: graceful degradation of a TBWF counter, n = {n}, {steps} steps");
    println!("    k = number of timely processes (rest: growing step gaps)\n");

    let mut rows = Vec::new();
    let mut starved = 0;
    for kind in [OmegaKind::Atomic, OmegaKind::Abortable] {
        for k in 1..=n {
            let timely: Vec<ProcId> = (0..k).map(ProcId).collect();
            let schedule = PartiallySynchronous::new(timely.clone(), 4, true);
            let run = TbwfSystemBuilder::new(Counter)
                .processes(n)
                .omega(kind)
                .seed(0xE4 + k as u64)
                .workload_all(Workload::Unlimited(CounterOp::Inc))
                .run(RunConfig::new(steps, schedule));
            run.report.assert_no_panics();
            let timely_ops: Vec<u64> = (0..k).map(|p| run.completed[p]).collect();
            let slow_ops: Vec<u64> = (k..n).map(|p| run.completed[p]).collect();
            let min_timely = *timely_ops.iter().min().unwrap();
            if min_timely == 0 {
                starved += 1;
            }
            // Linearizability invariant on the side.
            let mut resp: Vec<i64> = run.results.iter().flatten().map(|r| r.resp).collect();
            let total = resp.len();
            resp.sort_unstable();
            resp.dedup();
            assert_eq!(resp.len(), total, "duplicate counter responses");
            rows.push(vec![
                format!("{kind:?}"),
                k.to_string(),
                min_timely.to_string(),
                summarize(&timely_ops),
                summarize(&slow_ops),
            ]);
        }
    }
    print_table(
        &[
            "omega",
            "k timely",
            "min timely ops",
            "timely ops",
            "non-timely ops",
        ],
        &rows,
    );
    println!("\nstarved timely processes across all cells: {starved} (paper predicts 0)");
    println!("all responses distinct in every run (linearizable) ok");
    assert_eq!(starved, 0, "a timely process starved: TBWF violated");
}
