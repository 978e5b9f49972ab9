//! B6 — campaign-executor throughput: the E12 gauntlet's campaign grid
//! executed serially (`--jobs 1`) vs work-sharded across all cores by
//! [`tbwf_sim::Executor`].
//!
//! Campaigns are independent seeded runs, so ideal scaling is linear in
//! core count; the bench reports wall-clock campaigns/s per worker
//! count, the parallel speedup, and — as a live cross-check of the
//! determinism contract — asserts that every worker count produced a
//! byte-identical campaign report. Each row is one pass over the grid;
//! `--quick` shrinks the grid.

use std::time::{Duration, Instant};
use tbwf_bench::bench::{Bench, Row};
use tbwf_bench::gauntlet::{campaign_list, report_json, run_campaigns};
use tbwf_sim::{resolve_jobs, Executor, Json};

fn main() {
    // The grid, not a time window, sizes this bench.
    let mut b = Bench::from_args("campaign_throughput", Duration::ZERO);
    let total = if b.quick() { 16 } else { 80 };
    let scenarios = campaign_list(total);
    // Always measure a parallel row (even on one core, where it shows
    // the timesharing overhead instead of a speedup) so the
    // byte-identical-report assertion below is exercised everywhere.
    let worker_counts = vec![1usize, resolve_jobs(None).max(2)];
    println!(
        "campaign_throughput: {} campaigns ({} per system kind), worker counts {:?}{}\n",
        scenarios.len(),
        scenarios.len() / 4,
        worker_counts,
        if b.quick() { " (--quick)" } else { "" }
    );

    let mut secs = Vec::new();
    let mut reports: Vec<String> = Vec::new();
    for &jobs in &worker_counts {
        let executor = Executor::new(jobs);
        let start = Instant::now();
        let results = run_campaigns(&scenarios, &executor);
        secs.push(start.elapsed().as_secs_f64());
        reports.push(report_json(&results).to_string_compact());
        b.push(Row {
            name: format!("jobs/{jobs}"),
            iters: 1,
            secs: *secs.last().unwrap(),
            work: scenarios.len() as u64,
            unit: "campaigns",
        });
    }
    for r in &reports[1..] {
        assert_eq!(
            r, &reports[0],
            "parallel campaign report differs from the serial one"
        );
    }

    let speedup = secs[0] / secs.last().unwrap();
    b.note("campaigns", Json::Int(scenarios.len() as i128));
    b.note("speedup", Json::Float(speedup));
    b.note("reports_identical", Json::Bool(true));
    b.report();
    println!(
        "\nspeedup at {} worker(s): {:.2}x; all reports byte-identical ok",
        worker_counts.last().unwrap(),
        speedup
    );
}
