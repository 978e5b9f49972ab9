//! **E10 — Ablation: self-punishment on re-candidacy in Figure 3**
//! (DESIGN.md §8).
//!
//! The paper: "Every time p stops and starts being a candidate for
//! leadership, p increments its own `CounterRegister[p]` as a
//! 'self-punishment'. […] Without this self-punishment, it is easy to
//! find a scenario where r has the smallest CounterRegister and
//! leadership oscillates forever between r and another process."
//!
//! We build that scenario: p0 (the lowest id, so it wins every counter
//! tie) blinks in and out of candidacy forever; p1 is a permanent timely
//! candidate. With self-punishment p0's counter outgrows p1's after a
//! couple of blinks and p1 rules permanently; without it, every time p0
//! returns it snatches leadership back — oscillation forever.

use tbwf_bench::print_table;
use tbwf_omega::harness::{install_omega_with, OmegaOptions};
use tbwf_omega::{add_candidate_driver, CandidateScript, OmegaKind, OBS_LEADER};
use tbwf_registers::RegisterFactory;
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::{ProcId, RunConfig, SimBuilder};

fn run_blinker(self_punish: bool, steps: u64) -> (usize, Vec<i64>) {
    let factory = RegisterFactory::default();
    let mut b = SimBuilder::new();
    for p in 0..2 {
        b.add_process(&format!("p{p}"));
    }
    let handles = install_omega_with(
        &mut b,
        &factory,
        2,
        OmegaKind::Atomic,
        OmegaOptions { self_punish },
    );
    add_candidate_driver(
        &mut b,
        ProcId(0),
        &handles[0],
        CandidateScript::Blink {
            on: 8_000,
            off: 8_000,
        },
    );
    add_candidate_driver(&mut b, ProcId(1), &handles[1], CandidateScript::Always);
    let report = b.build().run(RunConfig::new(steps, RoundRobin::new()));
    report.assert_no_panics();

    // Count p1's leadership changes during the second half of the run
    // and record the distinct leader values it saw there.
    let series = report.trace.obs_series(ProcId(1), OBS_LEADER, 0);
    let late: Vec<i64> = series
        .iter()
        .filter(|(t, _)| *t >= steps / 2)
        .map(|(_, v)| *v)
        .collect();
    (late.len(), late)
}

fn main() {
    tbwf_bench::no_args(env!("CARGO_BIN_NAME"));
    let steps = 400_000;
    println!("E10: Fig. 3 self-punishment ablation");
    println!("     p0 = blinking R-candidate (lowest id), p1 = permanent timely candidate");
    println!("     measured: p1's leader changes during the second half of {steps} steps\n");

    let mut rows = Vec::new();
    let (with_changes, _) = run_blinker(true, steps);
    rows.push(vec![
        "with self-punishment (paper)".to_string(),
        with_changes.to_string(),
        "stable leader".to_string(),
    ]);
    let (without_changes, late) = run_blinker(false, steps);
    rows.push(vec![
        "without self-punishment".to_string(),
        without_changes.to_string(),
        format!("oscillates ({} flips)", without_changes),
    ]);
    print_table(&["variant", "late leader changes at p1", "behavior"], &rows);

    println!();
    assert_eq!(
        with_changes, 0,
        "with self-punishment leadership must stabilize (got {with_changes} changes)"
    );
    assert!(
        without_changes >= 4,
        "without self-punishment leadership should keep oscillating \
         (got only {without_changes} changes: {late:?})"
    );
    println!(
        "self-punishment is necessary: 0 late changes with it, \
         {without_changes} without ok"
    );
}
