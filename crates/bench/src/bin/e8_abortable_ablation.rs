//! **E8 — Abortable-register ablations** (Section 6).
//!
//! Part A: abort rates on a shared abortable register — solo operations
//! never abort; the abort rate under contention grows with the number of
//! hammering processes (this is the weakness the Figure 4/5 mechanisms
//! are designed around).
//!
//! Part B: **why the heartbeat of Figure 5 needs two registers.** With a
//! single heartbeat register, an aborted read only proves the writer is
//! *alive*; a slow writer that is perpetually mid-write makes every read
//! abort and is judged timely forever. With two alternating registers, a
//! slow writer is caught: while it dawdles on one register, reads of the
//! other neither abort nor return anything new. We measure the fraction
//! of reader polls that judge the writer timely, for a timely and for a
//! slow writer, under both detector rules.

use std::sync::Arc;
use tbwf_bench::print_table;
use tbwf_registers::{OpToken, RegisterFactory, SharedAbortable};
use tbwf_sim::schedule::{RoundRobin, Weighted};
use tbwf_sim::{Control, ProcId, RunConfig, Schedule, SimBuilder, StepCtx};

/// The register operation a Part A hammer has in flight.
#[derive(Clone, Copy)]
enum Hammer {
    Idle,
    Write(OpToken),
    Read(OpToken),
}

/// Part A: n processes hammer one MWMR abortable register.
fn abort_rate(n: usize, steps: u64) -> (u64, u64, u64) {
    let factory = RegisterFactory::default();
    let reg = factory.abortable("R", 0i64);
    let mut b = SimBuilder::new();
    for p in 0..n {
        let pid = b.add_process(&format!("p{p}"));
        let reg = Arc::clone(&reg);
        // Write i, read, i += 1, forever: every operation spans two of
        // the process's steps.
        let mut i = 0i64;
        let mut inflight = Hammer::Idle;
        let hammer = move |ctx: &mut StepCtx<'_>| {
            let env = ctx.env();
            inflight = match inflight {
                Hammer::Write(tok) => {
                    let _ = reg.complete_write(env, tok);
                    Hammer::Read(reg.invoke_read(env))
                }
                Hammer::Read(_) | Hammer::Idle => {
                    if let Hammer::Read(tok) = inflight {
                        let _ = reg.complete_read(env, tok);
                    }
                    i += 1;
                    Hammer::Write(reg.invoke_write(env, i))
                }
            };
            Control::Yield
        };
        b.add_stepper(pid, "hammer", Box::new(hammer));
    }
    let report = b.build().run(RunConfig::new(steps, RoundRobin::new()));
    report.assert_no_panics();
    factory.log().abort_stats()
}

/// Part B: a writer heartbeats through `regs` (alternating); the reader
/// judges timeliness with the k-register rule (all registers must abort
/// or change). Returns (timely_verdicts, polls).
fn heartbeat_detector(slow_writer: bool, two_regs: bool, steps: u64) -> (u64, u64) {
    let factory = RegisterFactory::default();
    let regs: Vec<SharedAbortable<i64>> = (0..if two_regs { 2 } else { 1 })
        .map(|i| factory.abortable_swsr(&format!("Hb{i}"), 0i64, ProcId(1), ProcId(0)))
        .collect();

    let mut b = SimBuilder::new();
    let reader = b.add_process("reader");
    let writer = b.add_process("writer");

    // The writer bumps c and writes it to every register in turn,
    // forever.
    {
        let regs = regs.clone();
        let mut c = 0i64;
        let mut pending: Option<(usize, OpToken)> = None;
        let heartbeat = move |ctx: &mut StepCtx<'_>| {
            let env = ctx.env();
            let mut k = match pending.take() {
                Some((k, tok)) => {
                    let _ = regs[k].complete_write(env, tok);
                    k + 1
                }
                None => regs.len(),
            };
            if k == regs.len() {
                c += 1;
                k = 0;
            }
            pending = Some((k, regs[k].invoke_write(env, c)));
            Control::Yield
        };
        b.add_stepper(writer, "hb", Box::new(heartbeat));
    }
    // The reader polls every 8 own steps (a fixed timeout: the ablation
    // isolates the register-count question from adaptivity): it reads
    // every register in turn and judges the writer timely iff each read
    // aborted or changed.
    {
        let mut prev: Vec<Option<i64>> = vec![Some(0); regs.len()];
        let (mut timely, mut polls) = (0i64, 0i64);
        let (mut waited, mut fresh_all) = (0u32, true);
        let mut reading: Option<(usize, OpToken)> = None;
        let detect = move |ctx: &mut StepCtx<'_>| {
            let env = ctx.env();
            if let Some((k, tok)) = reading.take() {
                let cur = regs[k].complete_read(env, tok).value();
                fresh_all &= cur.is_none() || cur != prev[k];
                prev[k] = cur;
                if k + 1 < regs.len() {
                    reading = Some((k + 1, regs[k + 1].invoke_read(env)));
                    return Control::Yield;
                }
                polls += 1;
                if fresh_all {
                    timely += 1;
                }
                env.observe("timely_verdicts", 0, timely);
                env.observe("polls", 0, polls);
                // The first step of the next wait ends this segment.
                waited = 1;
            } else if waited < 8 {
                waited += 1;
            } else {
                (waited, fresh_all) = (0, true);
                reading = Some((0, regs[0].invoke_read(env)));
            }
            Control::Yield
        };
        b.add_stepper(reader, "detect", Box::new(detect));
    }

    let schedule: Box<dyn Schedule> = if slow_writer {
        // The writer gets a step ~once per 400 reader steps: its writes
        // stay in flight for long stretches.
        Box::new(Weighted::new(vec![400.0, 1.0], 0xE8))
    } else {
        Box::new(RoundRobin::new())
    };
    let report = b.build().run(RunConfig {
        max_steps: steps,
        crashes: Vec::new(),
        schedule,
        nemesis: None,
    });
    report.assert_no_panics();
    let timely = report
        .trace
        .last_value(ProcId(0), "timely_verdicts", 0)
        .unwrap_or(0) as u64;
    let polls = report.trace.last_value(ProcId(0), "polls", 0).unwrap_or(0) as u64;
    (timely, polls)
}

fn main() {
    tbwf_bench::no_args(env!("CARGO_BIN_NAME"));
    println!("E8: abortable-register ablations (Section 6)\n");

    println!("Part A: abort rate on one shared abortable register");
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let (total, overlapped, aborted) = abort_rate(n, 40_000);
        rows.push(vec![
            n.to_string(),
            total.to_string(),
            overlapped.to_string(),
            aborted.to_string(),
            format!("{:.1}%", 100.0 * aborted as f64 / total.max(1) as f64),
        ]);
        if n == 1 {
            assert_eq!(aborted, 0, "solo operations must never abort");
        }
    }
    print_table(
        &["procs", "ops", "overlapped", "aborted", "abort rate"],
        &rows,
    );
    println!("  solo operations never abort ok\n");

    println!("Part B: heartbeat detector — 1 register vs 2 registers (Fig. 5)");
    let steps = 200_000;
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (wname, slow) in [("timely writer", false), ("slow writer", true)] {
        for (dname, two) in [("1 register", false), ("2 registers", true)] {
            let (timely, polls) = heartbeat_detector(slow, two, steps);
            let frac = timely as f64 / polls.max(1) as f64;
            measured.push((slow, two, frac));
            rows.push(vec![
                wname.to_string(),
                dname.to_string(),
                polls.to_string(),
                format!("{:.1}%", frac * 100.0),
            ]);
        }
    }
    print_table(&["writer", "detector", "polls", "judged timely"], &rows);

    let one_reg_slow = measured.iter().find(|(s, t, _)| *s && !t).unwrap().2;
    let two_reg_slow = measured.iter().find(|(s, t, _)| *s && *t).unwrap().2;
    let two_reg_timely = measured.iter().find(|(s, t, _)| !s && *t).unwrap().2;
    println!();
    println!(
        "  slow writer judged timely: {:.0}% with one register vs {:.0}% with two",
        one_reg_slow * 100.0,
        two_reg_slow * 100.0
    );
    assert!(
        one_reg_slow > two_reg_slow + 0.3,
        "two registers must sharply reduce false-timely verdicts \
         ({one_reg_slow:.2} vs {two_reg_slow:.2})"
    );
    assert!(
        two_reg_timely > 0.9,
        "a timely writer must still be judged timely ({two_reg_timely:.2})"
    );
    println!("  the Figure 5 two-register scheme is necessary and sufficient ok");
}
