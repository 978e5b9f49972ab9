//! `scale64`: one long single-threaded run of the E11 Series-2 system —
//! the Figure 7 counter over abortable Ω∆ at n = 64, every process
//! incrementing, on a round-robin schedule — followed by its oracles:
//! the measured timely set, the Ω∆ specification (Definition 5) and the
//! linearizability rank checks of the gauntlet's Figure 7 oracle.
//!
//! The run does not touch the executor. A pass is one run of a fixed
//! step budget. The seed picks the order in which the round robin visits
//! the processes (seed 0: p0, p1, …, p63, as E11 runs it) and perturbs
//! the register backend's seed.

use std::time::Instant;

use tbwf::prelude::OBS_COMPLETED;
use tbwf::{TbwfRun, TbwfSystemBuilder, Workload as TbwfWorkload};
use tbwf_bench::gauntlet::ablation_scenario;
use tbwf_omega::spec::{check_spec, convergence_time, OmegaRunData, SpecParams};
use tbwf_omega::OmegaKind;
use tbwf_sim::timeliness::measured_timely_set;
use tbwf_sim::{ProcId, RunConfig, Schedule, Scripted, TaskOutcome};
use tbwf_universal::object::{Counter, CounterOp};

use crate::gauntlet::shrink_and_replay;
use crate::host;
use crate::instrument;
use crate::probe::Probe;
use crate::spans::Tracer;
use crate::workload::{Layers, Pass, Repro, Workload};

/// Number of processes.
pub const N: usize = 64;

/// Global steps per run.
pub const BUDGET: u64 = 1_000_000;

/// Steps of the warm-up run in set-up.
const WARMUP: u64 = 200_000;

/// Register seed of E11's Series 2, which the benchmark seed perturbs.
const BASE_SEED: u64 = 0xE11;

/// The round-robin order for a seed: the identity for seed 0, else a
/// Fisher–Yates shuffle driven by SplitMix64.
pub fn round_robin_order(seed: u64) -> Vec<ProcId> {
    let mut order: Vec<ProcId> = (0..N).map(ProcId).collect();
    if seed == 0 {
        return order;
    }
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..N).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn round_robin(seed: u64) -> Scripted {
    Scripted::new(round_robin_order(seed))
}

fn build_and_run(seed: u64, steps: u64, schedule: impl Schedule + 'static) -> TbwfRun<Counter> {
    TbwfSystemBuilder::new(Counter)
        .processes(N)
        .omega(OmegaKind::Abortable)
        .seed(BASE_SEED.wrapping_add(seed))
        .workload_all(TbwfWorkload::Unlimited(CounterOp::Inc))
        .run(RunConfig::new(steps, schedule))
}

/// What the oracles found on one run.
struct Verdict {
    failures: Vec<String>,
    spec_failures: usize,
    elected: Option<usize>,
    timely: usize,
    convergence: u64,
}

/// The run's oracles, each in its own span when traced.
///
/// A run fails on a panic, a rank-check violation, a disagreement
/// between the trace and the returned results, or when no leader is
/// elected. The Definition 5 clauses are evaluated and their failures
/// go into the digest, but they do not fail the run: Figure 7 moves
/// leadership after every completed operation (a process leaves the
/// candidate set when its operation completes), so a finite trace this
/// short cannot classify the candidates the way the clauses need.
fn oracles(run: &TbwfRun<Counter>, tracer: Option<&Tracer>, parent: u64, id: u64) -> Verdict {
    let time = |name: &'static str, start: Instant| {
        if let Some(tr) = tracer {
            tr.leaf(parent, id, name, start, Instant::now());
        }
    };
    let trace = &run.report.trace;
    let mut failures = Vec::new();
    for (p, pr) in run.report.procs.iter().enumerate() {
        for (task, outcome) in &pr.tasks {
            if let TaskOutcome::Panicked(m) = outcome {
                failures.push(format!("p{p}/{task} panicked: {m}"));
            }
        }
    }

    let t = Instant::now();
    let crashed: Vec<ProcId> = trace.crashes.iter().map(|&(_, p)| p).collect();
    let measured = measured_timely_set(&trace.steps, N, &crashed);
    time("timeliness", t);

    let t = Instant::now();
    let data = OmegaRunData::from_trace(trace, N, &measured);
    let spec = check_spec(&data, SpecParams::default(), false);
    time("omega.spec", t);

    // The gauntlet's Figure 7 rank checks: each increment's response is
    // its rank, so ranks are distinct, at most one effective increment
    // per process goes unreported, and no interval is inverted.
    let t = Instant::now();
    let mut ranks: Vec<i64> = run.results.iter().flatten().map(|r| r.resp).collect();
    let total = ranks.len() as i64;
    ranks.sort_unstable();
    if ranks.windows(2).any(|w| w[0] == w[1]) {
        failures.push("duplicate increment rank".into());
    }
    if ranks.last().copied().unwrap_or(0) - total > N as i64 {
        failures.push("more unreported increments than processes".into());
    }
    if run.results.iter().flatten().any(|r| r.time < r.invoked) {
        failures.push("inverted operation interval".into());
    }
    time("tbwf.rank_checks", t);

    let t = Instant::now();
    for p in 0..N {
        let last = trace.last_value(ProcId(p), OBS_COMPLETED, 0).unwrap_or(0);
        if last != run.completed[p] as i64 {
            failures.push(format!(
                "p{p}: trace reports {last} completed operations, the run {}",
                run.completed[p]
            ));
        }
    }
    let convergence = convergence_time(trace, N);
    time("trace.query", t);

    if spec.elected.is_none() {
        failures.push("no leader elected".into());
    }
    Verdict {
        failures,
        spec_failures: spec.failures.len(),
        elected: spec.elected.map(|p| p.0),
        timely: measured.len(),
        convergence,
    }
}

/// The digest lines of one run.
fn stats(run: &TbwfRun<Counter>, v: &Verdict) -> Vec<String> {
    let (ops, _, aborted) = run.log.abort_stats();
    let mut d = crate::stats::Digest::default();
    for c in &run.completed {
        d.u64(*c);
    }
    vec![
        format!("steps {}", run.report.trace.steps.len()),
        format!("observations {}", run.report.trace.obs.len()),
        format!("register ops {ops} aborted {aborted}"),
        format!(
            "ops completed {} per-process fnv {}",
            run.completed.iter().sum::<u64>(),
            d.hex()
        ),
        format!("leader {:?} converged at {}", v.elected, v.convergence),
        format!("measured timely {}", v.timely),
        format!("omega spec clauses failed {}", v.spec_failures),
        format!("failures {}", v.failures.len()),
    ]
}

/// The scale64 workload.
pub struct Scale64 {
    seed: u64,
    passes: u64,
}

impl Scale64 {
    /// The workload for one seed.
    pub fn new(seed: u64) -> Scale64 {
        Scale64 { seed, passes: 0 }
    }
}

impl Workload for Scale64 {
    fn setup(&mut self, _tracer: Option<&Tracer>) {
        let run = build_and_run(self.seed, WARMUP, round_robin(self.seed));
        std::hint::black_box(run.completed);
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let id = self.passes;
        self.passes += 1;
        let cpu0 = host::process_cpu_ms();
        let start = Instant::now();
        let (run, verdict, counts) = match tracer {
            None => {
                let run = build_and_run(self.seed, BUDGET, round_robin(self.seed));
                let verdict = oracles(&run, None, 0, id);
                (run, verdict, Layers::new())
            }
            Some(tr) => {
                let root = tr.open();
                let probe = Probe::default();
                let run = build_and_run(
                    self.seed,
                    BUDGET,
                    probe.wrap(round_robin(self.seed), BUDGET),
                );
                let marks = probe.marks();
                tr.leaf(root, id, "runner.build", start, marks.first);
                tr.leaf(root, id, "runner.loop", marks.first, marks.last);
                tr.leaf(root, id, "runner.teardown", marks.last, marks.dropped);
                // From `Sim::run` returning to `TbwfSystemBuilder::run`
                // returning: collecting the workers' results.
                tr.leaf(root, id, "tbwf.collect", marks.dropped, Instant::now());
                let oracle = tr.open();
                let t = Instant::now();
                let verdict = oracles(&run, Some(tr), oracle, id);
                tr.close(oracle, root, id, "scale64.oracles", t);
                tr.close(root, 0, id, "run", start);
                let mut counts = Layers::new();
                instrument::count_trace(&run.report, marks.decisions, &mut counts);
                instrument::count_tbwf(&run, &mut counts);
                instrument::finish_tbwf_counts(&mut counts);
                counts.insert("omega.convergence_step", verdict.convergence as f64);
                (run, verdict, counts)
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        let failed = u64::from(!verdict.failures.is_empty());
        let pass = Pass {
            wall_s,
            cpu_ms: host::process_cpu_ms() - cpu0,
            run_ms: vec![wall_s * 1e3],
            runs: 1,
            sim_steps: run.report.trace.steps.len() as u64,
            attempted: 1,
            failed,
            stats: stats(&run, &verdict),
            counts,
            timings: Layers::new(),
            problems: Vec::new(),
        };
        for f in &verdict.failures {
            eprintln!("scale64: {f}");
        }
        pass
    }

    /// scale64 has no violating runs of its own; its repro leg shrinks
    /// the planned ablation, so that `repro_s` is defined on every
    /// workload.
    fn repro(&mut self, tracer: Option<&Tracer>) -> Repro {
        let t = Instant::now();
        let r = shrink_and_replay(&ablation_scenario(self.seed));
        let planned_s = t.elapsed().as_secs_f64();
        if let Some(tr) = tracer {
            tr.leaf(0, 0, "gauntlet.shrink", t, Instant::now());
        }
        Repro {
            artifacts: vec![r.artifact],
            shrink_runs: r.runs,
            planned_s,
            unshrunk: u64::from(!r.shrank),
            ..Repro::default()
        }
    }

    fn check(&mut self, first: &Pass, _repro: &Repro) -> Vec<String> {
        let mut problems = Vec::new();
        let expect = format!("steps {BUDGET}");
        if first.stats.first() != Some(&expect) {
            problems.push(format!("run stopped early: {:?}", first.stats.first()));
        }
        problems
    }

    fn layers(&self, tracer: &Tracer, repro: &Repro) -> Layers {
        Layers::from([
            ("gauntlet.shrink_ms", crate::gauntlet::shrink_ms(tracer)),
            ("gauntlet.shrink_runs", repro.shrink_runs as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_order_is_a_seeded_permutation() {
        let identity: Vec<ProcId> = (0..N).map(ProcId).collect();
        assert_eq!(round_robin_order(0), identity);
        let a = round_robin_order(5);
        assert_eq!(a, round_robin_order(5));
        assert_ne!(a, identity);
        let mut sorted = a.clone();
        sorted.sort_by_key(|p| p.0);
        assert_eq!(sorted, identity);
    }
}
