//! Traced calls into the layers, shared by the workloads.
//!
//! Everything here calls the crates' public functions and records spans
//! around the calls; nothing inside the crates is instrumented.
//!
//! * [`timed_scenario`] runs a gauntlet scenario through
//!   `run_scenario_under` with the loop probe, splitting the call into
//!   build, step loop, teardown (trace merge) and oracles.
//! * [`replay_oracles`] times the oracle layers one by one by invoking
//!   the same public oracle functions again on the run's own report:
//!   `run_scenario_under` evaluates them in one block, so they cannot be
//!   split from outside while it runs.
//! * [`tbwf_census`] rebuilds a Figure 7 scenario through the public
//!   system builder with the gauntlet's nemesis wiring, to read the
//!   register factory's op log, and proves it ran the same run by
//!   comparing terminal fingerprints.

use std::thread::ThreadId;
use std::time::Instant;

use tbwf::linearize::check_run_linearizable;
use tbwf::prelude::OBS_COMPLETED;
use tbwf::{TbwfRun, TbwfSystemBuilder, Workload as TbwfWorkload};
use tbwf_bench::gauntlet::{
    gauge_name, run_scenario_under, Outcome, Scenario, SystemKind, DIAL_NAME,
};
use tbwf_check::exec::fingerprint;
use tbwf_monitor::fig2::{OBS_FAULT, OBS_STATUS};
use tbwf_monitor::props::{check_pair, CheckParams, PairRun};
use tbwf_omega::spec::{check_spec, convergence_time, OmegaRunData, SpecParams};
use tbwf_omega::{OmegaKind, OBS_LEADER};
use tbwf_registers::{RegisterFactory, RegisterFactoryConfig};
use tbwf_sim::timeliness::measured_timely_set;
use tbwf_sim::{FreeRunEnv, Nemesis, ProcId, RunConfig, RunReport, Schedule, ScheduleCtl, Trace};
use tbwf_universal::object::{Counter, CounterOp};

use crate::probe::{LoopMarks, Probe};
use crate::spans::Tracer;
use crate::workload::Layers;

/// Where one probed call spent its time.
#[derive(Clone, Copy, Debug)]
pub struct CallTiming {
    /// The call started.
    pub start: Instant,
    /// The step loop's marks.
    pub marks: LoopMarks,
    /// The call returned.
    pub end: Instant,
}

impl CallTiming {
    /// Length of the call, seconds.
    pub fn call_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Time from the end of the step loop to the end of the call
    /// (teardown and oracles), seconds.
    pub fn after_loop_s(&self) -> f64 {
        self.end
            .saturating_duration_since(self.marks.last)
            .as_secs_f64()
    }

    /// Records the runner's spans under `parent`; `oracles` names the
    /// span from `Sim::run` returning to the call returning.
    pub fn record(&self, tracer: &Tracer, parent: u64, run: u64, oracles: &'static str) {
        let m = self.marks;
        tracer.leaf(parent, run, "runner.build", self.start, m.first);
        tracer.leaf(parent, run, "runner.loop", m.first, m.last);
        tracer.leaf(parent, run, "runner.teardown", m.last, m.dropped);
        tracer.leaf(parent, run, oracles, m.dropped, self.end);
    }
}

/// Runs `sc` under the schedule `mk` builds, wrapped in the loop probe.
pub fn timed_scenario(
    sc: &Scenario,
    mk: &mut dyn FnMut(ScheduleCtl) -> Box<dyn Schedule>,
) -> (Outcome, RunReport, CallTiming) {
    let probe = Probe::default();
    let start = Instant::now();
    let (outcome, report) =
        run_scenario_under(sc, &mut |ctl| Box::new(probe.wrap(mk(ctl), sc.steps)));
    let end = Instant::now();
    let timing = CallTiming {
        start,
        marks: probe.marks(),
        end,
    };
    (outcome, report, timing)
}

/// When and where one executor job ran.
#[derive(Clone, Copy, Debug)]
pub struct JobTime {
    /// The worker thread.
    pub worker: ThreadId,
    /// Job start.
    pub start: Instant,
    /// Job end.
    pub end: Instant,
}

impl JobTime {
    /// Marks a job that started at `start` and ends now.
    pub fn since(start: Instant) -> JobTime {
        JobTime {
            worker: std::thread::current().id(),
            start,
            end: Instant::now(),
        }
    }
}

/// Executor utilisation of one batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecutorUse {
    /// Summed job time, seconds.
    pub busy_s: f64,
    /// Batch wall time, seconds.
    pub wall_s: f64,
    /// From the first worker going idle (its last job ending) to the
    /// last job ending, milliseconds.
    pub tail_ms: f64,
}

impl ExecutorUse {
    /// Measures a batch of `jobs` on `workers` workers that started at
    /// `batch_start`.
    pub fn of(jobs: &[JobTime], workers: usize, batch_start: Instant) -> ExecutorUse {
        let Some(last_end) = jobs.iter().map(|j| j.end).max() else {
            return ExecutorUse::default();
        };
        let mut last_per_worker: Vec<(ThreadId, Instant)> = Vec::new();
        for j in jobs {
            match last_per_worker.iter_mut().find(|(w, _)| *w == j.worker) {
                Some((_, end)) => *end = (*end).max(j.end),
                None => last_per_worker.push((j.worker, j.end)),
            }
        }
        // A worker that never got a job was idle from the start.
        let first_idle = if last_per_worker.len() < workers {
            batch_start
        } else {
            last_per_worker
                .iter()
                .map(|&(_, e)| e)
                .min()
                .unwrap_or(last_end)
        };
        ExecutorUse {
            busy_s: jobs.iter().map(|j| (j.end - j.start).as_secs_f64()).sum(),
            wall_s: (last_end - batch_start).as_secs_f64(),
            tail_ms: (last_end - first_idle).as_secs_f64() * 1e3,
        }
    }

    /// Adds another batch.
    pub fn add(&mut self, other: ExecutorUse) {
        self.busy_s += other.busy_s;
        self.wall_s += other.wall_s;
        self.tail_ms += other.tail_ms;
    }

    /// Summed job time over `workers` × wall time.
    pub fn busy_frac(&self, workers: usize) -> f64 {
        ratio(self.busy_s, workers as f64 * self.wall_s)
    }
}

/// Counts of a run's trace, added into `counts`.
pub fn count_trace(report: &RunReport, decisions: u64, counts: &mut Layers) {
    *counts.entry("runner.steps").or_default() += report.trace.steps.len() as f64;
    *counts.entry("runner.obs").or_default() += report.trace.obs.len() as f64;
    *counts.entry("schedule.decisions").or_default() += decisions as f64;
    *counts.entry("nemesis.injections").or_default() += report.trace.injections.len() as f64;
}

fn crashed(trace: &Trace) -> Vec<ProcId> {
    trace.crashes.iter().map(|&(_, p)| p).collect()
}

/// Re-invokes the oracle layers of a scenario's kind on its report,
/// one span per layer. Returns the Ω∆ convergence step for kinds that
/// elect a leader.
pub fn replay_oracles(
    sc: &Scenario,
    report: &RunReport,
    tracer: &Tracer,
    parent: u64,
    run: u64,
) -> Option<u64> {
    let trace = &report.trace;
    let n = sc.n;
    let measured = tracer.time(parent, run, "timeliness", || {
        measured_timely_set(&trace.steps, n, &crashed(trace))
    });
    match sc.kind {
        SystemKind::Monitor => {
            let pairs = tracer.time(parent, run, "trace.query", || {
                let mut pairs = Vec::new();
                for p in 0..n {
                    for q in (0..n).filter(|&q| q != p) {
                        pairs.push(PairRun {
                            total_time: trace.len() as u64,
                            monitoring: vec![(0, 1)],
                            active_for: vec![(0, 1)],
                            status: trace.obs_series(ProcId(p), OBS_STATUS, q as u32),
                            fault: trace.obs_series(ProcId(p), OBS_FAULT, q as u32),
                            q_crash: trace.crash_time(ProcId(q)),
                            q_p_timely: measured.contains(&ProcId(q)),
                            p_correct: trace.is_correct(ProcId(p)),
                        });
                    }
                }
                pairs
            });
            tracer.time(parent, run, "monitor.props", || {
                for pair in &pairs {
                    std::hint::black_box(check_pair(pair, CheckParams::default()).all_ok());
                }
            });
            None
        }
        SystemKind::OmegaAtomic | SystemKind::OmegaAbortable => {
            tracer.time(parent, run, "omega.spec", || {
                let data = OmegaRunData::from_trace(trace, n, &measured);
                std::hint::black_box(check_spec(&data, SpecParams::default(), false).ok);
            });
            tracer.time(parent, run, "trace.query", || {
                for &p in &measured {
                    std::hint::black_box(trace.obs_series(p, OBS_LEADER, 0));
                    for q in 0..n {
                        std::hint::black_box(trace.obs_series(p, OBS_FAULT, q as u32));
                    }
                }
            });
            Some(convergence_time(trace, n))
        }
        SystemKind::Tbwf => {
            tracer.time(parent, run, "trace.query", || {
                for &p in &measured {
                    std::hint::black_box(trace.obs_series(p, OBS_COMPLETED, 0));
                }
            });
            Some(convergence_time(trace, n))
        }
    }
}

/// Rebuilds a Figure 7 scenario with the gauntlet's nemesis wiring and
/// the schedule `mk` builds, returning the full run (results and the
/// register op log included).
pub fn tbwf_census(
    sc: &Scenario,
    mk: &mut dyn FnMut(ScheduleCtl) -> Box<dyn Schedule>,
) -> TbwfRun<Counter> {
    let ctl = ScheduleCtl::new();
    let plan = sc.plan.clone();
    let n = sc.n;
    TbwfSystemBuilder::new(Counter)
        .processes(n)
        .omega(OmegaKind::Atomic)
        .seed(sc.seed)
        .workload_all(TbwfWorkload::Unlimited(CounterOp::Inc))
        .run_wired(RunConfig::new(sc.steps, mk(ctl.clone())), |factory, cfg| {
            let mut nem = Nemesis::new(plan);
            nem.control_schedule(ctl.clone());
            nem.register_dial(DIAL_NAME, factory.policy_dial().handle());
            for p in 0..n {
                nem.register_gauge(&gauge_name(p), factory.inflight_gauge(ProcId(p)));
            }
            cfg.nemesis = Some(nem);
        })
}

/// Adds a Figure 7 run's register and operation counts into `counts`.
pub fn count_tbwf(run: &TbwfRun<Counter>, counts: &mut Layers) {
    let (ops, _, aborted) = run.log.abort_stats();
    *counts.entry("registers.ops").or_default() += ops as f64;
    *counts.entry("registers.aborted").or_default() += aborted as f64;
    *counts.entry("registers.steps").or_default() += run.report.trace.steps.len() as f64;
    *counts.entry("tbwf.ops_completed").or_default() += run.completed.iter().sum::<u64>() as f64;
}

/// Turns the raw sums of [`count_tbwf`] into the reported ratios.
pub fn finish_tbwf_counts(counts: &mut Layers) {
    let ops = counts.remove("registers.ops").unwrap_or(0.0);
    let aborted = counts.remove("registers.aborted").unwrap_or(0.0);
    let steps = counts.remove("registers.steps").unwrap_or(0.0);
    let done = counts.get("tbwf.ops_completed").copied().unwrap_or(0.0);
    counts.insert("registers.ops", ops);
    counts.insert("registers.ops_per_step", ratio(ops, steps));
    counts.insert("registers.abort_frac", ratio(aborted, ops));
    counts.insert("tbwf.steps_per_op", ratio(steps, done));
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Census of one Figure 7 scenario: rebuilds it, checks that the rebuilt
/// run is the measured one, counts it, and times the Wing–Gong check on
/// small complete histories (the cases the gauntlet oracle runs it on).
///
/// Returns an error if the rebuilt run's fingerprint differs from the
/// measured run's.
pub fn census(
    sc: &Scenario,
    measured: &RunReport,
    mk: &mut dyn FnMut(ScheduleCtl) -> Box<dyn Schedule>,
    tracer: &Tracer,
    parent: u64,
    run: u64,
    counts: &mut Layers,
) -> Result<(), String> {
    let rebuilt = tracer.time(parent, run, "census.run", || tbwf_census(sc, mk));
    if fingerprint(sc, &rebuilt.report) != fingerprint(sc, measured) {
        return Err(format!(
            "census of tbwf seed {} diverged from the measured run",
            sc.seed
        ));
    }
    count_tbwf(&rebuilt, counts);
    let total: usize = rebuilt.results.iter().map(Vec::len).sum();
    let max_rank = rebuilt.results.iter().flatten().map(|r| r.resp).max();
    if total <= 256 && max_rank.unwrap_or(0) == total as i64 {
        tracer.time(parent, run, "linearize", || {
            std::hint::black_box(check_run_linearizable(&Counter, &rebuilt).is_ok())
        });
    }
    Ok(())
}

/// Cost of one solo register operation (invoke plus complete, with the
/// op-log push and the adversary's RNG draw) on an abortable register
/// driven through a free-running environment, in nanoseconds: the median
/// of five rounds, each on a fresh factory.
pub fn solo_op_ns() -> f64 {
    const OPS: u64 = 40_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let factory = RegisterFactory::new(RegisterFactoryConfig::default());
            let reg = factory.abortable("solo", 0i64);
            let env = FreeRunEnv::new(ProcId(0));
            let start = Instant::now();
            for i in 0..OPS / 2 {
                let tok = reg.invoke_write(&env, i as i64);
                std::hint::black_box(reg.complete_write(&env, tok));
                let tok = reg.invoke_read(&env);
                std::hint::black_box(reg.complete_read(&env, tok));
            }
            start.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    crate::stats::median(&rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn executor_use_measures_busy_share_and_tail() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let a = std::thread::current().id();
        let b = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("probe thread");
        let jobs = [
            JobTime {
                worker: a,
                start: at(0),
                end: at(40),
            },
            JobTime {
                worker: b,
                start: at(0),
                end: at(60),
            },
            JobTime {
                worker: a,
                start: at(40),
                end: at(100),
            },
        ];
        let used = ExecutorUse::of(&jobs, 2, t0);
        assert!((used.busy_s - 0.16).abs() < 1e-9);
        assert!((used.busy_frac(2) - 0.8).abs() < 1e-9);
        // Worker b idles from 60 ms until the last job ends at 100 ms.
        assert!((used.tail_ms - 40.0).abs() < 1e-6);
        // With a third, jobless worker, the tail is the whole batch.
        assert!((ExecutorUse::of(&jobs, 3, t0).tail_ms - 100.0).abs() < 1e-6);
    }
}
