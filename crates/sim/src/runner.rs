//! The simulation runner: builds processes/tasks and executes a run.

use crate::env::CrashFlags;
use crate::ids::ProcId;
use crate::nemesis::Nemesis;
use crate::schedule::{Schedule, ScheduleView};
use crate::step::{Control, StepCtx, StepEnv, Stepper};
use crate::trace::{Obs, Trace};
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;

/// Builder for a simulated system.
///
/// Add processes, then add one or more stepper tasks to each; `build`
/// returns the runnable system.
#[derive(Default)]
pub struct SimBuilder {
    procs: Vec<ProcRt>,
}

impl SimBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a process and returns its id (ids are assigned in order).
    pub fn add_process(&mut self, name: &str) -> ProcId {
        self.procs.push(ProcRt {
            name: name.to_string(),
            tasks: Vec::new(),
            cursor: 0,
            crashed: false,
        });
        ProcId(self.procs.len() - 1)
    }

    /// Adds a task to process `pid`.
    ///
    /// The scheduler drives the stepper by direct [`Stepper::step`]
    /// calls; see the [`step`](crate::step) module for the contract. A
    /// stepper that returns [`Control::Done`] simply finishes (useful for
    /// finite workloads).
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not returned by [`SimBuilder::add_process`].
    pub fn add_stepper(&mut self, pid: ProcId, name: &str, stepper: Box<dyn Stepper>) {
        self.procs[pid.0].tasks.push(TaskRt {
            name: name.to_string(),
            stepper,
            outcome: None,
        });
    }

    /// Number of processes added so far.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Returns the runnable system.
    ///
    /// # Panics
    ///
    /// Panics if any process has no tasks.
    pub fn build(self) -> Sim {
        for proc in &self.procs {
            assert!(!proc.tasks.is_empty(), "process {} has no tasks", proc.name);
        }
        Sim { procs: self.procs }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

struct TaskRt {
    name: String,
    stepper: Box<dyn Stepper>,
    /// `None` while the task still runs; `Finished` or `Panicked` once
    /// it has exited.
    outcome: Option<TaskOutcome>,
}

struct ProcRt {
    name: String,
    tasks: Vec<TaskRt>,
    cursor: usize,
    crashed: bool,
}

impl ProcRt {
    fn runnable(&self) -> bool {
        !self.crashed && self.tasks.iter().any(|t| t.outcome.is_none())
    }
}

/// Configuration of a single run.
pub struct RunConfig {
    /// Maximum number of global steps to execute.
    pub max_steps: u64,
    /// Crash plan: `(time, process)` pairs; at each listed time the process
    /// stops being scheduled forever.
    pub crashes: Vec<(u64, ProcId)>,
    /// The schedule (adversary).
    pub schedule: Box<dyn Schedule>,
    /// Optional nemesis: dynamic, trace-aware fault injection (see the
    /// [`nemesis`](crate::nemesis) module).
    pub nemesis: Option<Nemesis>,
}

impl RunConfig {
    /// Creates a run configuration with no crashes.
    pub fn new(max_steps: u64, schedule: impl Schedule + 'static) -> Self {
        RunConfig {
            max_steps,
            crashes: Vec::new(),
            schedule: Box::new(schedule),
            nemesis: None,
        }
    }

    /// Adds a crash of `p` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if the crash plan already crashes `p`: a process crashes at
    /// most once in the paper's model (no crash-recovery), and a silent
    /// duplicate would hide a misconfigured experiment. Out-of-range ids
    /// are caught by [`Sim::run`], which knows the system size.
    #[must_use]
    pub fn crash(mut self, t: u64, p: ProcId) -> Self {
        assert!(
            !self.crashes.iter().any(|&(_, q)| q == p),
            "duplicate crash of process {} in the crash plan",
            p.0
        );
        self.crashes.push((t, p));
        self
    }

    /// Attaches a nemesis to the run.
    #[must_use]
    pub fn with_nemesis(mut self, nemesis: Nemesis) -> Self {
        self.nemesis = Some(nemesis);
        self
    }
}

/// How a task ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TaskOutcome {
    /// Still running when the run ended (normal for the paper's
    /// `repeat forever` algorithms).
    Halted,
    /// The stepper returned [`Control::Done`] before the run ended.
    Finished,
    /// The task panicked; the message is attached.
    Panicked(String),
}

/// Per-process summary of a run.
#[derive(Clone, Debug)]
pub struct ProcReport {
    /// Process name given at build time.
    pub name: String,
    /// Whether the crash plan crashed this process.
    pub crashed: bool,
    /// Outcome of each task, in creation order.
    pub tasks: Vec<(String, TaskOutcome)>,
}

/// The result of a run: the trace plus per-process outcomes.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The recorded trace.
    pub trace: Trace,
    /// Per-process reports, indexed by process id.
    pub procs: Vec<ProcReport>,
}

impl RunReport {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Panics if any task panicked, reporting all panic messages.
    pub fn assert_no_panics(&self) {
        let mut msgs = Vec::new();
        for (p, pr) in self.procs.iter().enumerate() {
            for (tname, out) in &pr.tasks {
                if let TaskOutcome::Panicked(m) = out {
                    msgs.push(format!("p{p}/{tname}: {m}"));
                }
            }
        }
        assert!(msgs.is_empty(), "task panics: {msgs:?}");
    }
}

/// A built system, ready to run once.
pub struct Sim {
    procs: Vec<ProcRt>,
}

impl Sim {
    /// Executes the run to completion and returns the report.
    ///
    /// The run ends when `max_steps` steps have been taken or no process is
    /// runnable. Tasks still looping at that point are simply never
    /// polled again.
    ///
    /// # Panics
    ///
    /// Panics before the first step if the crash plan names a process id
    /// outside the system, crashes the same process twice, or if an
    /// attached nemesis has an invalid fault plan (out-of-range targets,
    /// unregistered switch/dial/gauge names, schedule actions without a
    /// [`ScheduleCtl`](crate::schedule::ScheduleCtl)).
    pub fn run(mut self, mut config: RunConfig) -> RunReport {
        let n = self.procs.len();
        let mut crash_seen = vec![false; n];
        for &(_, cp) in &config.crashes {
            assert!(
                cp.0 < n,
                "crash plan names process {} but the system has {n} processes",
                cp.0
            );
            assert!(
                !crash_seen[cp.0],
                "duplicate crash of process {} in the crash plan",
                cp.0
            );
            crash_seen[cp.0] = true;
        }
        if let Some(nem) = &config.nemesis {
            if let Err(e) = nem.validate(n) {
                panic!("invalid fault plan: {e}");
            }
        }
        // Shared with every task env so registers can tell that a process
        // has crashed (see [`crate::Env::is_crashed`]).
        let crash_flags = CrashFlags::new(n);
        // Pre-size the trace buffers from the step budget so steady-state
        // recording never reallocates. Both reserves are capped: huge
        // budgets (the E11 n = 64 sweep asks for ~1.6e8 steps) would
        // otherwise pre-commit gigabytes before the first step runs.
        let steps_cap = (config.max_steps as usize).min(1 << 22);
        let total_tasks: usize = self.procs.iter().map(|p| p.tasks.len()).sum();
        let obs_cap = total_tasks * ((config.max_steps as usize) / total_tasks.max(1)).min(1 << 16);
        // The run-wide observation log, in recording order. Every task
        // appends to it through its per-step env.
        let obs: RefCell<Vec<Obs>> = RefCell::new(Vec::with_capacity(obs_cap));
        let mut steps: Vec<ProcId> = Vec::with_capacity(steps_cap);
        let mut step_counts = vec![0u64; n];
        let mut crashes_applied: Vec<(u64, ProcId)> = Vec::new();
        config.crashes.sort_by_key(|(t, _)| *t);
        let mut crash_iter = config.crashes.iter().peekable();
        // Scratch buffer reused across steps (the hot loop allocates
        // nothing per iteration).
        let mut runnable = vec![false; n];

        for t in 0..config.max_steps {
            while let Some(&&(ct, cp)) = crash_iter.peek() {
                if ct <= t {
                    if !self.procs[cp.0].crashed {
                        self.procs[cp.0].crashed = true;
                        crash_flags.set(cp);
                        crashes_applied.push((t, cp));
                    }
                    crash_iter.next();
                } else {
                    break;
                }
            }
            if let Some(nem) = config.nemesis.as_mut() {
                for cp in nem.poll_pre(t, &step_counts) {
                    if cp.0 < n && !self.procs[cp.0].crashed {
                        self.procs[cp.0].crashed = true;
                        crash_flags.set(cp);
                        crashes_applied.push((t, cp));
                    }
                }
            }
            for (flag, proc) in runnable.iter_mut().zip(&self.procs) {
                *flag = proc.runnable();
            }
            let view = ScheduleView {
                n,
                runnable: &runnable,
                time: t,
            };
            if !view.any_runnable() {
                break;
            }
            let mut p = config.schedule.next(&view);
            if p.0 >= n || !runnable[p.0] {
                p = view
                    .next_runnable_from(p.0 % n)
                    .expect("some process runnable");
            }
            // Rotate to the process's next live task and grant one step.
            let env = StepEnv {
                pid: p,
                now: t,
                obs: &obs,
                crashed: &crash_flags,
            };
            let proc = &mut self.procs[p.0];
            let ntasks = proc.tasks.len();
            // Where the granted step's observations begin: taken right
            // before each `step` call, so the final segment of a task
            // that returns `Done` in this slot stays out of the view the
            // nemesis gets.
            let mut granted_from = None;
            for k in 0..ntasks {
                let ti = (proc.cursor + k) % ntasks;
                let task = &mut proc.tasks[ti];
                if task.outcome.is_some() {
                    continue;
                }
                let mark = obs.borrow().len();
                let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    task.stepper.step(&mut StepCtx::new(&env))
                }));
                match step {
                    Ok(Control::Yield) => {
                        proc.cursor = ti + 1;
                        granted_from = Some(mark);
                        break;
                    }
                    Ok(Control::Done) => task.outcome = Some(TaskOutcome::Finished),
                    Err(panic) => {
                        task.outcome = Some(TaskOutcome::Panicked(panic_message(&*panic)));
                    }
                }
            }
            if let Some(mark) = granted_from {
                steps.push(p);
                step_counts[p.0] += 1;
                if let Some(nem) = config.nemesis.as_mut() {
                    for cp in nem.poll_post(t, p, &obs.borrow()[mark..]) {
                        if cp.0 < n && !self.procs[cp.0].crashed {
                            self.procs[cp.0].crashed = true;
                            crash_flags.set(cp);
                            crashes_applied.push((t, cp));
                        }
                    }
                }
            }
            // If no task of p could take a step (all just exited), the time
            // slot is simply skipped; the next iteration re-evaluates
            // runnability.
        }

        let reports = self
            .procs
            .iter()
            .map(|proc| ProcReport {
                name: proc.name.clone(),
                crashed: proc.crashed,
                tasks: proc
                    .tasks
                    .iter()
                    .map(|task| {
                        let outcome = task.outcome.clone().unwrap_or(TaskOutcome::Halted);
                        (task.name.clone(), outcome)
                    })
                    .collect(),
            })
            .collect();
        let trace = Trace {
            steps,
            obs: obs.into_inner(),
            crashes: crashes_applied,
            injections: config
                .nemesis
                .as_mut()
                .map(|nm| nm.take_injections())
                .unwrap_or_default(),
        };
        RunReport {
            trace,
            procs: reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{RoundRobin, Scripted};

    /// A task that takes steps forever and does nothing else.
    fn spin() -> Box<dyn Stepper> {
        Box::new(|_: &mut StepCtx<'_>| Control::Yield)
    }

    /// Observes `0..yields` on `"i"`, one per step, then `-1` on
    /// `"final"` in the segment that returns `Done`.
    fn counting(yields: i64) -> Box<dyn Stepper> {
        let mut i = 0;
        Box::new(move |ctx: &mut StepCtx<'_>| {
            if i < yields {
                ctx.observe("i", 0, i);
                i += 1;
                Control::Yield
            } else {
                ctx.observe("final", 0, -1);
                Control::Done
            }
        })
    }

    /// Observes `tag` on `"task"` every step.
    fn tagger(tag: i64) -> Box<dyn Stepper> {
        Box::new(move |ctx: &mut StepCtx<'_>| {
            ctx.observe("task", 0, tag);
            Control::Yield
        })
    }

    #[test]
    fn round_robin_run_is_deterministic() {
        let build = || {
            let mut b = SimBuilder::new();
            for p in 0..3 {
                let pid = b.add_process(&format!("p{p}"));
                b.add_stepper(
                    pid,
                    "main",
                    Box::new(|ctx: &mut StepCtx<'_>| {
                        ctx.observe("t", 0, ctx.now() as i64);
                        Control::Yield
                    }),
                );
            }
            b.build()
        };
        let r1 = build().run(RunConfig::new(300, RoundRobin::new()));
        let r2 = build().run(RunConfig::new(300, RoundRobin::new()));
        r1.assert_no_panics();
        assert_eq!(r1.trace.steps, r2.trace.steps);
        assert_eq!(r1.trace.obs.len(), r2.trace.obs.len());
        assert_eq!(r1.trace.step_counts(3), vec![100, 100, 100]);
    }

    #[test]
    fn crash_stops_scheduling() {
        let mut b = SimBuilder::new();
        for p in 0..2 {
            let pid = b.add_process(&format!("p{p}"));
            b.add_stepper(pid, "main", spin());
        }
        let report = b
            .build()
            .run(RunConfig::new(100, RoundRobin::new()).crash(10, ProcId(1)));
        report.assert_no_panics();
        let counts = report.trace.step_counts(2);
        assert!(counts[1] <= 6, "crashed process kept stepping: {counts:?}");
        assert!(counts[0] >= 90);
        assert!(report.procs[1].crashed);
        assert_eq!(report.trace.crash_time(ProcId(1)), Some(10));
    }

    #[test]
    fn finished_tasks_are_skipped() {
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(p0, "short", counting(1));
        b.add_stepper(p0, "long", spin());
        let report = b.build().run(RunConfig::new(50, RoundRobin::new()));
        report.assert_no_panics();
        assert_eq!(report.procs[0].tasks[0].1, TaskOutcome::Finished);
        assert_eq!(report.procs[0].tasks[1].1, TaskOutcome::Halted);
        // All 50 steps were taken by p0 (its long task keeps running).
        assert_eq!(report.trace.step_counts(1), vec![50]);
    }

    #[test]
    fn tasks_of_one_process_rotate() {
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        for t in 0..2 {
            b.add_stepper(p0, &format!("t{t}"), tagger(t));
        }
        let report = b.build().run(RunConfig::new(10, RoundRobin::new()));
        report.assert_no_panics();
        let series = report.trace.obs_series(ProcId(0), "task", 0);
        let vals: Vec<i64> = series.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals.len(), 10);
        // strict alternation 0,1,0,1,...
        for w in vals.windows(2) {
            assert_ne!(w[0], w[1], "tasks must alternate: {vals:?}");
        }
    }

    #[test]
    fn panic_is_reported_not_propagated() {
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        let mut first = true;
        b.add_stepper(
            p0,
            "bad",
            Box::new(move |_: &mut StepCtx<'_>| {
                if first {
                    first = false;
                    return Control::Yield;
                }
                panic!("boom");
            }),
        );
        let p1 = b.add_process("p1");
        b.add_stepper(p1, "good", spin());
        let report = b.build().run(RunConfig::new(30, RoundRobin::new()));
        match &report.procs[0].tasks[0].1 {
            TaskOutcome::Panicked(m) => assert!(m.contains("boom")),
            o => panic!("expected panic outcome, got {o:?}"),
        }
        assert_eq!(report.procs[1].tasks[0].1, TaskOutcome::Halted);
    }

    #[test]
    fn scripted_schedule_is_followed() {
        let mut b = SimBuilder::new();
        for p in 0..2 {
            let pid = b.add_process(&format!("p{p}"));
            b.add_stepper(pid, "main", spin());
        }
        let script = vec![ProcId(1), ProcId(1), ProcId(0)];
        let report = b.build().run(RunConfig::new(9, Scripted::new(script)));
        let got: Vec<usize> = report.trace.steps.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![1, 1, 0, 1, 1, 0, 1, 1, 0]);
    }

    #[test]
    fn scripted_nonrunnable_decision_falls_back() {
        // A script naming a crashed process: the runner falls back to the
        // next runnable process at or after the named id, wrapping.
        let mut b = SimBuilder::new();
        for p in 0..3 {
            let pid = b.add_process(&format!("p{p}"));
            b.add_stepper(pid, "main", spin());
        }
        let report = b
            .build()
            .run(RunConfig::new(6, Scripted::new(vec![ProcId(1)])).crash(0, ProcId(1)));
        report.assert_no_panics();
        let got: Vec<usize> = report.trace.steps.iter().map(|p| p.0).collect();
        // Fallback from id 1 finds p2 first (1 is crashed), every slot.
        assert_eq!(got, vec![2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn stepper_tasks_run_without_threads() {
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(p0, "count", counting(5));
        let report = b.build().run(RunConfig::new(100, RoundRobin::new()));
        report.assert_no_panics();
        assert_eq!(report.procs[0].tasks[0].1, TaskOutcome::Finished);
        // 5 yields = 5 counted steps; the Done segment is not counted.
        assert_eq!(report.trace.len(), 5);
        assert_eq!(report.trace.obs_series(p0, "i", 0).len(), 5);
        // The final (Done) segment still gets to observe.
        assert_eq!(report.trace.last_value(p0, "final", 0), Some(-1));
    }

    /// Golden pins: digests of the same programs run as blocking closures
    /// on the thread-per-task backend this engine replaced. The steppers
    /// must take exactly the steps, and record exactly the observations,
    /// that the blocking reference did.
    #[test]
    fn steppers_reproduce_blocking_reference_digests() {
        // Five yields, then `Done` without a final observation.
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        let mut i = 0;
        b.add_stepper(
            p0,
            "s",
            Box::new(move |ctx: &mut StepCtx<'_>| {
                if i == 5 {
                    return Control::Done;
                }
                ctx.observe("i", 0, i);
                i += 1;
                Control::Yield
            }),
        );
        let r = b.build().run(RunConfig::new(100, RoundRobin::new()));
        assert_eq!(r.trace.digest(), 0xb8af_6766_da0a_19a7);

        // A finite task next to a spinner: the slot after the `Done`
        // segment goes to the other process.
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(p0, "m", counting(7));
        let p1 = b.add_process("p1");
        b.add_stepper(p1, "spin", spin());
        let r = b.build().run(RunConfig::new(40, RoundRobin::new()));
        assert_eq!(r.trace.len(), 39);
        assert_eq!(r.trace.digest(), 0x4638_37e4_b67c_1f9e);

        // Two tasks of one process rotate.
        let mut b = SimBuilder::new();
        let p0 = b.add_process("p0");
        b.add_stepper(p0, "t0", tagger(0));
        b.add_stepper(p0, "t1", tagger(1));
        let r = b.build().run(RunConfig::new(10, RoundRobin::new()));
        assert_eq!(r.trace.digest(), 0xee56_92e1_dc3f_4a2d);
    }

    #[test]
    fn run_ends_when_everyone_finishes() {
        let mut b = SimBuilder::new();
        for p in 0..2 {
            let pid = b.add_process(&format!("p{p}"));
            b.add_stepper(pid, "main", counting(5));
        }
        let report = b.build().run(RunConfig::new(10_000, RoundRobin::new()));
        report.assert_no_panics();
        assert!(report.trace.len() <= 12);
        for pr in &report.procs {
            assert_eq!(pr.tasks[0].1, TaskOutcome::Finished);
        }
    }
}
