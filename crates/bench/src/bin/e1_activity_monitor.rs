//! **E1 — Activity monitor conformance** (Figure 2, Theorem 10).
//!
//! Sweeps the full input grid of `A(p, q)` — each of `monitoring_p[q]`
//! and `active-for_q[p]` eventually-on, eventually-off, or toggling
//! forever — against three behaviors of the monitored process `q`
//! (timely, not timely, crashing), and checks Properties 1–6 of
//! Definition 9 on every run.
//!
//! Expected result: no property is ever violated (`viol` column empty).

use tbwf_bench::print_table;
use tbwf_monitor::fig2::{activity_monitor, OBS_FAULT, OBS_STATUS};
use tbwf_monitor::props::{check_pair, CheckParams, PairRun};
use tbwf_registers::RegisterFactory;
use tbwf_sim::schedule::{GapGrowth, PartiallySynchronous, RoundRobin, Schedule};
use tbwf_sim::{Control, Local, ProcId, RunConfig, SimBuilder, StepCtx};

#[derive(Clone, Copy, Debug)]
enum InputScript {
    On,
    Off,
    Toggle,
}

impl InputScript {
    fn value_at(self, t: u64) -> bool {
        match self {
            InputScript::On => true,
            InputScript::Off => false,
            InputScript::Toggle => (t / 6_000).is_multiple_of(2),
        }
    }

    fn label(self) -> &'static str {
        match self {
            InputScript::On => "on",
            InputScript::Off => "off",
            InputScript::Toggle => "toggle",
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum QBehavior {
    Timely,
    Slow,
    Crash,
}

impl QBehavior {
    fn label(self) -> &'static str {
        match self {
            QBehavior::Timely => "timely",
            QBehavior::Slow => "slow",
            QBehavior::Crash => "crash",
        }
    }
}

fn add_input_driver(
    b: &mut SimBuilder,
    pid: ProcId,
    key: &'static str,
    idx: u32,
    cell: Local<bool>,
    script: InputScript,
) {
    let mut started = false;
    let driver = move |ctx: &mut StepCtx<'_>| {
        if !started {
            started = true;
            ctx.observe(key, idx, cell.get() as i64);
        }
        let v = script.value_at(ctx.now());
        if cell.get() != v {
            cell.set(v);
            ctx.observe(key, idx, v as i64);
        }
        Control::Yield
    };
    b.add_stepper(pid, "driver", Box::new(driver));
}

fn run_one(mon: InputScript, act: InputScript, beh: QBehavior, steps: u64) -> PairRun {
    let factory = RegisterFactory::default();
    let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
    let monitoring = pair.monitoring_side.monitoring.clone();
    let active_for = pair.monitored_side.active_for.clone();

    let mut b = SimBuilder::new();
    let p0 = b.add_process("p0");
    b.add_stepper(
        p0,
        "monitoring",
        Box::new(pair.monitoring_side.into_stepper()),
    );
    add_input_driver(&mut b, p0, "monitoring", 1, monitoring, mon);
    let p1 = b.add_process("p1");
    b.add_stepper(
        p1,
        "monitored",
        Box::new(pair.monitored_side.into_stepper()),
    );
    add_input_driver(&mut b, p1, "active_for", 0, active_for, act);

    // Linear gap growth: q is not timely (no fixed bound exists) but its
    // steps stay dense enough that "faultCntr increases without bound"
    // (Property 6) is visible in every window of a finite trace.
    let schedule: Box<dyn Schedule> = match beh {
        QBehavior::Slow => Box::new(PartiallySynchronous::with_growth(
            vec![ProcId(0)],
            4,
            GapGrowth::Linear(4),
        )),
        _ => Box::new(RoundRobin::new()),
    };
    let mut config = RunConfig {
        max_steps: steps,
        crashes: Vec::new(),
        schedule,
        nemesis: None,
    };
    if matches!(beh, QBehavior::Crash) {
        config = config.crash(steps / 4, ProcId(1));
    }
    let report = b.build().run(config);
    report.assert_no_panics();
    let trace = &report.trace;

    PairRun {
        total_time: trace.len() as u64,
        monitoring: trace.obs_series(ProcId(0), "monitoring", 1),
        active_for: trace.obs_series(ProcId(1), "active_for", 0),
        status: trace.obs_series(ProcId(0), OBS_STATUS, 1),
        fault: trace.obs_series(ProcId(0), OBS_FAULT, 1),
        q_crash: trace.crash_time(ProcId(1)),
        q_p_timely: matches!(beh, QBehavior::Timely),
        p_correct: true,
    }
}

fn main() {
    tbwf_bench::no_args(env!("CARGO_BIN_NAME"));
    let steps = 60_000;
    let scripts = [InputScript::On, InputScript::Off, InputScript::Toggle];
    let behaviors = [QBehavior::Timely, QBehavior::Slow, QBehavior::Crash];
    println!("E1: A(p,q) specification (Def. 9, Props 1-6) over the full input grid");
    println!("    {steps} steps per run, strongest register adversary\n");

    let mut rows = Vec::new();
    let mut violations = 0;
    for beh in behaviors {
        for mon in scripts {
            for act in scripts {
                let run = run_one(mon, act, beh, steps);
                let rep = check_pair(&run, CheckParams::default());
                let verd = [rep.p1, rep.p2, rep.p3, rep.p4, rep.p5, rep.p6];
                let cells: Vec<String> = verd
                    .iter()
                    .map(|v| {
                        match v {
                            tbwf_monitor::PropVerdict::NotApplicable => "-",
                            tbwf_monitor::PropVerdict::Holds => "ok",
                            tbwf_monitor::PropVerdict::Violated => "VIOL",
                        }
                        .to_string()
                    })
                    .collect();
                if !rep.all_ok() {
                    violations += 1;
                }
                let mut row = vec![
                    beh.label().to_string(),
                    mon.label().to_string(),
                    act.label().to_string(),
                ];
                row.extend(cells);
                row.push(format!("{:?}", rep.violations()));
                rows.push(row);
            }
        }
    }
    print_table(
        &[
            "q is",
            "monitoring",
            "active-for",
            "P1",
            "P2",
            "P3",
            "P4",
            "P5",
            "P6",
            "viol",
        ],
        &rows,
    );
    println!("\n{violations} run(s) with violations (paper predicts 0)");
    assert_eq!(violations, 0, "Definition 9 violated");
}
