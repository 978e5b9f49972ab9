//! Integration tests: activity-monitor specification (Definition 9) on
//! full simulated runs — the assertion form of experiment E1.

use std::sync::Arc;
use tbwf::prelude::*;
use tbwf_monitor::fig2::{activity_monitor, OBS_FAULT, OBS_STATUS};
use tbwf_monitor::props::{check_pair, CheckParams, PairRun};
use tbwf_sim::schedule::GapGrowth;

struct PairSetup {
    monitoring_on: bool,
    active_on: bool,
    q_timely: bool,
    q_crash_at: Option<u64>,
    steps: u64,
}

/// `inner`, with the (constant) input `key[idx] = on` observed at the
/// start of its first step.
fn input_first(
    key: &'static str,
    idx: u32,
    on: bool,
    mut inner: impl Stepper + 'static,
) -> Box<dyn Stepper> {
    let mut first = true;
    Box::new(move |ctx: &mut StepCtx<'_>| {
        if std::mem::take(&mut first) {
            ctx.observe(key, idx, on as i64);
        }
        inner.step(ctx)
    })
}

fn run_pair(s: PairSetup) -> PairRun {
    let factory = RegisterFactory::default();
    let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
    pair.monitoring_side.monitoring.set(s.monitoring_on);
    pair.monitored_side.active_for.set(s.active_on);

    let mut b = SimBuilder::new();
    let p0 = b.add_process("p0");
    let ms = pair.monitoring_side.into_stepper();
    b.add_stepper(
        p0,
        "monitoring",
        input_first("monitoring", 1, s.monitoring_on, ms),
    );
    let p1 = b.add_process("p1");
    let md = pair.monitored_side.into_stepper();
    b.add_stepper(
        p1,
        "monitored",
        input_first("active_for", 0, s.active_on, md),
    );

    let schedule: Box<dyn tbwf_sim::Schedule> = if s.q_timely {
        Box::new(RoundRobin::new())
    } else {
        Box::new(PartiallySynchronous::with_growth(
            vec![ProcId(0)],
            4,
            GapGrowth::Linear(4),
        ))
    };
    let mut cfg = RunConfig {
        max_steps: s.steps,
        crashes: Vec::new(),
        schedule,
        nemesis: None,
    };
    if let Some(t) = s.q_crash_at {
        cfg = cfg.crash(t, ProcId(1));
    }
    let report = b.build().run(cfg);
    report.assert_no_panics();
    let trace = &report.trace;
    let _ = Arc::strong_count(&factory.log());
    PairRun {
        total_time: trace.len() as u64,
        monitoring: trace.obs_series(ProcId(0), "monitoring", 1),
        active_for: trace.obs_series(ProcId(1), "active_for", 0),
        status: trace.obs_series(ProcId(0), OBS_STATUS, 1),
        fault: trace.obs_series(ProcId(0), OBS_FAULT, 1),
        q_crash: trace.crash_time(ProcId(1)),
        q_p_timely: s.q_timely && s.q_crash_at.is_none(),
        p_correct: true,
    }
}

#[test]
fn timely_active_q_satisfies_all_properties() {
    let run = run_pair(PairSetup {
        monitoring_on: true,
        active_on: true,
        q_timely: true,
        q_crash_at: None,
        steps: 50_000,
    });
    let rep = check_pair(&run, CheckParams::default());
    assert!(rep.all_ok(), "violations: {:?}", rep.violations());
    // Property 4 must be *applicable* here, not just vacuous.
    assert_eq!(rep.p4, tbwf_monitor::PropVerdict::Holds);
    assert_eq!(rep.p5, tbwf_monitor::PropVerdict::Holds);
}

#[test]
fn non_timely_q_grows_fault_counter_without_bound() {
    let run = run_pair(PairSetup {
        monitoring_on: true,
        active_on: true,
        q_timely: false,
        q_crash_at: None,
        steps: 60_000,
    });
    let rep = check_pair(&run, CheckParams::default());
    assert_eq!(
        rep.p6,
        tbwf_monitor::PropVerdict::Holds,
        "P6 must hold and apply"
    );
    assert!(rep.all_ok(), "violations: {:?}", rep.violations());
}

#[test]
fn crashed_q_is_eventually_inactive_with_bounded_faults() {
    let run = run_pair(PairSetup {
        monitoring_on: true,
        active_on: true,
        q_timely: true,
        q_crash_at: Some(10_000),
        steps: 60_000,
    });
    let rep = check_pair(&run, CheckParams::default());
    assert_eq!(rep.p3, tbwf_monitor::PropVerdict::Holds);
    assert_eq!(rep.p5, tbwf_monitor::PropVerdict::Holds);
    assert!(rep.all_ok(), "violations: {:?}", rep.violations());
}

#[test]
fn monitoring_off_keeps_status_unknown_forever() {
    let run = run_pair(PairSetup {
        monitoring_on: false,
        active_on: true,
        q_timely: true,
        q_crash_at: None,
        steps: 30_000,
    });
    let rep = check_pair(&run, CheckParams::default());
    assert_eq!(rep.p1, tbwf_monitor::PropVerdict::Holds);
    assert!(
        run.fault.len() <= 1,
        "faultCntr must stay 0 while not monitoring"
    );
}
