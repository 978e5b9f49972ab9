//! B2 — activity-monitor cost: full deterministic runs of one `A(p, q)`
//! pair until (well past) status convergence.

use std::time::Duration;
use tbwf_bench::bench::Bench;
use tbwf_monitor::fig2::activity_monitor;
use tbwf_registers::RegisterFactory;
use tbwf_sim::schedule::RoundRobin;
use tbwf_sim::{ProcId, RunConfig, SimBuilder};

fn run_pair(steps: u64) {
    let factory = RegisterFactory::default();
    let pair = activity_monitor(&factory, ProcId(0), ProcId(1));
    pair.monitoring_side.monitoring.set(true);
    pair.monitored_side.active_for.set(true);
    let mut b = SimBuilder::new();
    let p0 = b.add_process("p0");
    b.add_stepper(
        p0,
        "monitoring",
        Box::new(pair.monitoring_side.into_stepper()),
    );
    let p1 = b.add_process("p1");
    b.add_stepper(
        p1,
        "monitored",
        Box::new(pair.monitored_side.into_stepper()),
    );
    let report = b.build().run(RunConfig::new(steps, RoundRobin::new()));
    report.assert_no_panics();
}

fn main() {
    let mut b = Bench::from_args("monitor", Duration::from_secs(8));
    b.header("one monitor pair, round-robin");
    for steps in [1_000u64, 4_000, 16_000] {
        b.run_work(format!("monitor-pair-run/{steps}"), steps, "steps", || {
            run_pair(steps)
        });
    }
    b.report();
}
