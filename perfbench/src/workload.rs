//! What every workload provides to `main`'s measuring loops, and the
//! per-layer metric names all of them report.

use std::collections::BTreeMap;

use tbwf_sim::Json;

use crate::spans::Tracer;

/// The per-layer metrics of a traced run, with units. Every workload
/// reports all of them; a layer a workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 32] = [
    ("runner.build_ms", "ms"),
    ("runner.step_ns", "ns"),
    ("runner.teardown_ms", "ms"),
    ("runner.steps", "count"),
    ("runner.obs", "count"),
    ("schedule.decisions", "count"),
    ("nemesis.injections", "count"),
    ("trace.query_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("timeliness.ms", "ms"),
    ("executor.busy_frac", "frac"),
    ("executor.tail_ms", "ms"),
    ("registers.ops", "count"),
    ("registers.ops_per_step", "1/step"),
    ("registers.abort_frac", "frac"),
    ("registers.solo_op_ns", "ns"),
    ("monitor.props_ms", "ms"),
    ("omega.spec_ms", "ms"),
    ("omega.convergence_step", "step"),
    ("tbwf.ops_completed", "count"),
    ("tbwf.steps_per_op", "step"),
    ("linearize.ms", "ms"),
    ("gauntlet.gen_ms", "ms"),
    ("gauntlet.oracle_frac", "frac"),
    ("gauntlet.shrink_runs", "count"),
    ("gauntlet.shrink_ms", "ms"),
    ("check.enumerate_ms", "ms"),
    ("check.leaves", "count"),
    ("check.distinct_frac", "frac"),
    ("check.leaf_ms", "ms"),
    ("check.prefix_frac", "frac"),
    ("check.shrink_runs", "count"),
];

/// Per-layer values, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One fixed batch of work: every pass of a run executes the same
/// inputs, so every pass must produce the same digest.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall time of the measured part of the pass, seconds.
    pub wall_s: f64,
    /// Process CPU time of the measured part of the pass, milliseconds.
    pub cpu_ms: f64,
    /// Latency of each run (campaign, leaf or scale run), ms.
    pub run_ms: Vec<f64>,
    /// Runs the pass completed (campaigns, leaves or scale runs).
    pub runs: u64,
    /// Simulated global steps the pass's runs took.
    pub sim_steps: u64,
    /// Runs attempted, for failure accounting.
    pub attempted: u64,
    /// Runs that failed: unexpected violations, panics, no leader, or a
    /// planned ablation that was not detected or did not shrink.
    pub failed: u64,
    /// The simulated statistics behind the digest, one per line.
    pub stats: Vec<String>,
    /// Counts a traced pass measured; they repeat exactly for a seed.
    pub counts: Layers,
    /// Per-pass timings a traced pass measured (medians over passes are
    /// reported).
    pub timings: Layers,
    /// Output checks that failed during the pass.
    pub problems: Vec<String>,
}

impl Pass {
    /// FNV-1a digest of [`Pass::stats`].
    pub fn digest(&self) -> String {
        let mut d = crate::stats::Digest::default();
        for line in &self.stats {
            d.str(line);
        }
        d.hex()
    }
}

/// The result of shrinking a workload's violating runs.
#[derive(Clone, Debug, Default)]
pub struct Repro {
    /// Self-contained repro artifacts, one per violating run.
    pub artifacts: Vec<Json>,
    /// Runs the shrinker executed.
    pub shrink_runs: u64,
    /// Wall time to shrink the planned ablation into its artifact,
    /// seconds: the `repro_s` sample.
    pub planned_s: f64,
    /// Wall time to shrink the batch's unexpected violations, seconds.
    pub unplanned_s: f64,
    /// 1 if the planned ablation did not shrink to a smaller violating
    /// plan; it then counts as one failed run.
    pub unshrunk: u64,
}

/// A benchmark workload.
pub trait Workload {
    /// Generates the inputs and warms up. Called several times; the
    /// fastest call is reported as `setup_s`.
    fn setup(&mut self, tracer: Option<&Tracer>);

    /// Runs the fixed batch once, with spans when `tracer` is set.
    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass;

    /// ddmin-shrinks the batch's violating runs into repro artifacts.
    fn repro(&mut self, tracer: Option<&Tracer>) -> Repro;

    /// Checks the outputs of the first pass and of the repro leg;
    /// returns what failed.
    fn check(&mut self, first: &Pass, repro: &Repro) -> Vec<String>;

    /// Per-layer values only this workload measures, from the spans of
    /// a traced run and its repro leg. `main` adds the shared ones and
    /// the counts of [`Pass::counts`].
    fn layers(&self, tracer: &Tracer, repro: &Repro) -> Layers;
}
