//! `modelcheck`: the E13 bounded model checker over its full suite plus
//! the self-punishment ablation, each configuration checked through
//! `exec::check` on one executor (one worker per core, at most two).
//!
//! The seed is added to every configuration's `scenario.seed` (seed 0 is
//! the E13 suite itself); the leaf trees do not depend on it. Every leaf
//! is a short run replayed from t = 0, so this workload weighs the
//! per-run build, the prefix before the decision window, fingerprinting
//! and dedup — the costs a fork-at-the-window change would remove.
//!
//! `exec::check` does not expose per-leaf timing, so the latency metrics
//! come from a fixed one-in-eight sample of the leaves replayed through
//! `exec::run_leaf` on the same executor after the checks.

use std::collections::HashSet;
use std::time::Instant;

use tbwf_bench::gauntlet::ddmin;
use tbwf_bench::gauntlet::{Scenario, SystemKind};
use tbwf_check::config::CheckConfig;
use tbwf_check::enumerate::{enumerate, Leaf};
use tbwf_check::exec::{
    self, fingerprint, materialize, replay_counterexample, run_leaf, CHUNK_LEAVES,
};
use tbwf_check::report::{window_from_artifact, CheckReport, Counterexample};
use tbwf_check::suite::{ablation_config, suite, SuiteScale};
use tbwf_sim::{DecisionLog, Executor, Json, NemesisSchedule, ScriptedWindow, Tapped};

use crate::host;
use crate::instrument::{self, ratio, ExecutorUse, JobTime};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{Layers, Pass, Repro, Workload};

/// Leaves per configuration in suite order, then the ablation's.
pub const EXPECTED_LEAVES: [usize; 6] = [85, 399, 256, 64, 85, 256];

/// Leaves of each configuration run as warm-up in set-up.
const WARMUP_LEAVES: usize = 16;

/// One leaf in eight is replayed alone for the latency sample.
const SAMPLE_EVERY: usize = 8;

/// The workload's configurations for one seed: the full suite, then the
/// ablation.
pub fn configs(seed: u64) -> Vec<CheckConfig> {
    let mut out = suite(SuiteScale::Full);
    out.push(ablation_config(SuiteScale::Full));
    for cfg in &mut out {
        cfg.scenario.seed = cfg.scenario.seed.wrapping_add(seed);
    }
    out
}

fn is_ablation(cfg: &CheckConfig) -> bool {
    !cfg.scenario.self_punish
}

/// The modelcheck workload.
pub struct ModelCheck {
    seed: u64,
    executor: Executor,
    configs: Vec<CheckConfig>,
    leaves: Vec<Vec<Leaf>>,
    reports: Vec<CheckReport>,
    first_violating: Option<Leaf>,
}

impl ModelCheck {
    /// The workload for one seed on `jobs` workers.
    pub fn new(seed: u64, jobs: usize) -> ModelCheck {
        ModelCheck {
            seed,
            executor: Executor::new(jobs),
            configs: Vec::new(),
            leaves: Vec::new(),
            reports: Vec::new(),
            first_violating: None,
        }
    }

    fn ablation_index(&self) -> usize {
        self.configs.len() - 1
    }

    /// Failed runs of a batch: violating leaves of the healthy suite,
    /// plus one if the ablation was not detected or not shrunk to a
    /// reproducing counterexample.
    fn failed(&self, violating: &[usize], ablation_ok: bool) -> u64 {
        let healthy: usize = self
            .configs
            .iter()
            .zip(violating)
            .filter(|(cfg, _)| !is_ablation(cfg))
            .map(|(_, v)| v)
            .sum();
        healthy as u64 + u64::from(!ablation_ok)
    }

    /// The untraced pass: `exec::check` per configuration, then the
    /// latency sample.
    fn check_pass(&mut self) -> Pass {
        let cpu0 = host::process_cpu_ms();
        let start = Instant::now();
        let mut reports = Vec::new();
        let mut problems = Vec::new();
        for cfg in &self.configs {
            match exec::check(cfg, &self.executor) {
                Ok(r) => reports.push(r),
                Err(e) => problems.push(format!("{}: {e}", cfg.name)),
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_ms = host::process_cpu_ms() - cpu0;
        // The latency sample runs on the executor too, so that its leaves
        // see the same two-worker load as the checks.
        let sampled: Vec<(usize, usize)> = self
            .leaves
            .iter()
            .enumerate()
            .flat_map(|(c, leaves)| (0..leaves.len()).step_by(SAMPLE_EVERY).map(move |l| (c, l)))
            .collect();
        let timed = self.executor.run(sampled.len(), |k| {
            let (c, l) = sampled[k];
            let t = Instant::now();
            let lr = run_leaf(&self.configs[c], &self.leaves[c][l]);
            (t.elapsed().as_secs_f64() * 1e3, lr)
        });
        let mut sample = crate::stats::Digest::default();
        let mut run_ms = Vec::new();
        for (ms, lr) in timed {
            run_ms.push(ms);
            sample.u64(lr.fingerprint);
            sample.u64(lr.outcome.violations.len() as u64);
        }
        let leaves: usize = reports.iter().map(|r| r.stats.leaves).sum();
        let steps: u64 = reports
            .iter()
            .map(|r| r.stats.leaves as u64 * r.config.scenario.steps)
            .sum();
        let violating: Vec<usize> = reports.iter().map(|r| r.stats.violating).collect();
        let ablation_ok = reports.last().is_some_and(|r| {
            is_ablation(&r.config)
                && r.stats.violating > 0
                && r.counterexample
                    .as_ref()
                    .is_some_and(|c| !c.outcome.violations.is_empty())
        });
        let mut stats: Vec<String> = reports
            .iter()
            .map(|r| {
                let s = &r.stats;
                let mut d = crate::stats::Digest::default();
                d.str(&r.to_json().to_string_compact());
                format!(
                    "{}: leaves {} pruned {} distinct {} deduped {} violating {} report fnv {}",
                    r.config.name,
                    s.leaves,
                    s.pruned_branches,
                    s.distinct_states,
                    s.deduped,
                    s.violating,
                    d.hex()
                )
            })
            .collect();
        stats.push(format!("latency sample fnv {}", sample.hex()));
        let pass = Pass {
            wall_s,
            cpu_ms,
            run_ms,
            runs: leaves as u64,
            sim_steps: steps,
            attempted: leaves as u64,
            failed: self.failed(&violating, ablation_ok),
            stats,
            problems,
            ..Pass::default()
        };
        self.reports = reports;
        pass
    }

    /// The traced pass: every leaf replayed through the same schedule
    /// stack `run_leaf` builds, with the loop probe, the oracle replay
    /// and, for Figure 7 leaves, the register census.
    fn traced_pass(&mut self, tracer: &Tracer) -> Pass {
        let cpu0 = host::process_cpu_ms();
        let start = Instant::now();
        let mut counts = Layers::new();
        let mut problems = Vec::new();
        let mut violating = Vec::new();
        let mut stats = Vec::new();
        let mut run_ms = Vec::new();
        let mut used = ExecutorUse::default();
        let mut prefix = 0.0;
        let mut distinct_total = 0usize;
        let mut leaves_total = 0usize;
        let mut steps = 0u64;
        let mut first_job = 0usize;
        for (cfg, leaves) in self.configs.iter().zip(&self.leaves) {
            let chunks = leaves.len().div_ceil(CHUNK_LEAVES);
            let batch = Instant::now();
            let per_chunk = self.executor.run(chunks, |ci| {
                let t = Instant::now();
                let lo = ci * CHUNK_LEAVES;
                let hi = (lo + CHUNK_LEAVES).min(leaves.len());
                let mut c = Layers::new();
                let mut out = Vec::new();
                let mut diverged = 0usize;
                for (k, leaf) in leaves[lo..hi].iter().enumerate() {
                    let run = (first_job + lo + k) as u64;
                    let (fp, v, ms, ok) = traced_leaf(cfg, leaf, tracer, run, &mut c);
                    diverged += usize::from(!ok);
                    out.push((fp, v, ms));
                }
                (out, c, diverged, JobTime::since(t))
            });
            first_job += leaves.len();
            let mut in_order = crate::stats::Digest::default();
            let mut fps = HashSet::new();
            let mut v_count = 0usize;
            let mut jobs = Vec::new();
            for (out, c, diverged, job) in per_chunk {
                for (fp, v, ms) in out {
                    in_order.u64(fp);
                    fps.insert(fp);
                    v_count += usize::from(v > 0);
                    run_ms.push(ms);
                }
                for (k, x) in c {
                    *counts.entry(k).or_default() += x;
                }
                if diverged > 0 {
                    problems.push(format!("{}: {diverged} census rebuilds diverged", cfg.name));
                }
                jobs.push(job);
            }
            used.add(ExecutorUse::of(&jobs, self.executor.jobs(), batch));
            prefix += leaves.len() as f64 * cfg.window_start as f64 / cfg.scenario.steps as f64;
            distinct_total += fps.len();
            leaves_total += leaves.len();
            steps += leaves.len() as u64 * cfg.scenario.steps;
            violating.push(v_count);
            stats.push(format!(
                "{}: leaves {} distinct {} violating {v_count} fingerprints fnv {}",
                cfg.name,
                leaves.len(),
                fps.len(),
                in_order.hex()
            ));
        }
        let wall_s = start.elapsed().as_secs_f64();
        let ablation_ok = violating.last().is_some_and(|&v| v > 0);
        let conv_runs = counts.remove("convergence_runs").unwrap_or(0.0);
        let conv_sum = counts.remove("convergence_sum").unwrap_or(0.0);
        counts.insert("omega.convergence_step", ratio(conv_sum, conv_runs));
        counts.insert("check.leaves", leaves_total as f64);
        counts.insert(
            "check.distinct_frac",
            ratio(distinct_total as f64, leaves_total as f64),
        );
        counts.insert("check.prefix_frac", ratio(prefix, leaves_total as f64));
        instrument::finish_tbwf_counts(&mut counts);
        Pass {
            wall_s,
            cpu_ms: host::process_cpu_ms() - cpu0,
            run_ms,
            runs: leaves_total as u64,
            sim_steps: steps,
            attempted: leaves_total as u64,
            failed: self.failed(&violating, ablation_ok),
            stats,
            counts,
            timings: Layers::from([
                ("executor.busy_frac", used.busy_frac(self.executor.jobs())),
                ("executor.tail_ms", used.tail_ms),
            ]),
            problems,
        }
    }

    /// The ablation's first violating leaf in canonical order: the leaf
    /// `exec::check` shrinks into its counterexample.
    fn first_violating(&mut self) -> Option<Leaf> {
        if self.first_violating.is_none() {
            let i = self.ablation_index();
            let cfg = &self.configs[i];
            self.first_violating = self.leaves[i]
                .iter()
                .find(|leaf| !run_leaf(cfg, leaf).outcome.violations.is_empty())
                .cloned();
        }
        self.first_violating.clone()
    }
}

/// One traced leaf: `(fingerprint, violations, latency ms, census ok)`.
fn traced_leaf(
    cfg: &CheckConfig,
    leaf: &Leaf,
    tracer: &Tracer,
    run: u64,
    counts: &mut Layers,
) -> (u64, usize, f64, bool) {
    let sc = materialize(cfg, leaf);
    let w0 = cfg.window_start;
    let mut mk = |ctl| -> Box<dyn tbwf_sim::Schedule> {
        Box::new(Tapped::new(
            ScriptedWindow::new(w0, leaf.steps.clone(), NemesisSchedule::new(ctl)),
            DecisionLog::new(),
        ))
    };
    let span = tracer.open();
    let (outcome, report, timing) = instrument::timed_scenario(&sc, &mut mk);
    timing.record(tracer, span, run, "check.oracles");
    let fp = tracer.time(span, run, "check.fingerprint", || fingerprint(&sc, &report));
    tracer.close(span, 0, run, "check.leaf", timing.start);
    let ms = (Instant::now() - timing.start).as_secs_f64() * 1e3;
    instrument::count_trace(&report, timing.marks.decisions, counts);

    let replay = tracer.open();
    let t = Instant::now();
    if let Some(conv) = instrument::replay_oracles(&sc, &report, tracer, replay, run) {
        *counts.entry("convergence_sum").or_default() += conv as f64;
        *counts.entry("convergence_runs").or_default() += 1.0;
    }
    let mut ok = true;
    if sc.kind == SystemKind::Tbwf {
        ok = instrument::census(&sc, &report, &mut mk, tracer, replay, run, counts).is_ok();
    }
    tracer.close(replay, 0, run, "replay", t);
    (fp, outcome.violations.len(), ms, ok)
}

impl Workload for ModelCheck {
    fn setup(&mut self, tracer: Option<&Tracer>) {
        self.configs = configs(self.seed);
        self.leaves = self
            .configs
            .iter()
            .map(|cfg| {
                let t = Instant::now();
                let en = enumerate(cfg);
                if let Some(tr) = tracer {
                    tr.leaf(0, 0, "check.enumerate", t, Instant::now());
                }
                en.leaves
            })
            .collect();
        // Warm-up: the first leaves of every configuration.
        for (cfg, leaves) in self.configs.iter().zip(&self.leaves) {
            for leaf in leaves.iter().take(WARMUP_LEAVES) {
                std::hint::black_box(run_leaf(cfg, leaf).fingerprint);
            }
        }
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        match tracer {
            None => self.check_pass(),
            Some(tr) => self.traced_pass(tr),
        }
    }

    /// Shrinks the ablation's first violating leaf the way `exec::check`
    /// does (ddmin over its injection placements, every candidate run
    /// through `run_leaf`) into a counterexample artifact.
    fn repro(&mut self, tracer: Option<&Tracer>) -> Repro {
        let mut repro = Repro::default();
        let Some(leaf) = self.first_violating() else {
            repro.unshrunk = 1;
            return repro;
        };
        let cfg = &self.configs[self.ablation_index()];
        let t = Instant::now();
        let mut runs = 0u64;
        let mut violates = |inj: &[(usize, usize)]| {
            runs += 1;
            let cand = Leaf {
                steps: leaf.steps.clone(),
                injections: inj.to_vec(),
            };
            !run_leaf(cfg, &cand).outcome.violations.is_empty()
        };
        let min = Leaf {
            steps: leaf.steps.clone(),
            injections: ddmin(&leaf.injections, &mut violates),
        };
        let lr = run_leaf(cfg, &min);
        let cex = Counterexample {
            scenario: materialize(cfg, &min),
            window_start: cfg.window_start,
            script: min.steps.iter().map(|p| p.0).collect(),
            injections_placed: min.injections.len(),
            outcome: lr.outcome,
        };
        // Replay the artifact from its text, the way
        // `e13_model_check --repro` does.
        let replayed = Json::parse(&cex.to_json().to_string_pretty()).and_then(|j| {
            let (start, script) = window_from_artifact(&j)?;
            let sc = Scenario::from_json(j.get("scenario").ok_or("no scenario")?)?;
            Ok(!replay_counterexample(&sc, start, &script)
                .violations
                .is_empty())
        });
        repro.planned_s = t.elapsed().as_secs_f64();
        if let Some(tr) = tracer {
            tr.leaf(0, 0, "check.shrink", t, Instant::now());
        }
        repro.shrink_runs = runs;
        repro.unshrunk = u64::from(replayed != Ok(true));
        repro.artifacts.push(cex.to_json());
        repro
    }

    fn check(&mut self, first: &Pass, repro: &Repro) -> Vec<String> {
        let mut problems = Vec::new();
        let leaves: Vec<usize> = self.leaves.iter().map(Vec::len).collect();
        if leaves != EXPECTED_LEAVES {
            problems.push(format!(
                "leaf counts {leaves:?}, expected {EXPECTED_LEAVES:?}"
            ));
        }
        if let Some(report) = self.reports.last() {
            match &report.counterexample {
                Some(c) if c.injections_placed == 1 => {}
                other => problems.push(format!(
                    "ablation counterexample {:?} injections, expected 1",
                    other.as_ref().map(|c| c.injections_placed)
                )),
            }
            // The benchmark's shrink must reproduce the checker's own.
            let mine = repro.artifacts.first().map(Json::to_string_compact);
            let theirs = report
                .counterexample
                .as_ref()
                .map(|c| c.to_json().to_string_compact());
            if mine != theirs {
                problems.push("repro shrink differs from exec::check's counterexample".into());
            }
        }
        if first.stats.is_empty() {
            problems.push("no configuration was checked".into());
        }
        problems
    }

    fn layers(&self, tracer: &Tracer, repro: &Repro) -> Layers {
        Layers::from([
            ("check.shrink_runs", repro.shrink_runs as f64),
            (
                "check.enumerate_ms",
                tracer.durations("check.enumerate").iter().sum::<f64>(),
            ),
            ("check.leaf_ms", median(&tracer.durations("check.leaf"))),
        ])
    }
}
