//! `gauntlet`: the E12 nemesis campaigns as a closed batch.
//!
//! Inputs: `random_scenario(kind, seed + i)` for `i < PER_KIND` and each
//! of the four system kinds, kind-major (the Figure 7 campaigns, six
//! times longer than the rest, are queued last), then
//! `ablation_scenario(seed)`. The batch runs on one executor with one
//! worker per core (at most two); a worker takes its next campaign when
//! its last one ends, and each job is timed.
//!
//! `run_campaigns` shrinks a violating campaign inside its job. Here the
//! batch only runs the campaigns and the repro leg shrinks the violating
//! ones afterwards, so that a seed that happens to hit a defect does not
//! slow the batch it is measured on. The output check reassembles the
//! two halves and proves the result byte-identical to
//! `report_json(run_campaigns(..))` on a serial executor.

use std::time::Instant;

use tbwf_bench::gauntlet::{
    ablation_scenario, artifact_json, ddmin, random_scenario, report_json, run_campaigns,
    run_scenario, CampaignResult, Outcome, Scenario, SystemKind,
};
use tbwf_sim::{Executor, FaultEvent, FaultPlan, Json, NemesisSchedule};

use crate::host;
use crate::instrument::{self, ratio, ExecutorUse, JobTime};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{Layers, Pass, Repro, Workload};

/// Campaigns per system kind (the E12 default of 240 in total).
pub const PER_KIND: u64 = 60;

/// Campaigns of each kind run as warm-up in set-up.
const WARMUP_PER_KIND: u64 = 4;

/// The workload's inputs for one seed.
pub fn scenarios(seed: u64, per_kind: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for kind in SystemKind::ALL {
        for i in 0..per_kind {
            out.push(random_scenario(kind, seed.wrapping_add(i)));
        }
    }
    out.push(ablation_scenario(seed));
    out
}

/// `gauntlet::shrink`, counting the runs ddmin makes.
pub fn shrink_counted(sc: &Scenario) -> (Scenario, u64) {
    let mut runs = 0u64;
    let mut violates = |events: &[FaultEvent]| -> bool {
        runs += 1;
        let mut cand = sc.clone();
        cand.plan = FaultPlan {
            events: events.to_vec(),
        };
        !run_scenario(&cand).violations.is_empty()
    };
    let mut min = sc.clone();
    min.plan = FaultPlan {
        events: ddmin(&sc.plan.events, &mut violates),
    };
    (min, runs)
}

/// A repro artifact that has been shrunk, written out and replayed.
pub struct Repro1 {
    /// The artifact.
    pub artifact: Json,
    /// Runs ddmin made.
    pub runs: u64,
    /// The shrunk plan is smaller than the original, and replaying the
    /// artifact, parsed back from its text, still violates.
    pub shrank: bool,
}

/// Shrinks a violating scenario into a repro artifact and replays the
/// artifact from its text, the way `e12_gauntlet --repro` would.
pub fn shrink_and_replay(sc: &Scenario) -> Repro1 {
    let (min, runs) = shrink_counted(sc);
    let out = run_scenario(&min);
    let artifact = artifact_json(&min, &out);
    let replayed = Json::parse(&artifact.to_string_pretty())
        .and_then(|j| Scenario::from_json(j.get("scenario").unwrap_or(&j)))
        .map(|back| !run_scenario(&back).violations.is_empty());
    Repro1 {
        shrank: min.plan.events.len() < sc.plan.events.len() && replayed == Ok(true),
        artifact,
        runs,
    }
}

fn is_ablation(sc: &Scenario) -> bool {
    !sc.self_punish
}

/// Whether a campaign's run counts as failed: any violation, except on
/// the planned ablation, which fails if it is *not* detected. (An
/// ablation that does not shrink is counted by the repro leg.)
pub fn campaign_failed(sc: &Scenario, out: &Outcome) -> bool {
    is_ablation(sc) == out.violations.is_empty()
}

/// The digest lines of a batch: its campaigns' outcomes.
pub fn stats(scenarios: &[Scenario], outcomes: &[Outcome]) -> Vec<String> {
    let steps: u64 = scenarios.iter().map(|sc| sc.steps).sum();
    let injections: usize = outcomes.iter().map(|o| o.injections.len()).sum();
    let violating = outcomes.iter().filter(|o| !o.violations.is_empty()).count();
    let results: Vec<CampaignResult> = scenarios
        .iter()
        .zip(outcomes)
        .map(|(sc, o)| CampaignResult {
            scenario: sc.clone(),
            outcome: o.clone(),
            shrunk: None,
        })
        .collect();
    vec![
        format!("campaigns {}", scenarios.len()),
        format!("steps {steps}"),
        format!("injections fired {injections}"),
        format!("violating {violating}"),
        format!("outcomes fnv {}", report_fnv(&results)),
    ]
}

fn report_fnv(results: &[CampaignResult]) -> String {
    let mut d = crate::stats::Digest::default();
    d.str(&report_json(results).to_string_compact());
    d.hex()
}

/// Median length of the traced repro legs' planned-ablation shrinks.
pub fn shrink_ms(tracer: &Tracer) -> f64 {
    median(&tracer.durations("gauntlet.shrink"))
}

/// The gauntlet workload.
pub struct Gauntlet {
    seed: u64,
    per_kind: u64,
    executor: Executor,
    scenarios: Vec<Scenario>,
    outcomes: Vec<Outcome>,
    /// Shrunk repros of the unexpected violations, by campaign index
    /// (computed once; they do not change between legs).
    defects: Option<Vec<(usize, Scenario, Outcome)>>,
}

impl Gauntlet {
    /// A gauntlet of `per_kind` campaigns per kind on `jobs` workers.
    pub fn new(seed: u64, per_kind: u64, jobs: usize) -> Gauntlet {
        Gauntlet {
            seed,
            per_kind,
            executor: Executor::new(jobs),
            scenarios: Vec::new(),
            outcomes: Vec::new(),
            defects: None,
        }
    }

    fn finish_pass(&mut self, wall: Instant, cpu0: f64, results: Vec<(Outcome, f64)>) -> Pass {
        let wall_s = wall.elapsed().as_secs_f64();
        let cpu_ms = host::process_cpu_ms() - cpu0;
        let (outcomes, run_ms): (Vec<Outcome>, Vec<f64>) = results.into_iter().unzip();
        let failed = self
            .scenarios
            .iter()
            .zip(&outcomes)
            .filter(|(sc, o)| campaign_failed(sc, o))
            .count() as u64;
        let pass = Pass {
            wall_s,
            cpu_ms,
            runs: outcomes.len() as u64,
            sim_steps: self.scenarios.iter().map(|sc| sc.steps).sum(),
            attempted: outcomes.len() as u64,
            failed,
            stats: stats(&self.scenarios, &outcomes),
            run_ms,
            ..Pass::default()
        };
        self.outcomes = outcomes;
        pass
    }

    fn traced_job(&self, i: usize, tracer: &Tracer, counts: &mut Layers) -> Outcome {
        let sc = &self.scenarios[i];
        let run = i as u64;
        let job = tracer.open();
        let start = Instant::now();
        let campaign = tracer.open();
        let (outcome, report, timing) =
            instrument::timed_scenario(sc, &mut |ctl| Box::new(NemesisSchedule::new(ctl)));
        timing.record(tracer, campaign, run, "gauntlet.oracles");
        tracer.close(campaign, job, run, "campaign", timing.start);
        instrument::count_trace(&report, timing.marks.decisions, counts);
        *counts.entry("call_s").or_default() += timing.call_s();
        *counts.entry("after_loop_s").or_default() += timing.after_loop_s();

        let replay = tracer.open();
        let t = Instant::now();
        if let Some(conv) = instrument::replay_oracles(sc, &report, tracer, replay, run) {
            *counts.entry("convergence_sum").or_default() += conv as f64;
            *counts.entry("convergence_runs").or_default() += 1.0;
        }
        if sc.kind == SystemKind::Tbwf {
            let mut mk =
                |ctl| -> Box<dyn tbwf_sim::Schedule> { Box::new(NemesisSchedule::new(ctl)) };
            if let Err(e) = instrument::census(sc, &report, &mut mk, tracer, replay, run, counts) {
                *counts.entry("census.diverged").or_default() += 1.0;
                eprintln!("gauntlet: {e}");
            }
        }
        tracer.close(replay, job, run, "replay", t);
        tracer.close(job, 0, run, "executor.job", start);
        outcome
    }

    fn violating(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.outcomes.len()).filter(|&i| !self.outcomes[i].violations.is_empty())
    }
}

impl Workload for Gauntlet {
    fn setup(&mut self, tracer: Option<&Tracer>) {
        let t = Instant::now();
        self.scenarios = scenarios(self.seed, self.per_kind);
        if let Some(tr) = tracer {
            tr.leaf(0, 0, "gauntlet.gen", t, Instant::now());
        }
        // Warm-up: the same few campaigns of each kind for every seed, so
        // that set-up time does not depend on the seed's mix of sizes.
        let warm = scenarios(0, WARMUP_PER_KIND.min(self.per_kind));
        self.executor.run(warm.len(), |i| run_scenario(&warm[i]));
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let cpu0 = host::process_cpu_ms();
        let wall = Instant::now();
        let Some(tracer) = tracer else {
            let results = self.executor.run(self.scenarios.len(), |i| {
                let t = Instant::now();
                let outcome = run_scenario(&self.scenarios[i]);
                (outcome, t.elapsed().as_secs_f64() * 1e3)
            });
            return self.finish_pass(wall, cpu0, results);
        };
        let per_job: Vec<(Outcome, f64, Layers, JobTime)> =
            self.executor.run(self.scenarios.len(), |i| {
                let t = Instant::now();
                let mut counts = Layers::new();
                let out = self.traced_job(i, tracer, &mut counts);
                (
                    out,
                    t.elapsed().as_secs_f64() * 1e3,
                    counts,
                    JobTime::since(t),
                )
            });
        let mut counts = Layers::new();
        let mut results = Vec::new();
        let mut jobs = Vec::new();
        for (out, ms, c, job) in per_job {
            for (k, v) in c {
                *counts.entry(k).or_default() += v;
            }
            results.push((out, ms));
            jobs.push(job);
        }
        let mut pass = self.finish_pass(wall, cpu0, results);
        let used = ExecutorUse::of(&jobs, self.executor.jobs(), wall);
        let call_s = counts.remove("call_s").unwrap_or(0.0);
        let after_loop_s = counts.remove("after_loop_s").unwrap_or(0.0);
        pass.timings = Layers::from([
            ("executor.busy_frac", used.busy_frac(self.executor.jobs())),
            ("executor.tail_ms", used.tail_ms),
            ("gauntlet.oracle_frac", ratio(after_loop_s, call_s)),
        ]);
        let conv_runs = counts.remove("convergence_runs").unwrap_or(0.0);
        let conv_sum = counts.remove("convergence_sum").unwrap_or(0.0);
        counts.insert("omega.convergence_step", ratio(conv_sum, conv_runs));
        if let Some(n) = counts.remove("census.diverged") {
            pass.problems.push(format!(
                "{n} census rebuilds diverged from the measured runs"
            ));
        }
        instrument::finish_tbwf_counts(&mut counts);
        pass.counts = counts;
        pass
    }

    /// Shrinks the planned ablation (timed as `repro_s`) and, once, every
    /// unexpected violation of the batch (timed apart), into artifacts.
    fn repro(&mut self, tracer: Option<&Tracer>) -> Repro {
        let mut repro = Repro::default();
        let ablation = self.scenarios.len() - 1;
        if !self.outcomes[ablation].violations.is_empty() {
            let t = Instant::now();
            let r = shrink_and_replay(&self.scenarios[ablation]);
            repro.planned_s = t.elapsed().as_secs_f64();
            if let Some(tr) = tracer {
                tr.leaf(0, 0, "gauntlet.shrink", t, Instant::now());
            }
            repro.shrink_runs = r.runs;
            repro.unshrunk = u64::from(!r.shrank);
            repro.artifacts.push(r.artifact);
        }
        let t = Instant::now();
        if self.defects.is_none() {
            let found: Vec<usize> = self.violating().filter(|&i| i != ablation).collect();
            let shrunk = found
                .into_iter()
                .map(|i| {
                    let (min, _) = shrink_counted(&self.scenarios[i]);
                    let out = run_scenario(&min);
                    (i, min, out)
                })
                .collect();
            self.defects = Some(shrunk);
            repro.unplanned_s = t.elapsed().as_secs_f64();
        }
        for (_, min, out) in self.defects.iter().flatten() {
            repro.artifacts.push(artifact_json(min, out));
        }
        repro
    }

    fn check(&mut self, _first: &Pass, _repro: &Repro) -> Vec<String> {
        // Reassemble `run_campaigns`' result: outcomes from the batch,
        // shrunk plans from the repro leg.
        let ablation = self.scenarios.len() - 1;
        let mut shrunk: Vec<Option<(Scenario, Outcome)>> = vec![None; self.scenarios.len()];
        if !self.outcomes[ablation].violations.is_empty() {
            let (min, _) = shrink_counted(&self.scenarios[ablation]);
            let out = run_scenario(&min);
            shrunk[ablation] = Some((min, out));
        }
        for (i, min, out) in self.defects.iter().flatten() {
            shrunk[*i] = Some((min.clone(), out.clone()));
        }
        let mine: Vec<CampaignResult> = self
            .scenarios
            .iter()
            .zip(&self.outcomes)
            .zip(shrunk)
            .map(|((sc, o), s)| CampaignResult {
                scenario: sc.clone(),
                outcome: o.clone(),
                shrunk: s,
            })
            .collect();
        let serial = run_campaigns(&self.scenarios, &Executor::new(1));
        if report_fnv(&mine) == report_fnv(&serial) {
            Vec::new()
        } else {
            vec!["batch report differs from a serial run_campaigns".to_string()]
        }
    }

    fn layers(&self, tracer: &Tracer, repro: &Repro) -> Layers {
        Layers::from([
            ("gauntlet.gen_ms", median(&tracer.durations("gauntlet.gen"))),
            ("gauntlet.shrink_ms", shrink_ms(tracer)),
            ("gauntlet.shrink_runs", repro.shrink_runs as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 7 campaigns the gauntlet generator makes for these seeds
    /// violate `timely-progress`: a timely process is starved after the
    /// settle point. They must count as failed runs and be shrunk into
    /// repro artifacts, whichever seed range they fall into.
    #[test]
    fn known_defect_campaigns_count_as_failed_and_shrink() {
        for (seed, per_kind, defects) in [
            (777_032, 1, vec![777_032]),
            (2007, 9, vec![2007, 2015]),
            (5054, 1, vec![5054]),
        ] {
            let mut g = Gauntlet::new(seed, per_kind, 2);
            g.setup(None);
            let pass = g.pass(None);
            let tbwf: Vec<u64> = g
                .scenarios
                .iter()
                .zip(&g.outcomes)
                .filter(|(sc, o)| sc.self_punish && !o.violations.is_empty())
                .inspect(|(sc, o)| {
                    assert_eq!(sc.kind, SystemKind::Tbwf);
                    assert!(o
                        .violations
                        .iter()
                        .all(|v| v.invariant == "timely-progress"));
                })
                .map(|(sc, _)| sc.seed)
                .collect();
            assert_eq!(tbwf, defects, "seed {seed}");
            // The ablation is detected, so only the defects fail.
            assert_eq!(pass.failed, defects.len() as u64, "seed {seed}");
            assert_eq!(pass.attempted, 4 * per_kind + 1);

            let repro = g.repro(None);
            assert_eq!(repro.unshrunk, 0);
            assert!(repro.planned_s > 0.0);
            assert!(repro.unplanned_s > 0.0);
            assert_eq!(repro.artifacts.len(), 1 + defects.len());
            assert!(g.check(&pass, &repro).is_empty());
        }
    }

    /// The shrink of seed 777032 keeps three events: a mid-operation
    /// crash of p0, then a demotion and a promotion of p1.
    #[test]
    fn defect_777032_shrinks_to_three_events() {
        let sc = random_scenario(SystemKind::Tbwf, 777_032);
        let (min, runs) = shrink_counted(&sc);
        assert!(runs > 1);
        assert_eq!(min.plan.events.len(), 3, "{:?}", min.plan);
        let plan = min.plan.to_json().to_string_compact();
        for part in ["on_gauge", "\"crash\":0", "\"demote\":1", "\"promote\":1"] {
            assert!(plan.contains(part), "{part} not in {plan}");
        }
        assert!(!run_scenario(&min).violations.is_empty());
    }

    #[test]
    fn shrink_counted_matches_the_gauntlet_shrink() {
        let sc = ablation_scenario(3);
        let (min, _) = shrink_counted(&sc);
        assert_eq!(min.plan, tbwf_bench::gauntlet::shrink(&sc).plan);
    }
}
