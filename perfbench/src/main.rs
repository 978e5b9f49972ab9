//! The repository benchmark: three seeded workloads over the TBWF
//! reproduction, end-to-end metrics from an untraced run, per-layer
//! metrics from a traced one. See `perfbench/BENCHMARK.md`.
//!
//! ```text
//! perfbench --workload gauntlet|modelcheck|scale64 --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when an output or digest check fails.

mod cli;
mod gauntlet;
mod host;
mod instrument;
mod modelcheck;
mod probe;
mod scale64;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tbwf_sim::Json;

use crate::cli::Args;
use crate::host::Host;
use crate::spans::Tracer;
use crate::stats::{median, tail};
use crate::workload::{Layers, Pass, Repro, Workload, LAYER_METRICS};

/// The traced run repeats its repro leg this often.
const REPEATS: usize = 5;

/// Repro legs after each untraced pass (a leg takes tens of
/// milliseconds, so the fastest of several is the least disturbed).
const REPRO_LEGS_PER_PASS: usize = 3;

/// Where records, spans and repro artifacts go, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

fn workload(args: &Args, host: &Host) -> Box<dyn Workload> {
    match args.workload.as_str() {
        "gauntlet" => Box::new(gauntlet::Gauntlet::new(
            args.seed,
            gauntlet::PER_KIND,
            host.jobs(),
        )),
        "modelcheck" => Box::new(modelcheck::ModelCheck::new(args.seed, host.jobs())),
        _ => Box::new(scale64::Scale64::new(args.seed)),
    }
}

/// A metric as printed: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// What one invocation measured.
struct Measured {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: String,
    stats: Vec<String>,
    notes: Vec<(&'static str, Json)>,
    artifacts: Vec<Json>,
}

/// Checks that every pass of one mode produced the first pass's digest
/// and failure counts.
fn same_digest(passes: &[Pass], what: &str, problems: &mut Vec<String>) {
    if let Some(first) = passes.first() {
        let d = first.digest();
        let odd = passes.iter().filter(|p| p.digest() != d).count();
        if odd > 0 {
            problems.push(format!("{odd} {what} passes changed the digest"));
        }
        let counts = (first.attempted, first.failed);
        let odd = passes
            .iter()
            .filter(|p| (p.attempted, p.failed) != counts)
            .count();
        if odd > 0 {
            problems.push(format!("{odd} {what} passes changed the failure counts"));
        }
    }
}

/// The result line's `attempted` and `failed`: the runs of the fixed
/// batch, each counted once. Passes repeat the same inputs (the digest
/// check proves it), so the counts depend on the workload and seed and
/// not on how many passes fit into the run.
fn failure_counts(first: &Pass, repro: &Repro) -> (u64, u64) {
    (first.attempted, first.failed + repro.unshrunk)
}

/// Runs the traced repro leg [`REPEATS`] times and returns the last.
fn repro_legs(w: &mut dyn Workload, tracer: &Tracer) -> Repro {
    let mut last = Repro::default();
    for _ in 0..REPEATS {
        last = w.repro(Some(tracer));
    }
    last
}

/// The untraced run: end-to-end metrics.
///
/// Set-up, then passes until `seconds` have gone by, each pass followed
/// by repro legs and another set-up, so that all three are sampled over
/// the same stretch of host time. Every timing is the best of its
/// repeats: the repeats run the same inputs, and on a shared host the
/// other tenants only ever slow a repeat down, in phases that last
/// seconds to tens of seconds. The best repeat is the least disturbed
/// one, and it varies far less from run to run than the median.
fn end_to_end(w: &mut dyn Workload, seconds: f64) -> Measured {
    let mut setup = vec![timed(|| w.setup(None))];
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut legs: Vec<Repro> = Vec::new();
    let mut peak_rss = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        passes.push(w.pass(None));
        if passes.len() == 1 {
            // Later passes repeat the same work; what they add to the
            // high-water mark is allocator fragmentation.
            peak_rss = host::peak_rss_mb();
        }
        for _ in 0..REPRO_LEGS_PER_PASS {
            legs.push(w.repro(None));
        }
        setup.push(timed(|| w.setup(None)));
    }
    let repro = legs.pop().expect("at least one repro leg ran");

    let mut problems: Vec<String> = passes.iter().flat_map(|p| p.problems.clone()).collect();
    same_digest(&passes, "untraced", &mut problems);
    problems.extend(w.check(&passes[0], &repro));

    // Every pass does the same work, so the fastest pass is the one
    // with the highest rates.
    let fastest = passes
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one pass ran");
    let cpu: Vec<f64> = passes.iter().map(|p| p.cpu_ms / p.runs as f64).collect();
    let run_ms = latency_samples(&passes);
    let (tail_pct, tail_ms) = tail(&run_ms);
    let planned: Vec<f64> = legs.iter().chain([&repro]).map(|r| r.planned_s).collect();
    let defect_s = legs.first().unwrap_or(&repro).unplanned_s;
    let (attempted, failed) = failure_counts(&passes[0], &repro);
    Measured {
        metrics: vec![
            ("runs_per_s", "1/s", fastest.runs as f64 / fastest.wall_s),
            (
                "sim_steps_per_s",
                "1/s",
                fastest.sim_steps as f64 / fastest.wall_s,
            ),
            ("run_ms_p50", "ms", median(&run_ms)),
            ("run_ms_tail", "ms", tail_ms),
            ("cpu_ms_per_run", "ms", min(&cpu)),
            ("setup_s", "s", min(&setup)),
            ("repro_s", "s", min(&planned)),
            ("peak_rss_mb", "MiB", peak_rss),
        ],
        attempted,
        failed,
        problems,
        digest: passes[0].digest(),
        stats: passes[0].stats.clone(),
        notes: vec![
            ("passes", Json::Int(passes.len() as i128)),
            ("run_ms_samples", Json::Int(run_ms.len() as i128)),
            ("run_ms_tail_percentile", Json::Float(tail_pct)),
            ("failed_frac", Json::Float(failed as f64 / attempted as f64)),
            ("repro_artifacts", Json::Int(repro.artifacts.len() as i128)),
            ("defect_repro_s", Json::Float(defect_s)),
            (
                "pass_wall_s",
                Json::Arr(passes.iter().map(|p| Json::Float(p.wall_s)).collect()),
            ),
        ],
        artifacts: repro.artifacts,
    }
}

/// One latency sample per run of the batch: that run's best latency
/// over the passes, which repeat the same inputs.
fn latency_samples(passes: &[Pass]) -> Vec<f64> {
    (0..passes[0].run_ms.len())
        .map(|i| min(&passes.iter().map(|p| p.run_ms[i]).collect::<Vec<_>>()))
        .collect()
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The traced run: per-layer metrics. Untraced and traced passes
/// alternate, so the tracing overhead is measured on the same host
/// state.
fn per_layer(w: &mut dyn Workload, tracer: &Tracer, seconds: f64) -> Measured {
    w.setup(Some(tracer));
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        plain.push(w.pass(None));
        traced.push(w.pass(Some(tracer)));
    }
    let repro = repro_legs(w, tracer);

    let mut problems: Vec<String> = plain
        .iter()
        .chain(&traced)
        .flat_map(|p| p.problems.clone())
        .collect();
    same_digest(&plain, "untraced", &mut problems);
    same_digest(&traced, "traced", &mut problems);
    if traced.iter().any(|p| p.counts != traced[0].counts) {
        problems.push("exact per-layer counts changed between traced passes".into());
    }
    problems.extend(w.check(&plain[0], &repro));

    let mut values: Layers = traced[0].counts.clone();
    let overhead = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>())
        / median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>())
        - 1.0;
    values.insert("trace.overhead_frac", overhead);
    for key in traced[0].timings.keys() {
        let xs: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.timings.get(key))
            .copied()
            .collect();
        values.insert(key, median(&xs));
    }
    let loop_ms: f64 = tracer.durations("runner.loop").iter().sum();
    let steps_traced = values.get("runner.steps").copied().unwrap_or(0.0) * traced.len() as f64;
    values.insert(
        "runner.step_ns",
        instrument::ratio(loop_ms * 1e6, steps_traced),
    );
    for (metric, span) in [
        ("runner.build_ms", "runner.build"),
        ("runner.teardown_ms", "runner.teardown"),
        ("trace.query_ms", "trace.query"),
        ("timeliness.ms", "timeliness"),
        ("monitor.props_ms", "monitor.props"),
        ("omega.spec_ms", "omega.spec"),
        ("linearize.ms", "linearize"),
    ] {
        values.insert(metric, median(&tracer.durations(span)));
    }
    values.insert("registers.solo_op_ns", instrument::solo_op_ns());
    values.extend(w.layers(tracer, &repro));

    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    let self_times = Json::Obj(
        tracer
            .self_times()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Float(v)))
            .collect(),
    );
    let (attempted, failed) = failure_counts(&traced[0], &repro);
    Measured {
        metrics,
        attempted,
        failed,
        problems,
        digest: traced[0].digest(),
        stats: traced[0].stats.clone(),
        notes: vec![
            ("passes", Json::Int(traced.len() as i128)),
            ("self_time_ms", self_times),
            ("failed_frac", Json::Float(failed as f64 / attempted as f64)),
        ],
        artifacts: repro.artifacts,
    }
}

fn write_outputs(args: &Args, record: &Json, m: &Measured, tracer: Option<&Tracer>) {
    let dir = PathBuf::from(OUT_DIR);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record.to_string_pretty()))
        .and_then(|()| {
            for (i, a) in m.artifacts.iter().enumerate() {
                std::fs::write(
                    dir.join(format!("{stem}-repro{i}.json")),
                    a.to_string_pretty(),
                )?;
            }
            match tracer {
                Some(t) => t.write_jsonl(&dir.join(format!("{stem}-spans.jsonl"))),
                None => Ok(()),
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let mut w = workload(&args, &host);
    let steal0 = host::cpu_ticks();
    let tracer = args.trace.then(Tracer::default);
    let m = match &tracer {
        None => end_to_end(w.as_mut(), args.seconds as f64),
        Some(t) => per_layer(w.as_mut(), t, args.seconds as f64),
    };
    let steal = host::steal_frac(steal0, host::cpu_ticks());
    let correct = m.problems.is_empty();

    println!(
        "perfbench {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("host {}", host.to_json(steal).to_string_compact());
    for line in &m.stats {
        println!("stat {line}");
    }
    println!("digest {}", m.digest);
    for (k, v) in &m.notes {
        println!("note {k} {}", v.to_string_compact());
    }
    for (name, unit, value) in &m.metrics {
        println!("metric {name:<24} {value:>16.6} {unit}");
    }
    for p in &m.problems {
        println!("check failed: {p}");
    }

    let metrics = Json::Obj(
        m.metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let mut record = vec![
        ("workload".to_string(), Json::str(&args.workload)),
        ("seed".to_string(), Json::Int(args.seed as i128)),
        ("seconds".to_string(), Json::Int(args.seconds as i128)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), host.to_json(steal)),
        ("digest".to_string(), Json::str(&m.digest)),
        (
            "stats".to_string(),
            Json::Arr(m.stats.iter().map(Json::str).collect()),
        ),
        ("metrics".to_string(), metrics.clone()),
        (
            "problems".to_string(),
            Json::Arr(m.problems.iter().map(Json::str).collect()),
        ),
    ];
    record.extend(m.notes.iter().map(|(k, v)| (k.to_string(), v.clone())));
    write_outputs(&args, &Json::Obj(record), &m, tracer.as_ref());

    let last = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(m.attempted as i128)),
        ("failed", Json::Int(m.failed as i128)),
        ("metrics", metrics),
    ]);
    println!("{}", last.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
