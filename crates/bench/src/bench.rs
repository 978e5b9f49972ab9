//! The one self-timed harness behind every `cargo bench` target.
//!
//! A bench builds a [`Bench`] from its command line, measures rows with
//! [`Bench::run`] (which wall-clocks a closure through [`measure`]) or
//! records externally timed rows with [`Bench::push`], and finishes with
//! [`Bench::report`]: one aligned table plus one compact `json:` line on
//! stdout. Nothing is written to disk, so a bench run never touches
//! tracked files; host-stamped numbers are `perfbench`'s records.
//!
//! `--quick` (the only flag) shrinks every measurement window to
//! [`QUICK_WINDOW`] for smoke runs; cargo's own `--bench` argument and
//! any other argument are ignored.

use crate::print_table;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tbwf_sim::Json;

/// Measurement window of every row under `--quick`.
pub const QUICK_WINDOW: Duration = Duration::from_millis(300);

/// Runs `f` once to warm up, then repeatedly until `window` wall time
/// has elapsed; returns `(iterations, seconds)` of the timed runs. At
/// least one timed iteration always runs, so a zero window times exactly
/// one.
pub fn measure<O>(window: Duration, mut f: impl FnMut() -> O) -> (u64, f64) {
    black_box(f());
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        black_box(f());
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= window {
            return (iters, elapsed.as_secs_f64());
        }
    }
}

/// One measured row: `iters` iterations took `secs`, each doing `work`
/// units of `unit` (1 `iter` unless the bench says otherwise).
#[derive(Clone, Debug)]
pub struct Row {
    /// Row name, `group/case` by convention.
    pub name: String,
    /// Timed iterations.
    pub iters: u64,
    /// Wall-clock seconds of the timed iterations.
    pub secs: f64,
    /// Units of work per iteration (for the throughput column).
    pub work: u64,
    /// Name of the unit of work.
    pub unit: &'static str,
}

impl Row {
    fn secs_per_iter(&self) -> f64 {
        self.secs / self.iters.max(1) as f64
    }

    fn per_sec(&self) -> f64 {
        self.work as f64 / self.secs_per_iter()
    }

    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("iters", Json::Int(self.iters as i128)),
            ("secs", Json::Float(self.secs)),
            ("ns_per_iter", Json::Float(self.secs_per_iter() * 1e9)),
            ("work", Json::Int(self.work as i128)),
            ("unit", Json::str(self.unit)),
            ("per_sec", Json::Float(self.per_sec())),
        ])
    }
}

/// One bench binary's measurements.
pub struct Bench {
    name: &'static str,
    quick: bool,
    window: Duration,
    rows: Vec<Row>,
    extra: Vec<(&'static str, Json)>,
}

impl Bench {
    /// A bench named `name` whose rows get `window` each, or
    /// [`QUICK_WINDOW`] when the command line has `--quick`.
    pub fn from_args(name: &'static str, window: Duration) -> Self {
        Bench::new(name, window, std::env::args().any(|a| a == "--quick"))
    }

    fn new(name: &'static str, window: Duration, quick: bool) -> Self {
        Bench {
            name,
            quick,
            window,
            rows: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Whether this is a `--quick` smoke run.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// The measurement window of the next row.
    fn window(&self) -> Duration {
        if self.quick {
            QUICK_WINDOW
        } else {
            self.window
        }
    }

    /// Sets the window of the rows that follow (ignored under `--quick`).
    pub fn set_window(&mut self, window: Duration) {
        self.window = window;
    }

    /// Prints the bench's header line: `name: what, window` (and the
    /// `--quick` marker).
    pub fn header(&self, what: &str) {
        println!(
            "{}: {what}, {:.1}s window per row{}\n",
            self.name,
            self.window().as_secs_f64(),
            if self.quick { " (--quick)" } else { "" }
        );
    }

    /// Measures `f` as one row of one iteration's worth of work.
    pub fn run<O>(&mut self, name: impl Into<String>, f: impl FnMut() -> O) {
        self.run_work(name, 1, "iter", f);
    }

    /// Measures `f` as one row in which each iteration does `work`
    /// units of `unit`.
    pub fn run_work<O>(
        &mut self,
        name: impl Into<String>,
        work: u64,
        unit: &'static str,
        f: impl FnMut() -> O,
    ) {
        let (iters, secs) = measure(self.window(), f);
        self.push(Row {
            name: name.into(),
            iters,
            secs,
            work,
            unit,
        });
    }

    /// Adds a row timed by the caller.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Adds a bench-level field to the JSON record (configuration or a
    /// derived figure such as a speedup).
    pub fn note(&mut self, key: &'static str, value: Json) {
        self.extra.push((key, value));
    }

    /// The JSON record of every row so far.
    fn json(&self) -> Json {
        let mut pairs = vec![
            ("bench", Json::str(self.name)),
            ("quick", Json::Bool(self.quick)),
        ];
        pairs.extend(self.extra.iter().cloned());
        pairs.push(("rows", Json::Arr(self.rows.iter().map(Row::json).collect())));
        Json::obj(pairs)
    }

    /// Prints the table of rows and the `json:` line.
    pub fn report(&self) {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.iters.to_string(),
                    fmt_time(r.secs_per_iter()),
                    format!("{}{}/s", fmt_si(r.per_sec()), r.unit),
                ]
            })
            .collect();
        print_table(&["row", "iters", "time/iter", "throughput"], &rows);
        println!("json: {}", self.json().to_string_compact());
    }
}

/// Formats seconds with a unit from ns to s.
fn fmt_time(secs: f64) -> String {
    let ns = secs * 1e9;
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{secs:.3} s")
    }
}

/// Formats a rate with an SI prefix (`k`, `M`, `G` or none) that the
/// unit name then follows.
fn fmt_si(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2} G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2} M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2} k", x / 1e3)
    } else {
        format!("{x:.1} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_window_runs_exactly_one_timed_iteration() {
        let mut calls = 0;
        let (iters, _) = measure(Duration::ZERO, || calls += 1);
        // 1 warm-up + 1 timed.
        assert_eq!(calls, 2);
        assert_eq!(iters, 1);
    }

    #[test]
    fn measure_runs_until_the_window() {
        let (iters, secs) = measure(Duration::from_millis(5), || black_box(1 + 1));
        assert!(iters >= 1);
        assert!(secs >= 0.005);
    }

    #[test]
    fn quick_overrides_every_window() {
        let mut b = Bench::new("t", Duration::from_secs(10), true);
        assert_eq!(b.window(), QUICK_WINDOW);
        b.set_window(Duration::from_secs(20));
        assert_eq!(b.window(), QUICK_WINDOW);
        let mut full = Bench::new("t", Duration::from_secs(10), false);
        full.set_window(Duration::from_millis(1));
        assert_eq!(full.window(), Duration::from_millis(1));
    }

    #[test]
    fn json_record_lists_rows_and_notes() {
        let mut b = Bench::new("t", Duration::ZERO, false);
        b.note("n", Json::Int(3));
        b.push(Row {
            name: "g/a".into(),
            iters: 4,
            secs: 2.0,
            work: 10,
            unit: "steps",
        });
        b.run("g/b", || ());
        let json = b.json();
        assert_eq!(json.get("bench").and_then(Json::as_str), Some("t"));
        assert_eq!(json.get("n").and_then(Json::as_u64), Some(3));
        let rows = json.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("per_sec").and_then(Json::as_f64), Some(20.0));
        assert_eq!(rows[1].get("iters").and_then(Json::as_u64), Some(1));
        assert_eq!(rows[1].get("unit").and_then(Json::as_str), Some("iter"));
    }

    #[test]
    fn formats_pick_readable_units() {
        assert_eq!(fmt_time(250e-9), "250.0 ns");
        assert_eq!(fmt_time(11.18e-6), "11.18 µs");
        assert_eq!(fmt_time(2.5e-3), "2.50 ms");
        assert_eq!(fmt_si(8.57e6), "8.57 M");
        assert_eq!(fmt_si(64.0), "64.0 ");
    }
}
