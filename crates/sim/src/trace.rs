//! Run traces: step sequences and observations of local output variables.

use crate::ids::ProcId;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// One observation of a local output variable.
///
/// Conventions used across the workspace:
/// * `leader` observations encode `?` as `-1` and process `q` as `q as i64`;
/// * `status[q]` observations encode `?` as `0`, `active` as `1`,
///   `inactive` as `2` (see `tbwf-monitor`);
/// * counters are recorded verbatim.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Obs {
    /// Global time of the observation.
    pub time: u64,
    /// Observing process.
    pub proc: ProcId,
    /// Variable name.
    pub key: &'static str,
    /// Vector index (e.g. the `q` of `status[q]`), `0` for scalars.
    pub idx: u32,
    /// Observed value.
    pub value: i64,
}

/// Thread-safe observation sink of [`FreeRunEnv`](crate::FreeRunEnv).
pub(crate) struct TraceSink {
    obs: Mutex<Vec<Obs>>,
}

impl TraceSink {
    pub(crate) fn new() -> Self {
        TraceSink {
            obs: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn record(&self, time: u64, proc: ProcId, key: &'static str, idx: u32, value: i64) {
        self.obs.lock().push(Obs {
            time,
            proc,
            key,
            idx,
            value,
        });
    }

    pub(crate) fn drain(&self) -> Vec<Obs> {
        std::mem::take(&mut self.obs.lock())
    }
}

/// 64-bit FNV-1a over little-endian words and length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The complete record of a run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `steps[t]` is the process that took the step at time `t`.
    pub steps: Vec<ProcId>,
    /// All observations, in recording order (which is also time order).
    pub obs: Vec<Obs>,
    /// Crash events `(time, process)` that were applied during the run
    /// (from the static crash plan and from nemesis injections alike).
    pub crashes: Vec<(u64, ProcId)>,
    /// Nemesis injections applied during the run, in firing order.
    pub injections: Vec<crate::nemesis::InjectionRecord>,
}

impl Trace {
    /// FNV-1a digest of the whole run record: every step, every
    /// observation, the crash record and the injection log. Two runs with
    /// equal digests are, for every purpose the workspace has, the same
    /// run; tests pin digests to check that a rewrite of an algorithm
    /// still takes exactly the steps the original took.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.steps.len() as u64);
        for p in &self.steps {
            h.u64(p.0 as u64);
        }
        h.u64(self.obs.len() as u64);
        for o in &self.obs {
            h.u64(o.time);
            h.u64(o.proc.0 as u64);
            h.str(o.key);
            h.u64(u64::from(o.idx));
            h.u64(o.value as u64);
        }
        h.u64(self.crashes.len() as u64);
        for &(t, p) in &self.crashes {
            h.u64(t);
            h.u64(p.0 as u64);
        }
        h.u64(self.injections.len() as u64);
        for i in &self.injections {
            h.u64(i.time);
            h.u64(i.event as u64);
            h.str(&i.desc);
        }
        h.0
    }

    /// Total number of steps in the run.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the run took no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The time at which `p` crashed, if it did.
    pub fn crash_time(&self, p: ProcId) -> Option<u64> {
        self.crashes.iter().find(|(_, q)| *q == p).map(|(t, _)| *t)
    }

    /// Whether `p` is *correct* in this run (never crashed).
    pub fn is_correct(&self, p: ProcId) -> bool {
        self.crash_time(p).is_none()
    }

    /// The time series of observations of `(proc, key, idx)`.
    pub fn obs_series(&self, proc: ProcId, key: &'static str, idx: u32) -> Vec<(u64, i64)> {
        self.obs
            .iter()
            .filter(|o| o.proc == proc && o.key == key && o.idx == idx)
            .map(|o| (o.time, o.value))
            .collect()
    }

    /// The last observed value of `(proc, key, idx)`, if any.
    pub fn last_value(&self, proc: ProcId, key: &'static str, idx: u32) -> Option<i64> {
        self.obs
            .iter()
            .rev()
            .find(|o| o.proc == proc && o.key == key && o.idx == idx)
            .map(|o| o.value)
    }

    /// Number of steps each process took, indexed by process id.
    pub fn step_counts(&self, n: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n];
        for p in &self.steps {
            counts[p.0] += 1;
        }
        counts
    }

    /// The distinct `(key, idx)` pairs observed by `proc` (diagnostics).
    pub fn observed_keys(&self, proc: ProcId) -> Vec<(&'static str, u32)> {
        let mut set = BTreeMap::new();
        for o in self.obs.iter().filter(|o| o.proc == proc) {
            set.insert((o.key, o.idx), ());
        }
        set.into_keys().collect()
    }

    /// Renders an ASCII timeline of the run: one row per process, one
    /// column per bucket of `bucket` steps; each cell shows how busy the
    /// process was in that bucket (` `, `.`, `:`, `#` for 0 %, <25 %,
    /// <75 %, ≥75 % of an even share) with `X` marking the crash bucket.
    /// A debugging aid for schedules and starvation questions.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is 0.
    pub fn ascii_timeline(&self, n: usize, bucket: u64) -> String {
        assert!(bucket > 0, "bucket must be positive");
        let total = self.len() as u64;
        let cols = total.div_ceil(bucket) as usize;
        let mut counts = vec![vec![0u64; cols]; n];
        for (t, p) in self.steps.iter().enumerate() {
            counts[p.0][t / bucket as usize] += 1;
        }
        let fair = bucket as f64 / n as f64;
        let mut out = String::new();
        for (p, row) in counts.iter().enumerate() {
            out.push_str(&format!("p{p:<2} |"));
            let crash_col = self.crash_time(ProcId(p)).map(|t| (t / bucket) as usize);
            for (c, &k) in row.iter().enumerate() {
                let ch = if crash_col == Some(c) {
                    'X'
                } else if k == 0 {
                    ' '
                } else if (k as f64) < fair * 0.25 {
                    '.'
                } else if (k as f64) < fair * 0.75 {
                    ':'
                } else {
                    '#'
                };
                out.push(ch);
            }
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_trace() -> Trace {
        Trace {
            steps: vec![ProcId(0), ProcId(1), ProcId(0), ProcId(1), ProcId(1)],
            obs: vec![
                Obs {
                    time: 0,
                    proc: ProcId(0),
                    key: "x",
                    idx: 0,
                    value: 1,
                },
                Obs {
                    time: 2,
                    proc: ProcId(0),
                    key: "x",
                    idx: 0,
                    value: 2,
                },
                Obs {
                    time: 3,
                    proc: ProcId(1),
                    key: "x",
                    idx: 0,
                    value: 9,
                },
                Obs {
                    time: 4,
                    proc: ProcId(1),
                    key: "y",
                    idx: 3,
                    value: 7,
                },
            ],
            crashes: vec![(4, ProcId(1))],
            injections: vec![],
        }
    }

    #[test]
    fn series_filters_by_proc_key_idx() {
        let t = mk_trace();
        assert_eq!(t.obs_series(ProcId(0), "x", 0), vec![(0, 1), (2, 2)]);
        assert_eq!(t.obs_series(ProcId(1), "y", 3), vec![(4, 7)]);
        assert!(t.obs_series(ProcId(1), "y", 0).is_empty());
    }

    #[test]
    fn last_value_works() {
        let t = mk_trace();
        assert_eq!(t.last_value(ProcId(0), "x", 0), Some(2));
        assert_eq!(t.last_value(ProcId(0), "z", 0), None);
    }

    #[test]
    fn step_counts_and_crash() {
        let t = mk_trace();
        assert_eq!(t.step_counts(2), vec![2, 3]);
        assert_eq!(t.crash_time(ProcId(1)), Some(4));
        assert!(t.is_correct(ProcId(0)));
        assert!(!t.is_correct(ProcId(1)));
    }

    #[test]
    fn observed_keys_sorted_unique() {
        let t = mk_trace();
        assert_eq!(t.observed_keys(ProcId(1)), vec![("x", 0), ("y", 3)]);
    }

    #[test]
    fn ascii_timeline_shapes() {
        let mut steps = vec![ProcId(0); 10];
        steps.extend(vec![ProcId(1); 10]);
        let t = Trace {
            steps,
            obs: vec![],
            crashes: vec![(15, ProcId(1))],
            injections: vec![],
        };
        let art = t.ascii_timeline(2, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        // p0 fully busy in bucket 0, idle in bucket 1.
        assert!(lines[0].contains("|# |"), "got {art}");
        // p1 idle then crashed-in-bucket-1.
        assert!(lines[1].contains("| X|"), "got {art}");
    }

    #[test]
    #[should_panic(expected = "bucket must be positive")]
    fn ascii_timeline_rejects_zero_bucket() {
        let t = mk_trace();
        let _ = t.ascii_timeline(2, 0);
    }
}
