//! The host block every result record carries, and the process-level
//! readings: steal and peak memory from `/proc`, CPU time from the
//! process CPU clock.
//!
//! A number measured on one machine says nothing about another: the
//! block names the core count, CPU model, compiler and source revision,
//! and the share of CPU time the hypervisor stole while the run measured.
//! A run on one core, or on a host whose steal spiked, shows in its file.

use std::process::Command;
use tbwf_sim::Json;

/// Aggregate `cpu` line of `/proc/stat`, in clock ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    /// Sum of all fields.
    pub total: u64,
    /// The `steal` field (8th).
    pub steal: u64,
}

/// Reads the aggregate CPU counters; zeros where `/proc` is unavailable.
pub fn cpu_ticks() -> CpuTicks {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return CpuTicks::default();
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    CpuTicks {
        total: fields.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Share of host CPU time stolen between two readings.
pub fn steal_frac(start: CpuTicks, end: CpuTicks) -> f64 {
    let total = end.total.saturating_sub(start.total);
    if total == 0 {
        return 0.0;
    }
    end.steal.saturating_sub(start.steal) as f64 / total as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user plus system, all threads, finished ones included) of
/// this process so far, in milliseconds, at nanosecond resolution.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on, which
    // `Timespec` mirrors with `repr(C)`) through a pointer to a live,
    // exclusively borrowed local, and reads nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Output of a short version command, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The host block of a result record.
pub struct Host {
    cores: usize,
    cpu_model: String,
    rustc: String,
    git_rev: String,
}

impl Host {
    /// Probes the host once, before measuring.
    pub fn probe() -> Host {
        // `unknown` when the benchmark runs from an export that is not a
        // git checkout.
        let git_rev = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["--version"]),
            git_rev,
        }
    }

    /// Worker threads the workloads use: every core, at most two.
    pub fn jobs(&self) -> usize {
        self.cores.clamp(1, 2)
    }

    /// Serializes the block with the steal share measured over the run.
    pub fn to_json(&self, steal: f64) -> Json {
        Json::obj([
            ("cores", Json::Int(self.cores as i128)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("git_rev", Json::str(&self.git_rev)),
            ("steal_frac", Json::Float(steal)),
        ])
    }
}
