//! Command-line parsing. Bad arguments end in a usage message and a
//! non-zero exit, never a panic.

/// Usage text printed on any argument error.
pub const USAGE: &str = "\
usage: perfbench --workload NAME --seed N --seconds S --trace 0|1

  --workload NAME  gauntlet | modelcheck | scale64
  --seed N         input seed (unsigned 64-bit integer)
  --seconds S      how long to measure, 1 to 600 seconds
  --trace 0|1      0: end-to-end metrics, untraced
                   1: per-layer metrics from a traced run";

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["gauntlet", "modelcheck", "scale64"];

/// Checked arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// Returns a one-line description of the first problem found.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.contains(&v) {
                    return Err(format!("unknown workload {v:?}"));
                }
                workload = Some(v.to_string());
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed: {v:?} is not an unsigned integer"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seconds: {v:?} is not a whole number"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be 1 to 600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn accepts_the_contract_form() {
        let a = parse(&args("--workload scale64 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "scale64".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload gauntlet --seed -1 --seconds 1 --trace 0",
            "--workload gauntlet --seed 1 --seconds 0 --trace 0",
            "--workload gauntlet --seed 1 --seconds 1 --trace 2",
            "--workload gauntlet --seed 1 --seconds 1",
            "--workload gauntlet --seed 1 --seconds 1 --trace 0 --extra",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
