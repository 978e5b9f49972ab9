//! The halt signal used to tear down infinite task loops.

use std::error::Error;
use std::fmt;

/// Signal that a run has ended and a blocking task must unwind.
///
/// The algorithms of the paper are written as `repeat forever` loops. In
/// the simulator they are [`Stepper`](crate::Stepper)s, which need no
/// halt signal: when the run ends (or their process crashes) `step` is
/// simply never called again. Blocking code — the native thread backend
/// and free-running tests — consumes steps through
/// [`Env::tick`](crate::Env::tick) and blocking register operations;
/// there a `tick` returns `Err(Halted)` once the run is being torn down,
/// and the body propagates it with `?` so its thread can be joined.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Halted;

impl fmt::Display for Halted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation halted")
    }
}

impl Error for Halted {}

/// Result of any step-consuming simulator operation.
pub type SimResult<T> = Result<T, Halted>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halted_displays() {
        assert_eq!(Halted.to_string(), "simulation halted");
    }

    #[test]
    fn question_mark_propagates() {
        fn inner() -> SimResult<u32> {
            Err(Halted)
        }
        fn outer() -> SimResult<u32> {
            let v = inner()?;
            Ok(v + 1)
        }
        assert_eq!(outer(), Err(Halted));
    }
}
