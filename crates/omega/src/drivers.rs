//! Candidate-input drivers: scripted tasks that flip `candidate_p` over
//! time, realizing the N/P/R candidacy classes of Definition 4 and the
//! canonical use of Definition 6.

use crate::{OmegaHandles, OBS_CANDIDATE};
use tbwf_sim::{Control, Env, Local, ProcId, StepCtx, Stepper, TaskSpawner};

/// A scripted candidacy pattern for one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateScript {
    /// Never competes (`Ncandidates` if it starts false).
    Never,
    /// Competes from the start, forever (`Pcandidates`).
    Always,
    /// Starts competing at time `t` and never stops (`Pcandidates`).
    From(u64),
    /// Competes until time `t`, then stops forever (`Ncandidates`).
    Until(u64),
    /// Alternates: candidate for `on` steps, not candidate for `off`
    /// steps, forever (`Rcandidates`).
    Blink {
        /// Steps spent as a candidate per cycle.
        on: u64,
        /// Steps spent not competing per cycle.
        off: u64,
    },
    /// Like `Blink`, but *canonical* (Definition 6): after leaving the
    /// competition, waits until `leader_p ≠ p` before re-entering.
    CanonicalBlink {
        /// Steps spent as a candidate per cycle.
        on: u64,
        /// Minimum steps spent out of the competition per cycle.
        off: u64,
    },
}

impl CandidateScript {
    fn desired(self, t: u64) -> Option<bool> {
        match self {
            CandidateScript::Never => Some(false),
            CandidateScript::Always => Some(true),
            CandidateScript::From(t0) => Some(t >= t0),
            CandidateScript::Until(t0) => Some(t < t0),
            CandidateScript::Blink { on, off } => Some(t % (on + off) < on),
            CandidateScript::CanonicalBlink { .. } => None, // stateful
        }
    }
}

/// Records `candidate ← v` into the trace on change.
fn set_candidate(env: &dyn Env, candidate: &Local<bool>, v: bool) {
    if candidate.get() != v {
        candidate.set(v);
        env.observe(OBS_CANDIDATE, 0, v as i64);
    }
}

/// Poll-driven driver for the stateless scripts: every step sets
/// `candidate` to the value the script wants at the current time.
struct ScriptedDriver {
    script: CandidateScript,
    candidate: Local<bool>,
    started: bool,
}

impl Stepper for ScriptedDriver {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        if !self.started {
            self.started = true;
            env.observe(OBS_CANDIDATE, 0, self.candidate.get() as i64);
        }
        if let Some(v) = self.script.desired(env.now()) {
            set_candidate(env, &self.candidate, v);
        }
        Control::Yield
    }
}

/// Which part of the canonical cycle the driver is in.
enum BlinkPhase {
    /// Candidate; `rem` on-steps left.
    On,
    /// Not a candidate; `rem` off-steps left.
    Off,
    /// Definition 6 gate: waiting until `leader ≠ p`.
    Gate,
}

/// Poll-driven driver for [`CandidateScript::CanonicalBlink`]
/// (Definition 6): on-phase, off-phase, then wait out own leadership.
struct CanonicalBlinkDriver {
    pid: ProcId,
    on: u64,
    off: u64,
    candidate: Local<bool>,
    leader: Local<Option<ProcId>>,
    started: bool,
    phase: BlinkPhase,
    rem: u64,
}

impl Stepper for CanonicalBlinkDriver {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        if !self.started {
            self.started = true;
            env.observe(OBS_CANDIDATE, 0, self.candidate.get() as i64);
            set_candidate(env, &self.candidate, true);
            self.phase = BlinkPhase::On;
            self.rem = self.on;
        }
        // Consume exactly one step, running any zero-length phase
        // transitions first (a phase of length 0 falls through without
        // spending a step).
        loop {
            match self.phase {
                BlinkPhase::On => {
                    if self.rem > 0 {
                        self.rem -= 1;
                        return Control::Yield;
                    }
                    set_candidate(env, &self.candidate, false);
                    self.phase = BlinkPhase::Off;
                    self.rem = self.off;
                }
                BlinkPhase::Off => {
                    if self.rem > 0 {
                        self.rem -= 1;
                        return Control::Yield;
                    }
                    self.phase = BlinkPhase::Gate;
                }
                BlinkPhase::Gate => {
                    if self.leader.get() == Some(self.pid) {
                        return Control::Yield;
                    }
                    set_candidate(env, &self.candidate, true);
                    self.phase = BlinkPhase::On;
                    self.rem = self.on;
                }
            }
        }
    }
}

/// Poll-driven driver whose desired candidacy is an externally shared
/// flag rather than a time script: every step it copies the flag into
/// `candidate_p`. A nemesis flips the flag via a registered switch to
/// realize *fault-driven* candidacy churn.
struct ExternalDriver {
    desired: Local<bool>,
    candidate: Local<bool>,
    started: bool,
}

impl Stepper for ExternalDriver {
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Control {
        let env = ctx.env();
        if !self.started {
            self.started = true;
            env.observe(OBS_CANDIDATE, 0, self.candidate.get() as i64);
        }
        set_candidate(env, &self.candidate, self.desired.get());
        Control::Yield
    }
}

/// Adds a driver task for process `pid` whose candidacy follows a shared
/// *desired* flag (initially `initial`) instead of a time script.
///
/// Returns the flag; register it as a nemesis switch so `SetSwitch`
/// fault actions churn the process's candidacy mid-run. Changes take
/// effect on the driver's next step, like every scripted transition.
pub fn add_external_candidate_driver(
    spawner: &mut dyn TaskSpawner,
    pid: ProcId,
    handles: &OmegaHandles,
    initial: bool,
) -> Local<bool> {
    let desired = Local::new(initial);
    let stepper = ExternalDriver {
        desired: desired.clone(),
        candidate: handles.candidate.clone(),
        started: false,
    };
    spawner.spawn_stepper(pid, "candidacy", Box::new(stepper));
    desired
}

/// Adds a driver task for process `pid` that follows `script`, observing
/// every change of `candidate_p` into the trace.
pub fn add_candidate_driver(
    spawner: &mut dyn TaskSpawner,
    pid: ProcId,
    handles: &OmegaHandles,
    script: CandidateScript,
) {
    let candidate = handles.candidate.clone();
    let leader = handles.leader.clone();
    let stepper: Box<dyn Stepper> = match script {
        CandidateScript::CanonicalBlink { on, off } => Box::new(CanonicalBlinkDriver {
            pid,
            on,
            off,
            candidate,
            leader,
            started: false,
            phase: BlinkPhase::Gate,
            rem: 0,
        }),
        script => Box::new(ScriptedDriver {
            script,
            candidate,
            started: false,
        }),
    };
    spawner.spawn_stepper(pid, "candidacy", stepper);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbwf_sim::schedule::RoundRobin;
    use tbwf_sim::{RunConfig, SimBuilder};

    fn run_script(script: CandidateScript, steps: u64) -> Vec<(u64, i64)> {
        let mut b = SimBuilder::new();
        let p = b.add_process("p0");
        let h = OmegaHandles::new();
        add_candidate_driver(&mut b, p, &h, script);
        let report = b.build().run(RunConfig::new(steps, RoundRobin::new()));
        report.assert_no_panics();
        report.trace.obs_series(ProcId(0), OBS_CANDIDATE, 0)
    }

    #[test]
    fn always_script_sets_true_once() {
        let s = run_script(CandidateScript::Always, 100);
        assert_eq!(s.first().map(|(_, v)| *v), Some(0));
        assert_eq!(s.last().map(|(_, v)| *v), Some(1));
        assert!(s.len() <= 2);
    }

    #[test]
    fn from_script_waits() {
        let s = run_script(CandidateScript::From(50), 200);
        let flip = s.iter().find(|(_, v)| *v == 1).map(|(t, _)| *t).unwrap();
        assert!(flip >= 50);
    }

    #[test]
    fn blink_script_oscillates() {
        let s = run_script(CandidateScript::Blink { on: 20, off: 20 }, 400);
        let ones = s.iter().filter(|(_, v)| *v == 1).count();
        let zeros = s.iter().filter(|(_, v)| *v == 0).count();
        assert!(ones >= 3, "expected several on-phases, got {ones}");
        assert!(zeros >= 3, "expected several off-phases, got {zeros}");
    }

    #[test]
    fn canonical_blink_respects_leader_gate() {
        let mut b = SimBuilder::new();
        let p = b.add_process("p0");
        let h = OmegaHandles::new();
        // The process believes it is the leader forever: after its first
        // off-phase it must never become a candidate again.
        h.leader.set(Some(ProcId(0)));
        add_candidate_driver(
            &mut b,
            p,
            &h,
            CandidateScript::CanonicalBlink { on: 10, off: 5 },
        );
        let report = b.build().run(RunConfig::new(500, RoundRobin::new()));
        report.assert_no_panics();
        let s = report.trace.obs_series(ProcId(0), OBS_CANDIDATE, 0);
        // initial 0, one rise, one fall — then gated forever.
        let changes: Vec<i64> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(changes, vec![0, 1, 0]);
    }
}
