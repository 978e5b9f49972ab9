//! The [`TaskSpawner`] abstraction: where algorithm tasks get attached.
//!
//! The paper's algorithms are written as [`Stepper`]s; *who runs them*
//! is orthogonal. The deterministic simulator attaches them to
//! [`SimBuilder`] processes and polls them from `Sim::run`; the native
//! harness (in the `tbwf` crate) drives each one on its own OS thread.
//! Mesh and Ω∆ installers accept `&mut dyn TaskSpawner` and therefore
//! work on both unchanged.

use crate::ids::ProcId;
use crate::runner::SimBuilder;
use crate::step::Stepper;

/// Something that can host algorithm tasks for processes `0..n`.
pub trait TaskSpawner {
    /// Attaches a poll-driven [`Stepper`] as a task of process `pid`.
    fn spawn_stepper(&mut self, pid: ProcId, name: &str, stepper: Box<dyn Stepper>);
}

impl TaskSpawner for SimBuilder {
    fn spawn_stepper(&mut self, pid: ProcId, name: &str, stepper: Box<dyn Stepper>) {
        self.add_stepper(pid, name, stepper);
    }
}
