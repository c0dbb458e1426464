//! Task dispatch for the JANUS runtime.
//!
//! The protocol of Figure 7 dispenses tasks with a bare counter and
//! re-runs every aborted attempt immediately from scratch. That is the
//! one policy this crate ships:
//!
//! * [`SchedulePolicy`] — the dispatch seam, bound per run to a
//!   [`TaskSource`] the workers dispatch through.
//!   * [`Fifo`] — a shared atomic counter, immediate retry on abort.
//! * [`BackoffHint`] / [`backoff::wait`] — how a source may ask an
//!   aborted attempt to wait before re-executing; `Fifo` never does.
//! * [`Parker`] — the spin→yield→park primitive behind the runtime's
//!   ordered-commit and commit-gate waits.
//!
//! Contention is answered in the runtime, not here: a task that
//! exhausts its retry budget (`Janus::max_attempts`) re-executes under
//! a run-level serial token. DESIGN.md §6 records the measurements
//! behind keeping `Fifo` as the only policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
mod policy;
mod stats;

pub use backoff::{BackoffHint, Parker};
pub use policy::{Dispatch, Fifo, SchedulePolicy, TaskSource};
pub use stats::SchedStats;
