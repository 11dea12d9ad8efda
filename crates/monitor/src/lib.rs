//! # bw-monitor — the BLOCKWATCH lock-free runtime monitor
//!
//! The runtime half of BLOCKWATCH (paper Section III-B): application
//! threads append fixed-size [`BranchEvent`]s to per-thread lock-free
//! [Lamport SPSC queues](spsc_queue); an asynchronous monitor drains the
//! queues round-robin, correlates reports across threads under the paper's
//! two keys — call-site path, then enclosing-loop iterations — and applies
//! the per-category [checks](check_instance) derived from the static
//! analysis. A deviation from the statically inferred similarity is
//! reported as a [`Violation`].
//!
//! The two-level *keying* is the paper's; the storage is flat. Level 2 is
//! one instance table keyed by the full `(branch, site, iter)`, and it is
//! all an event touches: one hash probe and one report node, no heap
//! allocation in steady state (`src/table.rs`). Level 1 is one site table,
//! `(branch, site)` → the recent history of the site's reports, reached only
//! when an instance leaves level 2; a [`ViolationReport`]'s evidence is
//! rebuilt from it when a check fails (`src/provenance.rs`). Reports are
//! nodes of one arena that move from an instance's chain to its site's
//! history without a copy, so memory follows the reports received, not
//! `instances × nthreads`.
//!
//! Design goals carried over from the paper:
//! 1. **Asynchronous** — a sender waits for the monitor only when its
//!    queue is full (otherwise the push returns immediately; the monitor
//!    threads run on their own cores). It never drops an event, so every
//!    report is checked.
//! 2. **Unique branch identifier and fast lookup** — `(static branch id,
//!    call-path hash)` at level 1, plus the loop-iteration hash at level 2.
//! 3. **Lock freedom** — no locks anywhere on the reporting path.
//!
//! Monitors are constructed through one surface: [`MonitorBuilder`], with
//! the ingest shape chosen by [`MonitorTopology`] — `Flat` (the paper's
//! single monitor thread) or `Sharded` (N workers each owning a disjoint
//! `(site, branch)` key-space slice, routed by [`shard_of`]). Flat is one
//! shard, so there is a single ingest implementation; every topology
//! joins into the same [`MonitorVerdict`] shape, and sharded verdicts are
//! byte-identical to flat ones by construction. Drive a passive
//! [`Monitor`] directly where a test needs full control of the event
//! stream.
//!
//! # Examples
//!
//! ```
//! use bw_monitor::{check_instance, Report};
//! use bw_analysis::CheckKind;
//!
//! // Three threads report a `shared` branch; thread 1's condition data
//! // was corrupted by a fault.
//! let reports = [
//!     Report { thread: 0, witness: 42, taken: true },
//!     Report { thread: 1, witness: 43, taken: true },
//!     Report { thread: 2, witness: 42, taken: true },
//! ];
//! assert!(check_instance(CheckKind::SharedUniform, &reports).is_err());
//! ```

#![warn(missing_docs)]

mod checker;
mod event;
mod live;
mod monitor;
pub mod provenance;
mod shard;
mod spsc;
mod table;
mod telemetry;
mod topology;

pub use checker::{check_instance, Report, ViolationKind};
pub use event::{hash_words, BranchEvent, KeyHasher};
pub use monitor::{sort_violations, CheckTable, EventSender, Monitor, Violation};
pub use shard::{per_shard_capacity, shard_of, ShardedMonitor, ShardedMonitorThread};
pub use topology::{MonitorBuilder, MonitorHandle, MonitorTopology, MonitorVerdict};
#[doc(hidden)]
pub use provenance::PROVENANCE_ENABLED;
pub use provenance::{category_name, TraceViolation, ViolationReport, WindowEntry};
pub use spsc::{spsc_queue, Consumer, Producer, QueueFull};
pub use telemetry::{MonitorTelemetry, ShardHealth, VerdictTelemetry};
