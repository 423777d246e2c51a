//! Persistent optimization serving for the NCGWS engine.
//!
//! The core crate solves one sizing problem per call. This crate keeps a
//! process-resident [`Server`] running: clients submit [`JobSpec`]s into a
//! priority queue, worker threads drain it through the two-stage
//! `prepare → order → size` flow, and every attempt runs under a
//! checkpointing [`RunControl`](ncgws_core::RunControl) so an interrupted
//! job (per-attempt iteration budget, wall-clock timeout, or cooperative
//! cancel) is requeued and **resumes from its latest
//! [`Snapshot`](ncgws_core::Snapshot)** instead of restarting cold.
//!
//! What lives where:
//!
//! * [`job`] — [`JobSpec`]/[`JobId`]/[`JobState`]/[`JobOutcome`]: the
//!   serializable job descriptions and results;
//! * [`server`] — the [`Server`] itself: worker pool, strict-priority FIFO
//!   queue, per-tenant admission control, graceful [`drain`](Server::drain);
//! * [`stats`] — pollable [`ServerStats`] (cumulative counters, queue
//!   gauges, snapshot/queue memory accounting);
//! * [`events`] — the optional JSON-lines event stream;
//! * [`store`] — the durability layer: [`DiskSnapshotStore`] (atomic,
//!   checksummed snapshot files with a memory-budget spill policy) and the
//!   append-only [`Journal`] that [`Server::recover`] replays after a
//!   crash;
//! * [`fault`] — the seeded, deterministic [`FaultPlan`] injection layer
//!   (worker panics, I/O errors, torn writes, delayed dispatch).
//!
//! The journal's specs, outcomes and server config are read back with the
//! same serde derives that write them (`serde_json::from_value`), so adding
//! a field to [`JobSpec`] takes one edit.
//!
//! # Example
//!
//! ```
//! use ncgws_core::OptimizerConfig;
//! use ncgws_netlist::CircuitSpec;
//! use ncgws_serve::{JobInput, JobSpec, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default());
//! let config = OptimizerConfig {
//!     max_iterations: 30,
//!     ..OptimizerConfig::default()
//! };
//! let spec = JobSpec::new(
//!     JobInput::Synthetic(CircuitSpec::new("demo", 20, 45).with_seed(7)),
//!     config,
//! )
//! .with_priority(1)
//! .with_tenant("docs");
//! let id = server.submit(spec).unwrap();
//! let outcome = server.wait(id).unwrap();
//! assert!(!outcome.stop_reason.is_interrupted());
//! let stats = server.drain();
//! assert_eq!(stats.completed, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod events;
pub mod fault;
pub mod job;
pub mod server;
pub mod stats;
pub mod store;
mod sync;

pub use events::SharedBuffer;
pub use fault::{FaultPlan, WriteFault};
pub use job::{JobId, JobInput, JobOutcome, JobSpec, JobState, RetryPolicy};
pub use server::{DurableOptions, RecoveryReport, Server, ServerConfig, SubmitError};
pub use stats::ServerStats;
pub use store::{DiskSink, DiskSnapshotStore, Journal, StoreConfig, StoreError, StoreStats};

/// Decoding checks for the journal's JSON: every spec and stop reason the
/// server writes reads back through the serde derives.
#[cfg(test)]
mod codec {
    #[cfg(test)]
    mod tests {
        use crate::{JobInput, JobSpec, RetryPolicy};
        use ncgws_core::{OptimizerConfig, ParallelPolicy, StopReason};
        use ncgws_netlist::{CircuitSpec, SyntheticGenerator};

        /// Reads a spec back the way journal recovery does: decode, then
        /// the explicit `validate()` the derive does not run.
        fn decode_spec(text: &str) -> Result<JobSpec, String> {
            let spec: JobSpec = serde_json::from_str(text).map_err(|e| e.to_string())?;
            spec.validate().map(|()| spec)
        }

        /// Encodes, decodes and re-encodes `spec`: the encoder is
        /// deterministic, so byte equality implies field equality.
        fn round_trip_spec(spec: &JobSpec) -> JobSpec {
            let encoded = serde_json::to_string(spec).expect("spec serializes");
            let back = decode_spec(&encoded).expect("spec decodes");
            assert_eq!(serde_json::to_string(&back).ok(), Some(encoded));
            back
        }

        fn synthetic(config: OptimizerConfig) -> JobSpec {
            JobSpec::new(JobInput::Synthetic(CircuitSpec::new("rt", 10, 5)), config)
        }

        #[test]
        fn synthetic_spec_round_trips_exactly() {
            let input = JobInput::Synthetic(CircuitSpec::new("rt", 40, 20).with_seed(u64::MAX - 3));
            let spec = JobSpec::new(input, OptimizerConfig::default())
                .with_priority(-3)
                .with_tenant("team-a")
                .with_iteration_budget(7)
                .with_attempt_timeout_ms(250)
                .with_retry(RetryPolicy::retries(4).with_seed(99));
            match round_trip_spec(&spec).input {
                JobInput::Synthetic(s) => assert_eq!(s.seed, u64::MAX - 3),
                JobInput::Instance(_) => panic!("expected synthetic input"),
            }
        }

        #[test]
        fn instance_spec_round_trips_exactly() {
            let instance = SyntheticGenerator::new(CircuitSpec::new("inst", 24, 52))
                .generate()
                .expect("generation succeeds");
            let input = JobInput::Instance(Box::new(instance));
            round_trip_spec(&JobSpec::new(input, OptimizerConfig::default()));
        }

        #[test]
        fn malformed_specs_are_rejected_not_panicked() {
            let encoded = serde_json::to_string(&synthetic(OptimizerConfig::default())).unwrap();
            // Dropping any required field must produce Err, never panic.
            for cut in ["\"priority\":0,", "\"tenant\":\"default\",", "\"retry\":"] {
                let mangled = encoded.replacen(cut, "\"x\":0,", 1);
                assert_ne!(mangled, encoded, "cut {cut} not found");
                assert!(decode_spec(&mangled).is_err(), "cut {cut}");
            }
            assert!(decode_spec("null").is_err());
            assert!(serde_json::from_str::<StopReason>("true").is_err());
        }

        #[test]
        fn journaled_thread_policies_keep_decoding() {
            for parallel in [
                ParallelPolicy::Sequential,
                ParallelPolicy::threads(0),
                ParallelPolicy::threads(3),
            ] {
                let spec = synthetic(OptimizerConfig {
                    parallel,
                    ..OptimizerConfig::default()
                });
                assert_eq!(round_trip_spec(&spec).config.parallel, parallel);
            }
            // Decoding re-validates: an absurd worker count is an error.
            let parallel = ParallelPolicy::threads(3);
            let spec = synthetic(OptimizerConfig {
                parallel,
                ..OptimizerConfig::default()
            });
            let encoded = serde_json::to_string(&spec).unwrap();
            let mangled = encoded.replacen("\"threads\":3", "\"threads\":100000", 1);
            assert_ne!(mangled, encoded);
            assert!(decode_spec(&mangled).is_err());
        }

        #[test]
        fn stop_reasons_round_trip() {
            use StopReason::*;
            for reason in [
                Converged,
                Stagnated,
                IterationLimit,
                BudgetExhausted,
                Cancelled,
                DeadlineExpired,
            ] {
                let encoded = serde_json::to_string(&reason).unwrap();
                assert_eq!(
                    serde_json::from_str::<StopReason>(&encoded).unwrap(),
                    reason
                );
            }
        }
    }
}
