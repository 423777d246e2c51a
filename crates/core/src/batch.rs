//! Batch execution: many problem instances through the staged flow at once.
//!
//! [`BatchRunner`] is the throughput surface for serving many scenarios:
//! it runs one full two-stage flow per [`ProblemInstance`] and returns the
//! per-instance results in input order. With the `parallel` feature the
//! instances are fanned out across OS threads (`std::thread::scope`)
//! through an **atomic work queue**: each worker pops the next pending
//! instance as it finishes its current one, so a batch of mixed-size
//! instances never serializes behind the worker that drew the largest
//! contiguous chunk (the pre-queue behavior). Results are indexed back
//! into their input slots, so the output order — and, run for run, every
//! outcome — is identical to the serial path. Within each instance one
//! [`SizingEngine`](crate::SizingEngine) workspace serves every evaluation
//! of the sizing run, so a worker's live working set stays at one engine.
//!
//! All runs share one [`RunControl`]: one cancel flag stops the whole batch,
//! one deadline bounds its wall-clock time, and one observer (which takes
//! `&self` and must be `Sync`) watches every run's convergence. An instance
//! whose turn comes after cancellation or past the deadline is skipped
//! *before* its stage-1 ordering — its slot holds
//! [`CoreError::Interrupted`] with the [`StopReason`] —
//! while an instance interrupted mid-sizing still reports, with the reason
//! in its report. Either way the result vector lines up with the input
//! slice.

use ncgws_netlist::ProblemInstance;

use crate::control::{RunControl, StopReason};
use crate::error::CoreError;
use crate::flow::Flow;
use crate::optimizer::OptimizationOutcome;
use crate::problem::OptimizerConfig;

/// The per-instance [`StopReason`] of one batch slot, whichever side of the
/// `Result` it landed on: a completed run reports its own reason, a slot
/// skipped before stage 1 reports the interruption that skipped it, and any
/// other error yields `None`. Callers separating converged instances from
/// deadline-killed or cancelled ones branch on this instead of digging into
/// the report.
pub fn stop_reason_of(result: &Result<OptimizationOutcome, CoreError>) -> Option<StopReason> {
    match result {
        Ok(outcome) => Some(outcome.stop_reason()),
        Err(error) => error.interruption(),
    }
}

/// Executes many problem instances through the two-stage flow.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    config: OptimizerConfig,
    threads: Option<usize>,
}

impl BatchRunner {
    /// Creates a runner applying one configuration to every instance.
    pub fn new(config: OptimizerConfig) -> Self {
        BatchRunner {
            config,
            threads: None,
        }
    }

    /// Caps the number of worker threads (only meaningful with the
    /// `parallel` feature; the serial build ignores it). Defaults to the
    /// machine's available parallelism.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The configuration applied to every instance.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs every instance, sharing `control` across all runs, and returns
    /// one result per instance in input order.
    ///
    /// Per-instance errors (invalid geometry, infeasible bounds, an
    /// interruption before the instance started) land in the corresponding
    /// slot without affecting the other instances.
    pub fn run(
        &self,
        instances: &[ProblemInstance],
        control: &RunControl<'_>,
    ) -> Vec<Result<OptimizationOutcome, CoreError>> {
        self.run_impl(instances, control)
    }

    fn run_one(
        &self,
        instance: &ProblemInstance,
        control: &RunControl<'_>,
    ) -> Result<OptimizationOutcome, CoreError> {
        // Don't pay stage 1 (simulation, similarity, ordering) for a run the
        // shared control has already stopped.
        if control.is_cancelled() {
            return Err(CoreError::Interrupted {
                reason: StopReason::Cancelled,
            });
        }
        if control.deadline_expired() {
            return Err(CoreError::Interrupted {
                reason: StopReason::DeadlineExpired,
            });
        }
        let ordered = Flow::prepare(instance, self.config.clone())?.order()?;
        let sized = ordered.size_with(control)?;
        Ok(OptimizationOutcome {
            report: sized.report,
            ordering: ordered.into_ordering(),
            ogws: sized.ogws,
        })
    }

    #[cfg(not(feature = "parallel"))]
    fn run_impl(
        &self,
        instances: &[ProblemInstance],
        control: &RunControl<'_>,
    ) -> Vec<Result<OptimizationOutcome, CoreError>> {
        instances
            .iter()
            .map(|instance| self.run_one(instance, control))
            .collect()
    }

    /// Fans the instances out across OS threads through an atomic work
    /// queue: whichever worker is free pops the next instance, so mixed-size
    /// batches never serialize behind the largest contiguous chunk. Each
    /// result lands in its input-index slot, so the output is identical to
    /// the serial path; an instance popped after the shared control was
    /// cancelled (or past its deadline) is still skipped *before* stage 1
    /// and its slot holds [`CoreError::Interrupted`] — PR 2's guarantee,
    /// regression-tested below.
    #[cfg(feature = "parallel")]
    fn run_impl(
        &self,
        instances: &[ProblemInstance],
        control: &RunControl<'_>,
    ) -> Vec<Result<OptimizationOutcome, CoreError>> {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let workers = self
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(instances.len())
            .max(1);
        if workers <= 1 {
            return instances
                .iter()
                .map(|instance| self.run_one(instance, control))
                .collect();
        }

        let mut slots: Vec<Option<Result<OptimizationOutcome, CoreError>>> = Vec::new();
        slots.resize_with(instances.len(), || None);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut completed = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= instances.len() {
                                break;
                            }
                            completed.push((i, self.run_one(&instances[i], control)));
                        }
                        completed
                    })
                })
                .collect();
            for handle in handles {
                for (i, result) in handle.join().expect("batch worker panicked") {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every instance was run"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{CancelFlag, CollectObserver, StopReason};
    use crate::optimizer::Optimizer;
    use ncgws_netlist::{CircuitSpec, SyntheticGenerator};

    fn instances() -> Vec<ProblemInstance> {
        [(30usize, 70usize, 1u64), (40, 90, 2), (24, 55, 3)]
            .into_iter()
            .map(|(gates, wires, seed)| {
                SyntheticGenerator::new(
                    CircuitSpec::new(format!("batch-{seed}"), gates, wires)
                        .with_seed(seed)
                        .with_num_patterns(16),
                )
                .generate()
                .unwrap()
            })
            .collect()
    }

    fn quick_config() -> OptimizerConfig {
        OptimizerConfig {
            max_iterations: 30,
            max_lrs_sweeps: 20,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn batch_matches_individual_runs_in_input_order() {
        let instances = instances();
        let runner = BatchRunner::new(quick_config());
        let results = runner.run(&instances, &RunControl::new());
        assert_eq!(results.len(), instances.len());
        for (instance, result) in instances.iter().zip(&results) {
            let batch = result.as_ref().expect("batch run succeeds");
            let solo = Optimizer::new(quick_config()).run(instance).unwrap();
            assert_eq!(batch.report.name, instance.name);
            assert_eq!(batch.sizes(), solo.sizes(), "{}", instance.name);
            assert_eq!(batch.report.final_metrics, solo.report.final_metrics);
        }
    }

    #[test]
    fn worker_count_does_not_change_batch_results() {
        let instances = instances();
        let one = BatchRunner::new(quick_config())
            .with_threads(1)
            .run(&instances, &RunControl::new());
        let three = BatchRunner::new(quick_config())
            .with_threads(3)
            .run(&instances, &RunControl::new());
        assert_eq!(one.len(), three.len());
        for (a, b) in one.iter().zip(&three) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.report.name, b.report.name);
            assert_eq!(a.sizes(), b.sizes(), "{}", a.report.name);
            assert_eq!(a.report.final_metrics, b.report.final_metrics);
            assert_eq!(a.report.duality_gap, b.report.duality_gap);
        }
    }

    #[test]
    fn pre_cancelled_batch_skips_every_instance_before_stage_one() {
        let instances = instances();
        let flag = CancelFlag::new();
        flag.cancel();
        let control = RunControl::new().with_cancel_flag(flag);
        let results = BatchRunner::new(quick_config()).run(&instances, &control);
        assert_eq!(results.len(), instances.len());
        for result in &results {
            assert!(matches!(
                result,
                Err(CoreError::Interrupted {
                    reason: StopReason::Cancelled
                })
            ));
        }
    }

    /// An observer that cancels the shared flag as soon as it has seen
    /// `after` iteration events (interior mutability — one observer, many
    /// concurrent runs).
    struct CancelAfterEvents {
        flag: CancelFlag,
        after: usize,
        seen: std::sync::atomic::AtomicUsize,
    }

    impl crate::control::Observer for CancelAfterEvents {
        fn on_iteration(&self, _event: &crate::control::IterationEvent<'_>) {
            let seen = self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if seen >= self.after {
                self.flag.cancel();
            }
        }
    }

    /// Regression for the work-queue refactor: a cancellation observed
    /// *between* an instance being queued and its `run_one` must still
    /// yield `CoreError::Interrupted` in every remaining slot (PR 2's
    /// skip-before-stage-1 guarantee), with the slots still lining up with
    /// the input order.
    #[test]
    fn mid_batch_cancellation_interrupts_every_remaining_slot() {
        let instances: Vec<ProblemInstance> = (0..8u64)
            .map(|seed| {
                SyntheticGenerator::new(
                    CircuitSpec::new(format!("cancel-{seed}"), 30, 70)
                        .with_seed(seed)
                        .with_num_patterns(16),
                )
                .generate()
                .unwrap()
            })
            .collect();
        let flag = CancelFlag::new();
        let observer = CancelAfterEvents {
            flag: flag.clone(),
            after: 1,
            seen: std::sync::atomic::AtomicUsize::new(0),
        };
        let control = RunControl::new()
            .with_cancel_flag(flag)
            .with_observer(&observer);
        let results = BatchRunner::new(quick_config())
            .with_threads(2)
            .run(&instances, &control);

        assert_eq!(results.len(), instances.len(), "one slot per instance");
        let mut interrupted = 0usize;
        for (instance, result) in instances.iter().zip(&results) {
            match result {
                // An instance already past the pre-check finishes its run
                // cooperatively and reports the cancellation in its record.
                Ok(outcome) => assert_eq!(outcome.report.name, instance.name, "slot order"),
                Err(CoreError::Interrupted {
                    reason: StopReason::Cancelled,
                }) => interrupted += 1,
                Err(other) => panic!("unexpected error for {}: {other:?}", instance.name),
            }
        }
        // The flag fires during the very first iteration of the first
        // in-flight run, so at most the instances already popped from the
        // queue (one per worker) can complete; everything else must have
        // been skipped before its stage 1.
        assert!(
            interrupted >= instances.len().saturating_sub(4),
            "expected most slots interrupted, got {interrupted} of {}",
            instances.len()
        );
        assert!(interrupted >= 1, "at least one slot must be interrupted");
    }

    #[test]
    fn stop_reason_is_surfaced_on_both_result_sides() {
        let instances = instances();
        let runner = BatchRunner::new(quick_config());
        // Completed runs expose their own stop reason.
        let results = runner.run(&instances, &RunControl::new());
        for result in &results {
            let reason = stop_reason_of(result).expect("completed slots carry a reason");
            assert!(!reason.is_interrupted(), "uncontrolled runs complete");
        }
        // Pre-cancelled slots surface the interruption that skipped them.
        let flag = CancelFlag::new();
        flag.cancel();
        let control = RunControl::new().with_cancel_flag(flag);
        let results = runner.run(&instances, &control);
        for result in &results {
            assert_eq!(stop_reason_of(result), Some(StopReason::Cancelled));
        }
        // Non-interruption errors yield no reason.
        let err: Result<OptimizationOutcome, CoreError> = Err(CoreError::InvalidConfig {
            name: "max_iterations",
            reason: "must be positive".into(),
        });
        assert_eq!(stop_reason_of(&err), None);
    }

    #[test]
    fn shared_observer_sees_every_instance() {
        let instances = instances();
        let collector = CollectObserver::new();
        let control = RunControl::new().with_observer(&collector);
        let results = BatchRunner::new(quick_config())
            .with_threads(2)
            .run(&instances, &control);
        let total: usize = results
            .iter()
            .map(|r| r.as_ref().unwrap().report.iterations)
            .sum();
        assert_eq!(collector.count(), total);
    }
}
