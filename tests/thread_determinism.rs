//! The thread policy never changes a result.
//!
//! Stage 2 runs on the calling thread under every `ParallelPolicy`, so for
//! random small instances `Sequential` and `threads(1 | 2 | 8)` must give
//! bitwise-identical reports under both solve strategies. Only wall-clock
//! fields are masked before the comparison.

use ncgws::core::{
    Flow, OptimizationReport, OptimizerConfig, ParallelPolicy, SizedOutcome, SolveStrategy,
};
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use proptest::prelude::*;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("par-{seed}"), gates, gates * 2 + 5)
            .with_seed(seed)
            .with_num_patterns(8)
            .with_channel_size(5),
    )
    .generate()
    .expect("generation succeeds")
}

/// One full two-stage run (random channels, extra per-net and driven-load
/// families so `extra_multipliers` and `constraint_slacks` are non-trivial).
fn run(inst: &ProblemInstance, strategy: SolveStrategy, parallel: ParallelPolicy) -> SizedOutcome {
    let config = OptimizerConfig::builder()
        .max_iterations(40)
        .solve_strategy(strategy)
        .parallel(parallel)
        .per_net_crosstalk_cap(0.95)
        .driven_load_cap(1.5)
        .build()
        .expect("valid configuration");
    Flow::prepare(inst, config)
        .expect("prepare")
        .order()
        .expect("order")
        .size()
        .expect("size")
}

/// The report with its wall-clock fields zeroed.
fn untimed(outcome: &SizedOutcome) -> OptimizationReport {
    let mut report = outcome.report.clone();
    report.runtime_seconds = 0.0;
    report.seconds_per_iteration = 0.0;
    for record in &mut report.iteration_records {
        record.seconds = 0.0;
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn every_thread_policy_gives_the_sequential_report(
        seed in 0u64..300,
        gates in 12usize..30,
    ) {
        let inst = instance(seed, gates);
        for strategy in [SolveStrategy::Exact, SolveStrategy::adaptive()] {
            let sequential = run(&inst, strategy.clone(), ParallelPolicy::Sequential);
            let expected = untimed(&sequential);
            for threads in [1usize, 2, 8] {
                let other = run(&inst, strategy.clone(), ParallelPolicy::threads(threads));
                prop_assert_eq!(
                    &untimed(&other),
                    &expected,
                    "{:?} threads={}",
                    strategy,
                    threads
                );
                prop_assert_eq!(other.sizes(), sequential.sizes());
                prop_assert_eq!(&other.ogws.extra_multipliers, &sequential.ogws.extra_multipliers);
            }
        }
    }
}

/// The auto thread count (`threads = 0`) is accepted and, like every
/// explicit count, gives the sequential report.
#[test]
fn auto_thread_count_matches_explicit_counts() {
    let inst = instance(7, 20);
    for strategy in [SolveStrategy::Exact, SolveStrategy::adaptive()] {
        let sequential = run(&inst, strategy.clone(), ParallelPolicy::Sequential);
        let auto = run(&inst, strategy.clone(), ParallelPolicy::threads(0));
        let two = run(&inst, strategy.clone(), ParallelPolicy::threads(2));
        assert_eq!(untimed(&auto), untimed(&sequential), "{strategy:?} auto");
        assert_eq!(untimed(&auto), untimed(&two), "{strategy:?} auto vs two");
        assert_eq!(auto.sizes(), sequential.sizes());
    }
}
