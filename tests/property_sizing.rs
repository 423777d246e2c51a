//! Property-based tests of the Lagrangian sizing engine on randomly
//! generated circuits: bound respect, determinism, monotone response to
//! the multipliers, and weak duality of the OGWS bounds.

use ncgws::core::{
    build_coupling, ConstraintBounds, Flow, LrsSolver, Multipliers, OptimizerConfig,
    OrderingStrategy, SizingProblem, SolveStrategy,
};
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use proptest::prelude::*;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("sz-{seed}"), gates, gates * 2 + 5)
            .with_seed(seed)
            .with_num_patterns(8),
    )
    .generate()
    .expect("generation succeeds")
}

fn loose_bounds() -> ConstraintBounds {
    ConstraintBounds {
        delay: 1e15,
        total_capacitance: 1e15,
        crosstalk: 1e15,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn lrs_solutions_respect_bounds_for_any_multiplier_scale(
        seed in 0u64..500,
        gates in 12usize..40,
        edge_scale in 1e-6f64..1e3,
        beta in 0.0f64..10.0,
        gamma in 0.0f64..10.0,
    ) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem =
            SizingProblem::new(&inst.circuit, &ordering.coupling, loose_bounds()).expect("problem");
        let mut multipliers = Multipliers::uniform(&inst.circuit, edge_scale, 0.0);
        multipliers.beta = beta;
        multipliers.gamma = gamma;
        let outcome = LrsSolver::new(40, 1e-7).solve(&problem, &multipliers);
        prop_assert!(inst.circuit.check_sizes(&outcome.sizes).is_ok());
        prop_assert!(outcome.sweeps >= 1);
    }

    #[test]
    fn lrs_is_deterministic(seed in 0u64..300, gates in 12usize..30) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem =
            SizingProblem::new(&inst.circuit, &ordering.coupling, loose_bounds()).expect("problem");
        let multipliers = Multipliers::uniform(&inst.circuit, 0.01, 0.5);
        let solver = LrsSolver::new(40, 1e-7);
        let a = solver.solve(&problem, &multipliers);
        let b = solver.solve(&problem, &multipliers);
        prop_assert_eq!(a.sizes, b.sizes);
    }

    #[test]
    fn uniformly_larger_delay_weights_never_shrink_total_size(
        seed in 0u64..300,
        gates in 12usize..30,
        low in 1e-5f64..1e-2,
        factor in 2.0f64..50.0,
    ) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem =
            SizingProblem::new(&inst.circuit, &ordering.coupling, loose_bounds()).expect("problem");
        let solver = LrsSolver::new(60, 1e-8);
        let small = solver.solve(&problem, &Multipliers::uniform(&inst.circuit, low, 0.0));
        let large =
            solver.solve(&problem, &Multipliers::uniform(&inst.circuit, low * factor, 0.0));
        prop_assert!(large.sizes.sum() >= small.sizes.sum() - 1e-9);
    }

    #[test]
    fn larger_power_multiplier_never_grows_total_size(
        seed in 0u64..300,
        gates in 12usize..30,
        beta in 1.0f64..100.0,
    ) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem =
            SizingProblem::new(&inst.circuit, &ordering.coupling, loose_bounds()).expect("problem");
        let solver = LrsSolver::new(60, 1e-8);
        let mut m = Multipliers::uniform(&inst.circuit, 0.05, 0.0);
        let relaxed = solver.solve(&problem, &m);
        m.beta = beta;
        let constrained = solver.solve(&problem, &m);
        prop_assert!(constrained.sizes.sum() <= relaxed.sizes.sum() + 1e-9);
    }

    /// Weak duality on the raw iteration records: every dual value is a
    /// lower bound on the optimum, so the largest one may not exceed the
    /// area of any iterate that violates no constraint. The stored gap is
    /// clamped at zero, so the check reads `dual_value` and `primal_area`
    /// directly.
    #[test]
    fn best_dual_never_exceeds_a_feasible_primal_area(
        seed in 0u64..300,
        gates in 12usize..30,
    ) {
        let inst = instance(seed, gates);
        for strategy in [SolveStrategy::Exact, SolveStrategy::adaptive()] {
            let config = OptimizerConfig::builder()
                .max_iterations(60)
                .solve_strategy(strategy.clone())
                .build()
                .expect("valid configuration");
            let sized = Flow::prepare(&inst, config)
                .expect("prepare")
                .order()
                .expect("order")
                .size()
                .expect("size");
            let records = &sized.report.iteration_records;
            let max_dual = records
                .iter()
                .map(|r| r.dual_value)
                .fold(f64::NEG_INFINITY, f64::max);
            let min_feasible_area = records
                .iter()
                .filter(|r| {
                    r.delay_violation <= 0.0
                        && r.power_violation <= 0.0
                        && r.crosstalk_violation <= 0.0
                        && r.extra_violation <= 0.0
                })
                .map(|r| r.primal_area)
                .fold(f64::INFINITY, f64::min);
            prop_assert!(
                max_dual <= min_feasible_area,
                "{:?}: dual {} above feasible area {}",
                strategy,
                max_dual,
                min_feasible_area
            );
        }
    }
}
