//! Experiment implementations, one module per paper artifact.

pub mod ablation;
pub mod control;
pub mod engine_bench;
pub mod fig2;
pub mod fig5;
pub mod modes;
pub mod net_bench;
pub mod policy_sweep;
pub mod scale;
pub mod scenario;
pub mod spec_run;
pub mod sweep;

use crate::grid::{Entry, Options};
use spec_run::ScenarioSpec;

/// The table of grids: every experiment behind a `BENCH_*.json`, in the
/// order `repro all` runs them and `repro gate` reports them. One line
/// here makes a [`Grid`](crate::grid::Grid) a `repro` target, a gated
/// artifact, a `--help` entry and a subject of the table-driven tests.
pub const GRIDS: [Entry; 8] = [
    Entry::of::<engine_bench::EngineBenchConfig>(),
    Entry::of::<engine_bench::GradientKernelConfig>(),
    Entry::of::<policy_sweep::PolicySweepConfig>(),
    Entry::of::<modes::ModesConfig>(),
    Entry::of::<scale::ScaleBenchConfig>(),
    Entry::of::<net_bench::NetBenchConfig>(),
    Entry::of::<control::ControlConfig>(),
    Entry::of::<sweep::SweepConfig>(),
];

/// Every tracked paper spec as `(repro target, file stem, spec)`, in the
/// order `repro fig4 table1 table2 ablations` writes them under
/// `experiments/`: Table I and II's scenarios at `options`' round count,
/// then the ablations a spec list describes.
#[must_use]
pub fn paper_specs(options: Options) -> Vec<(&'static str, &'static str, ScenarioSpec)> {
    let tables = [
        (
            "table1",
            "table1_scenario_one",
            scenario::ScenarioConfig::scenario_one(),
        ),
        (
            "table2",
            "table2_scenario_two",
            scenario::ScenarioConfig::scenario_two(),
        ),
    ];
    let mut specs: Vec<_> = tables
        .into_iter()
        .map(|(target, name, mut cfg)| {
            cfg.iterations = scenario::table_iterations(options);
            (target, name, cfg.scenario_spec())
        })
        .collect();
    let ablations = ablation::specs(ablation::SEED);
    specs.extend(
        ablations
            .into_iter()
            .map(|(name, spec)| ("ablations", name, spec)),
    );
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{run, Grid};
    use serde::{Serialize, Value};

    /// Runs the grid at pool widths 1 (the calling thread), 2 and 8 (more
    /// than some grids have cells): everything but the host wall clock
    /// must be bit-identical.
    fn assert_thread_count_invariant<G: Grid>(with_threads: impl Fn(usize) -> G) -> &'static str {
        let rows_at = |threads| -> Vec<Value> {
            let mut rows: Vec<Value> = run(&with_threads(threads))
                .rows
                .iter()
                .map(Serialize::to_value)
                .collect();
            for row in &mut rows {
                let Value::Object(fields) = row else {
                    panic!("rows serialize as objects, got {row:?}")
                };
                fields.retain(|(key, _)| key != "wall_seconds");
            }
            rows
        };
        let serial = rows_at(1);
        assert!(!serial.is_empty(), "{}", G::TARGET);
        assert_eq!(serial, rows_at(2), "{}: 2 threads", G::TARGET);
        assert_eq!(serial, rows_at(8), "{}: 8 threads", G::TARGET);
        G::TARGET
    }

    #[test]
    fn results_are_thread_count_invariant() {
        use {control::ControlConfig, modes::ModesConfig, policy_sweep::PolicySweepConfig};
        let checked = [
            assert_thread_count_invariant(|threads| PolicySweepConfig {
                threads,
                ..policy_sweep::tests::tiny()
            }),
            assert_thread_count_invariant(|threads| ModesConfig {
                threads,
                ..modes::tests::tiny()
            }),
            assert_thread_count_invariant(|threads| ControlConfig {
                threads,
                ..control::tests::tiny()
            }),
            assert_thread_count_invariant(|threads| sweep::SweepConfig {
                threads,
                ..sweep::tests::tiny()
            }),
        ];
        let pooled: Vec<&str> = GRIDS
            .iter()
            .filter(|g| (g.pooled)())
            .map(|g| g.target)
            .collect();
        assert_eq!(
            checked.to_vec(),
            pooled,
            "every pooled grid of the table is checked"
        );
    }
}
