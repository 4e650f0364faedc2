//! # drqos-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (Section 4), behind the runnable binaries (`fig2`,
//! `table1`, `fig3`, `fig4`, `ablation`, `scenario_sweep`), and the worst
//! correlated failure outside the paper's guarantee (`worst_group`).
//! Timing lives elsewhere: the repo's one yardstick is the `benchmark/` package
//! (`bench` end to end, `layers` per layer; PERF.md).
//!
//! Each harness returns plain data rows; the binaries render them with
//! [`drqos_analysis::report::TextTable`]. EXPERIMENTS.md records the
//! paper-vs-measured comparison for each of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod experiments;
pub mod pairs;
pub mod runner;
pub mod worst;

pub use experiments::{
    ablation, dependability, fig2, fig3, fig4, scenario_scaling, scenario_sweep, table1,
    AblationRow, DependabilityRow, Fig2Row, Fig3Row, Fig4Row, ScenarioSweepRow, Table1Row,
};
