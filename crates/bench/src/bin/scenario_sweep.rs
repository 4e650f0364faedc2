//! `scenario_sweep` — the paper's sweeps re-run under adversarial
//! scenarios (flash crowd, diurnal modulation, Pareto holding times,
//! SRLG correlated failures) with a per-scenario model-vs-sim divergence
//! column.
//!
//! The Markov model is calibrated for flat Poisson arrivals, memoryless
//! holding, and independent link failures; this binary quantifies what
//! each departure from that regime costs the model. Two sweeps run: the
//! Figure 2 load sweep and the Figure 3 network-size sweep, each under
//! every [`ScenarioKind`](drqos_core::scenario::ScenarioKind). The
//! baseline rows anchor the divergence column — the adversarial rows show
//! where the model loses its grip.
//!
//! ```text
//! scenario_sweep [--quick]
//! ```
//!
//! `--quick` runs the scaled-down CI configuration (fewer load points,
//! shorter churn, no scaling sweep). Set `DRQOS_THREADS=n` to bound the
//! sweep's worker count; the series columns are byte-identical at any
//! thread count.

use drqos_analysis::report::{fmt_f64, TextTable};
use drqos_bench::runner::{export_sweep, Sweep};
use drqos_bench::{csv, scenario_scaling, scenario_sweep, ScenarioSweepRow};

fn print_and_export(title: &str, name: &str, x_label: &str, result: &Sweep<ScenarioSweepRow>) {
    let mut table = TextTable::new([
        "scenario",
        x_label,
        "active",
        "dropped",
        "simulation (Kbps)",
        "Markov model (Kbps)",
        "divergence",
    ]);
    for r in result.rows() {
        table.row([
            r.scenario.to_string(),
            r.nchan.to_string(),
            r.active.to_string(),
            r.dropped.to_string(),
            fmt_f64(r.sim, 1),
            fmt_f64(r.analytic, 1),
            if r.divergence.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}%", r.divergence * 100.0)
            },
        ]);
    }
    println!("{title}\n");
    print!("{}", table.render());

    export_sweep(
        name,
        &[
            "scenario",
            x_label,
            "active",
            "dropped",
            "simulation_kbps",
            "model_kbps",
            "divergence",
        ],
        result,
        |r| {
            vec![
                r.scenario.to_string(),
                r.nchan.to_string(),
                r.active.to_string(),
                r.dropped.to_string(),
                csv::cell(r.sim),
                csv::cell(r.analytic),
                csv::cell(r.divergence),
            ]
        },
    );
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let (points, churn) = if quick {
        (vec![150usize, 400], 400)
    } else {
        (vec![500usize, 1_500, 3_000, 4_500], 2_000)
    };
    let result = scenario_sweep(&points, churn, 2001);
    print_and_export(
        "Scenario sweep — Figure 2 load points under every adversarial scenario\n\
         (100-node Waxman network, Δ = 50 Kbps; divergence = |model − sim| / sim)",
        "scenario_sweep",
        "nchan",
        &result,
    );

    if !quick {
        let scaling = scenario_scaling(&[50, 100, 150], 2_000, 1_000, 2001);
        println!();
        print_and_export(
            "Scenario scaling — Figure 3 network sizes under every adversarial scenario\n\
             (constant-density Waxman growth, 2000 connections offered)",
            "scenario_scaling",
            "nodes",
            &scaling,
        );
    }
}
