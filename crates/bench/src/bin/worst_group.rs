//! `worst_group` — the worst single correlated failure on the paper's
//! networks, by exhaustive search: every one of the `srlg` scenario's four
//! groups of three links, every pair of them, and every node, each failed
//! on a copy of a loaded network. Each worst event's drops are split by
//! cause: no route avoids the node (cut), the backup shared the event,
//! the backup could not activate, or there was no backup.
//!
//! ```text
//! worst_group [--quick]
//! ```
//!
//! The full run loads 1 000 to 4 500 connections on the 100-node Waxman
//! and Tier networks under seeds 2001–2003; `--quick` loads 1 000 under
//! seed 2001. The rows go to `target/experiments/worst_group.csv`.

use drqos_analysis::report::TextTable;
use drqos_bench::worst::{export, worst_group};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (targets, seeds): (&[usize], &[u64]) = if quick {
        (&[1_000], &[2001])
    } else {
        (&[1_000, 2_000, 3_000, 4_500], &[2001, 2002, 2003])
    };
    let rows = worst_group(targets, seeds);
    let mut table = TextTable::new([
        "graph",
        "seed",
        "admitted",
        "k1 (shared/inactive/none)",
        "k2 (shared/inactive/none)",
        "node (cut/crossed/inactive/none)",
    ]);
    // A worst event: its total, then its drops by cause.
    let split = |total: usize, causes: &[usize]| {
        let causes: Vec<String> = causes.iter().map(usize::to_string).collect();
        format!("{total} ({})", causes.join("/"))
    };
    for r in &rows {
        let (k1, k2, n) = (r.k1, r.k2, r.node);
        table.row([
            r.graph.to_string(),
            r.seed.to_string(),
            r.admitted.to_string(),
            split(k1.total(), &[k1.shared, k1.inactive, k1.unprotected]),
            split(k2.total(), &[k2.shared, k2.inactive, k2.unprotected]),
            split(n.total(), &[n.cut, n.shared, n.inactive, n.unprotected]),
        ]);
    }
    println!("Worst correlated failure: dropped DR-connections per event\n");
    print!("{}", table.render());
    export(&rows);
}
