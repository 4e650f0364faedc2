//! The fuzzer's case model: what one seeded case is, shared by every
//! row of the lockstep table ([`crate::lockstep::subjects`]).
//!
//! A case seed ([`case_seed`]) fixes a [`Scenario`] — topology, capacity,
//! backups, QoS template and operation mix — and an operation stream
//! (`case_ops`) of establish / release / fail-link / fail-node /
//! fail-srlg / repair-srlg / repair-link [`Op`]s, so a sequence number
//! addresses the same workload in every row. `render_case` prints both
//! as the prelude of a copy-pasteable reproducer.
//!
//! Operand encoding makes sequences *shrinkable*: every operation carries
//! raw `u64` operands that are resolved **modulo the current candidate
//! list** (live connections, up links, ...) at application time, so
//! deleting earlier operations never invalidates later ones — they just
//! resolve to different (still legal) targets. The one seeded driver,
//! [`crate::lockstep::SubjectRow::run`], shrinks a failing case with
//! [`drqos_sim::shrink::shrink_by`] on that property.

use drqos_core::network::{Network, NetworkConfig};
use drqos_core::qos::{Bandwidth, ElasticQos};
use drqos_sim::rng::{Rng, SplitMix64};
use drqos_topology::graph::Graph;
use drqos_topology::waxman;

/// One fuzzer operation. Operands are raw and position-independent: they
/// are resolved against the network's current candidate lists when the
/// operation is applied (see the module docs), so any subsequence of a
/// generated sequence is itself a valid sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Attempt a DR-connection between two nodes (resolved mod node
    /// count, destination skewed off the source). Admission rejections
    /// are legal outcomes, not failures.
    Establish {
        /// Raw source selector.
        src: u64,
        /// Raw destination selector.
        dst: u64,
    },
    /// Release a live connection (resolved mod the live list; no-op when
    /// none are live).
    Release {
        /// Raw selector into the live-connection list.
        pick: u64,
    },
    /// Fail an up link (resolved mod the up-link list; no-op when every
    /// link is already down).
    FailLink {
        /// Raw selector into the up-link list.
        pick: u64,
    },
    /// Fail a node that still has at least one up adjacent link (no-op
    /// when none qualifies).
    FailNode {
        /// Raw selector into the qualifying-node list.
        pick: u64,
    },
    /// Repair a down link (resolved mod the down-link list; no-op when
    /// everything is up).
    RepairLink {
        /// Raw selector into the down-link list.
        pick: u64,
    },
    /// Fire a shared-risk link group: fail every currently-up member
    /// atomically (resolved mod the groups-with-an-up-member list; no-op
    /// when every group is fully down).
    FailSrlg {
        /// Raw selector into the groups-with-an-up-member list.
        pick: u64,
    },
    /// Repair a shared-risk link group: bring every down member back up
    /// (resolved mod the groups-with-a-down-member list; no-op when every
    /// group is fully up).
    RepairSrlg {
        /// Raw selector into the groups-with-a-down-member list.
        pick: u64,
    },
}

/// The weights a case draws its operations with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpMix {
    /// 40% establish, 25% release, 13% fail-link, 5% fail-node, 3%
    /// fail-srlg, 3% repair-srlg, 11% repair-link.
    #[default]
    Standard,
    /// Failures outpace repairs more than four to one, so faults pile up and a
    /// second failover can land on reservation the first one spent: 35%
    /// establish, 10% release, 30% fail-link, 10% fail-node, 5% fail-srlg,
    /// 2% repair-srlg, 8% repair-link.
    FailHeavy,
}

impl OpMix {
    /// Cumulative percentages of establish, release, fail-link,
    /// fail-node, fail-srlg and repair-srlg; repair-link takes the rest.
    fn thresholds(self) -> [usize; 6] {
        match self {
            OpMix::Standard => [40, 65, 78, 83, 86, 89],
            OpMix::FailHeavy => [35, 45, 75, 85, 90, 92],
        }
    }
}

/// Link capacities of the starved tier, in Kbps: room for three or four
/// minima of the QoS template, so multiplexed backup reservations run
/// out.
const STARVED_KBPS: [u64; 2] = [300, 400];

/// Deterministic parameters of one fuzz case: topology, QoS template and
/// operation mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Node count of the random Waxman topology.
    pub nodes: usize,
    /// Uniform link capacity in Kbps.
    pub capacity_kbps: u64,
    /// Backups per connection.
    pub backup_count: usize,
    /// Δ of the elastic 100–500 Kbps QoS template.
    pub increment_kbps: u64,
    /// Seed for the topology generator.
    pub graph_seed: u64,
    /// The weights of the case's operation stream.
    pub mix: OpMix,
}

impl Scenario {
    /// Derives scenario parameters from a case seed (split-mix mixed, so
    /// nearby seeds give unrelated scenarios). One case in four is in the
    /// starved tier (`STARVED_KBPS`), and one in three draws the
    /// [`OpMix::FailHeavy`] stream, independently; the tier and the mix
    /// are drawn after the other fields, which they leave as they were.
    pub fn from_seed(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        let nodes = 8 + (mix.next_u64() % 17) as usize; // 8..=24
        let mut capacity_kbps = [800, 1_500, 3_000][(mix.next_u64() % 3) as usize];
        let backup_count = 1 + (mix.next_u64() % 2) as usize; // 1..=2
        let increment_kbps = [50, 100, 200][(mix.next_u64() % 3) as usize];
        let graph_seed = mix.next_u64();
        let tier = mix.next_u64();
        if tier.is_multiple_of(4) {
            capacity_kbps = STARVED_KBPS[(tier / 4 % 2) as usize];
        }
        let op_mix = if mix.next_u64().is_multiple_of(3) {
            OpMix::FailHeavy
        } else {
            OpMix::Standard
        };
        Scenario {
            nodes,
            capacity_kbps,
            backup_count,
            increment_kbps,
            graph_seed,
            mix: op_mix,
        }
    }

    /// The QoS template every establish uses.
    pub fn qos(&self) -> ElasticQos {
        ElasticQos::paper_video(self.increment_kbps)
    }

    /// Builds the scenario's topology.
    pub fn graph(&self) -> Graph {
        waxman::WaxmanConfig::new(self.nodes, 0.8, 0.4)
            .expect("static parameters are valid")
            .generate(&mut Rng::seed_from_u64(self.graph_seed))
            .expect("valid config")
    }

    /// Builds the scenario's network. Three seeded shared-risk groups of
    /// two links each are registered (derived from `graph_seed`, so the
    /// five scenario fields stay a complete reproducer); registration is
    /// inert until a [`Op::FailSrlg`] fires.
    pub fn network(&self) -> Network {
        let mut net = Network::new(
            self.graph(),
            NetworkConfig {
                capacity: Bandwidth::kbps(self.capacity_kbps),
                backup_count: self.backup_count,
                ..NetworkConfig::default()
            },
        );
        drqos_core::register_seeded_srlgs(&mut net, SRLG_GROUPS, SRLG_GROUP_SIZE, self.graph_seed);
        net
    }
}

/// Shared-risk groups registered on every fuzz network.
const SRLG_GROUPS: usize = 3;
/// Links per fuzz shared-risk group (small, so groups overlap node
/// failures often enough to exercise the skip-already-down path).
const SRLG_GROUP_SIZE: usize = 2;

/// Generates `len` operations with the standard weights
/// ([`OpMix::Standard`]).
#[cfg(test)]
pub(crate) fn generate_ops(rng: &mut Rng, len: usize) -> Vec<Op> {
    generate_mix(rng, len, OpMix::Standard)
}

/// Generates `len` operations with the weights of `mix`.
pub(crate) fn generate_mix(rng: &mut Rng, len: usize, mix: OpMix) -> Vec<Op> {
    let [establish, release, fail_link, fail_node, fail_srlg, repair_srlg] = mix.thresholds();
    (0..len)
        .map(|_| {
            let roll = rng.range_usize(100);
            if roll < establish {
                Op::Establish {
                    src: rng.next_u64(),
                    dst: rng.next_u64(),
                }
            } else if roll < release {
                Op::Release {
                    pick: rng.next_u64(),
                }
            } else if roll < fail_link {
                Op::FailLink {
                    pick: rng.next_u64(),
                }
            } else if roll < fail_node {
                Op::FailNode {
                    pick: rng.next_u64(),
                }
            } else if roll < fail_srlg {
                Op::FailSrlg {
                    pick: rng.next_u64(),
                }
            } else if roll < repair_srlg {
                Op::RepairSrlg {
                    pick: rng.next_u64(),
                }
            } else {
                Op::RepairLink {
                    pick: rng.next_u64(),
                }
            }
        })
        .collect()
}

/// The operation stream of one case: every row of the lockstep table
/// replays exactly this stream for a case seed, so a sequence number
/// addresses the same workload everywhere. Its weights are the case's
/// [`Scenario::mix`].
pub(crate) fn case_ops(case_seed: u64, len: usize) -> Vec<Op> {
    let mix = Scenario::from_seed(case_seed).mix;
    let mut rng = Rng::seed_from_u64(case_seed ^ 0x4655_5A5A); // ASCII "FUZZ"
    generate_mix(&mut rng, len, mix)
}

/// Renders the `let scenario = ...; let ops = vec![...];` prelude shared
/// by every copy-pasteable reproducer.
pub(crate) fn render_case(scenario: &Scenario, ops: &[Op]) -> String {
    let mut out = format!(
        "let scenario = Scenario {{ nodes: {}, capacity_kbps: {}, backup_count: {}, \
         increment_kbps: {}, graph_seed: {:#x}, mix: OpMix::{:?} }};\nlet ops = vec![\n",
        scenario.nodes,
        scenario.capacity_kbps,
        scenario.backup_count,
        scenario.increment_kbps,
        scenario.graph_seed,
        scenario.mix
    );
    for op in ops {
        out.push_str(&format!("    Op::{op:?},\n"));
    }
    out.push_str("];\n");
    out
}

/// Derives the per-case seed from the base seed (split-mix mixed).
pub fn case_seed(base: u64, case: u64) -> u64 {
    let mut mix = SplitMix64::new(base ^ SplitMix64::new(case).next_u64());
    mix.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::{caught_and_shrunk, subject, Case, Config, SubjectRow};
    use drqos_sim::shrink::shrink_by;

    fn invariants() -> SubjectRow {
        subject("invariants").expect("the invariant row")
    }

    fn clean(seed: u64) -> Case {
        Case {
            param: 0,
            seed,
            mutant: None,
        }
    }

    #[test]
    fn scenarios_are_deterministic_and_varied() {
        let a = Scenario::from_seed(1);
        assert_eq!(a, Scenario::from_seed(1));
        let distinct: std::collections::BTreeSet<usize> =
            (0..32).map(|s| Scenario::from_seed(s).nodes).collect();
        assert!(distinct.len() > 3, "node counts should vary: {distinct:?}");
        for s in 0..16 {
            let sc = Scenario::from_seed(s);
            assert!((8..=24).contains(&sc.nodes));
            assert!((1..=2).contains(&sc.backup_count));
        }
    }

    #[test]
    fn clean_sequences_produce_no_violations() {
        let config = Config {
            sequences: 20,
            ops_per_sequence: 40,
            seed: 7,
        };
        let outcome = invariants().run(&config, 0);
        assert!(
            outcome.failure.is_none(),
            "unexpected violation:\n{}",
            outcome.failure.unwrap().reproducer()
        );
        assert_eq!(outcome.sequences_run, 20);
    }

    #[test]
    fn injected_fault_is_caught_and_shrunk_small() {
        let failure = caught_and_shrunk("invariants", "LoseRelease");
        assert!(
            failure.shrunk.len() <= 10,
            "reproducer should be tiny, got {} ops",
            failure.shrunk.len()
        );
        // Each violation carries the tag of the check that found it.
        assert!(
            failure
                .divergence
                .detail
                .contains("[reference-model] live set diverged"),
            "{}",
            failure.divergence
        );
        let repro = failure.reproducer();
        assert!(repro.contains("Scenario {"));
        assert!(repro.contains("Op::"));
    }

    #[test]
    fn lost_srlg_repair_is_caught_and_shrunk_small() {
        let failure = caught_and_shrunk("invariants", "LoseSrlgRepair");
        assert!(
            failure.shrunk.len() <= 10,
            "reproducer should be tiny, got {} ops",
            failure.shrunk.len()
        );
        assert!(failure
            .shrunk
            .iter()
            .any(|op| matches!(op, Op::RepairSrlg { .. })));
    }

    #[test]
    fn the_starved_tier_and_the_fail_heavy_mix_are_drawn_and_printed() {
        let scenarios: Vec<Scenario> = (0..64).map(Scenario::from_seed).collect();
        let starved = |s: &&Scenario| s.capacity_kbps <= 400;
        let heavy = |s: &&Scenario| s.mix == OpMix::FailHeavy;
        assert!(scenarios.iter().filter(starved).count() > 8);
        assert!(scenarios.iter().filter(heavy).count() > 12);
        let both = scenarios.iter().filter(starved).find(heavy);
        let both = both.expect("a starved, fail-heavy case");
        let rendered = render_case(both, &[]);
        assert!(rendered.contains("mix: OpMix::FailHeavy"), "{rendered}");
        // Failures outpace repairs in a fail-heavy stream.
        let ops = generate_mix(&mut Rng::seed_from_u64(9), 1_000, OpMix::FailHeavy);
        let fails = ops.iter().filter(|op| {
            matches!(
                op,
                Op::FailLink { .. } | Op::FailNode { .. } | Op::FailSrlg { .. }
            )
        });
        let repairs = ops
            .iter()
            .filter(|op| matches!(op, Op::RepairLink { .. } | Op::RepairSrlg { .. }));
        assert!(fails.count() > 3 * repairs.count());
    }

    #[test]
    fn srlg_ops_appear_in_generated_streams() {
        let mut rng = Rng::seed_from_u64(42);
        let ops = generate_ops(&mut rng, 400);
        assert!(ops.iter().any(|op| matches!(op, Op::FailSrlg { .. })));
        assert!(ops.iter().any(|op| matches!(op, Op::RepairSrlg { .. })));
    }

    #[test]
    fn shrink_is_a_noop_on_passing_sequences() {
        let scenario = Scenario::from_seed(3);
        let mut rng = Rng::seed_from_u64(3);
        let ops = generate_ops(&mut rng, 10);
        let fails_at = |ops: &[Op]| {
            invariants()
                .run_sequence(&scenario, ops, clean(3))
                .map(|d| d.step)
        };
        assert_eq!(fails_at(&ops), None);
        assert_eq!(shrink_by(&ops, fails_at), ops);
    }

    #[test]
    fn subsequences_stay_legal() {
        // The shrinkability contract: dropping any prefix of a sequence
        // leaves a sequence the checked network can still apply without
        // panicking or breaking an invariant.
        let scenario = Scenario::from_seed(11);
        let mut rng = Rng::seed_from_u64(11);
        let ops = generate_ops(&mut rng, 30);
        for skip in [1usize, 7, 15, 29] {
            let divergence = invariants().run_sequence(&scenario, &ops[skip..], clean(11));
            assert_eq!(divergence, None);
        }
    }
}
