//! The operation-sequence fuzzer.
//!
//! A seeded generator drives a [`Network`] through random interleavings
//! of establish / release / fail-link / fail-node / repair-link
//! operations. After every operation the [`Harness`] compares the network
//! against the [`ReferenceModel`] and runs the standard [`Oracle`]; any
//! violation fails the sequence.
//!
//! Operand encoding makes sequences *shrinkable*: every operation carries
//! raw `u64` operands that are resolved **modulo the current candidate
//! list** (live connections, up links, ...) at application time, so
//! deleting earlier operations never invalidates later ones — they just
//! resolve to different (still legal) targets. [`shrink`] exploits this
//! with delta-debugging: it removes ever-smaller chunks while the
//! sequence still fails, converging on a minimal reproducer that
//! [`FuzzFailure::reproducer`] prints as copy-pasteable Rust.
//!
//! [`InjectedFault`] deliberately desynchronizes the books mid-run — the
//! mutation check proving the detector actually detects (and the shrinker
//! actually shrinks; see `testkit_chaos.rs`).

use crate::lockstep::resolve_op;
use crate::oracle::{Oracle, Violation};
use crate::reference::ReferenceModel;
use drqos_cluster::ApplyOutcome;
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

/// A deliberately injected accounting bug, used as a mutation check: the
/// fuzzer must catch it and shrink the witness to a handful of
/// operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectedFault {
    /// No fault: the harness mirrors every operation faithfully.
    #[default]
    None,
    /// Releases are applied to the network but *not* to the reference —
    /// the mirrored books keep charging the freed bandwidth, exactly the
    /// drift a forgotten `remove_primary` would cause.
    LoseRelease,
    /// Shared-risk group repairs are applied to the network but *not* to
    /// the reference — its mirrored link states stay down, the drift a
    /// repair path that forgot to fan out over the group would cause.
    LoseSrlgRepair,
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
    /// starved tier ([`STARVED_KBPS`]), and one in three draws the
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
        self.network_from(NetworkConfig::default())
    }

    /// Builds the scenario's network with the route cache explicitly
    /// forced on or off, ignoring the `DRQOS_ROUTE_CACHE` environment
    /// (differential runs must control both sides themselves). Registers
    /// the same seeded shared-risk groups as [`Scenario::network`].
    pub(crate) fn network_with_cache(&self, route_cache: bool) -> Network {
        self.network_from(NetworkConfig {
            route_cache,
            ..NetworkConfig::default()
        })
    }

    fn network_from(&self, base: NetworkConfig) -> Network {
        let mut net = Network::new(
            self.graph(),
            NetworkConfig {
                capacity: Bandwidth::kbps(self.capacity_kbps),
                backup_count: self.backup_count,
                ..base
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

/// Network + reference model + oracle, stepped one [`Op`] at a time.
pub struct Harness {
    net: Network,
    reference: ReferenceModel,
    oracle: Oracle,
    qos: ElasticQos,
    fault: InjectedFault,
}

impl Harness {
    /// Builds the harness for a scenario.
    pub fn new(scenario: &Scenario, fault: InjectedFault) -> Self {
        let net = scenario.network();
        let reference = ReferenceModel::new(&net);
        Harness {
            net,
            reference,
            oracle: Oracle::standard(),
            qos: scenario.qos(),
            fault,
        }
    }

    /// The network under test.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Applies one operation — operands resolved by the shared
    /// [`resolve_op`], the transition taken by the shared
    /// [`MemberOp::apply`] — tells the reference what came of it, then
    /// cross-checks network vs reference and runs every oracle. Returns all
    /// violations (empty = healthy).
    pub fn apply(&mut self, op: Op) -> Vec<Violation> {
        let mut violations = Vec::new();
        if let Some(resolved) = resolve_op(&self.net, self.qos, op) {
            let outcome = resolved.apply(&mut self.net);
            let lost = matches!(
                (self.fault, &outcome),
                (InjectedFault::LoseRelease, ApplyOutcome::Release(_))
                    | (InjectedFault::LoseSrlgRepair, ApplyOutcome::RepairSrlg(_))
            );
            if !lost {
                if let Err(message) = self.reference.observe(&self.net, resolved, &outcome) {
                    violations.push(Violation {
                        check: "legal-operand",
                        message,
                    });
                }
            }
        }
        let diffs = self.reference.compare(&self.net);
        violations.extend(diffs.into_iter().map(|message| Violation {
            check: "reference-model",
            message,
        }));
        violations.extend(self.oracle.run(&self.net));
        violations
    }
}

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

/// The operation stream of one case: every runner (the invariant fuzzer
/// and each lockstep differential) replays exactly this stream for a case
/// seed, so a sequence number addresses the same workload everywhere.
/// Its weights are the case's [`Scenario::mix`].
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

/// The first failing step of a sequence, with everything the oracles and
/// reference model reported there.
#[derive(Debug, Clone)]
pub struct SequenceFailure {
    /// Index of the failing operation.
    pub step: usize,
    /// The failing operation.
    pub op: Op,
    /// Every violation reported after applying it.
    pub violations: Vec<Violation>,
}

/// Runs a sequence from scratch, stopping at the first violating step.
pub fn run_sequence(
    scenario: &Scenario,
    ops: &[Op],
    fault: InjectedFault,
) -> Option<SequenceFailure> {
    let mut harness = Harness::new(scenario, fault);
    for (step, &op) in ops.iter().enumerate() {
        let violations = harness.apply(op);
        if !violations.is_empty() {
            return Some(SequenceFailure {
                step,
                op,
                violations,
            });
        }
    }
    None
}

/// Delta-debugging shrink: truncates at the first failing step, then
/// removes ever-smaller chunks while the sequence still fails. The result
/// still fails and no single further chunk removal of size 1 succeeds
/// (1-minimality).
pub(crate) fn shrink(scenario: &Scenario, ops: &[Op], fault: InjectedFault) -> Vec<Op> {
    shrink_by(ops, |candidate| {
        run_sequence(scenario, candidate, fault).map(|f| f.step)
    })
}

/// The generic delta-debugging engine behind [`shrink`]: `fails_at`
/// replays a candidate sequence and returns the failing step (`None` =
/// passes). Any failure predicate over operand-encoded sequences shrinks
/// this way — the invariant fuzzer and the lockstep driver
/// ([`crate::lockstep`]) share it.
pub(crate) fn shrink_by(ops: &[Op], fails_at: impl Fn(&[Op]) -> Option<usize>) -> Vec<Op> {
    let Some(step) = fails_at(ops) else {
        return ops.to_vec(); // not failing: nothing to shrink
    };
    let mut current: Vec<Op> = ops[..=step].to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            if !candidate.is_empty() && fails_at(&candidate).is_some() {
                current = candidate;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    current
}

/// Fuzzer budget and seed.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of independent operation sequences to run.
    pub sequences: usize,
    /// Operations per sequence.
    pub ops_per_sequence: usize,
    /// Base seed; case `i` derives its own scenario and operation stream.
    pub seed: u64,
    /// Fault to inject (for mutation checks).
    pub fault: InjectedFault,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            sequences: 100,
            ops_per_sequence: 60,
            seed: 2001,
            fault: InjectedFault::None,
        }
    }
}

/// A failing fuzz case, shrunk and ready to report.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The derived case seed (scenario and operations follow from it).
    pub case_seed: u64,
    /// The scenario the case ran under.
    pub scenario: Scenario,
    /// The original failing sequence.
    pub ops: Vec<Op>,
    /// The shrunk reproducer.
    pub shrunk: Vec<Op>,
    /// Violations at the failing step of the shrunk sequence.
    pub violations: Vec<Violation>,
    /// Fault that was injected, if any.
    pub fault: InjectedFault,
}

impl FuzzFailure {
    /// Renders the shrunk case as a copy-pasteable Rust snippet.
    pub fn reproducer(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "// drqos-testkit reproducer (case seed {:#x}, {} op(s) after shrinking)\n",
            self.case_seed,
            self.shrunk.len()
        ));
        out.push_str(&render_case(&self.scenario, &self.shrunk));
        out.push_str(&format!(
            "let failure = run_sequence(&scenario, &ops, InjectedFault::{:?})\n    \
             .expect(\"reproduces the violation\");\n",
            self.fault
        ));
        for v in &self.violations {
            out.push_str(&format!("// {v}\n"));
        }
        out
    }
}

/// Outcome of a fuzz run: how many sequences ran clean, and the first
/// failure (shrunk) if any.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Sequences completed without a violation.
    pub sequences_run: usize,
    /// The first failing case, if any, already shrunk.
    pub failure: Option<FuzzFailure>,
}

/// Derives the per-case seed from the base seed (split-mix mixed).
pub fn case_seed(base: u64, case: u64) -> u64 {
    let mut mix = SplitMix64::new(base ^ SplitMix64::new(case).next_u64());
    mix.next_u64()
}

/// Runs the fuzzer: independent seeded sequences, stopping at (and
/// shrinking) the first failure.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzOutcome {
    for case in 0..config.sequences {
        let seed = case_seed(config.seed, case as u64);
        let scenario = Scenario::from_seed(seed);
        let ops = case_ops(seed, config.ops_per_sequence);
        if run_sequence(&scenario, &ops, config.fault).is_some() {
            let shrunk = shrink(&scenario, &ops, config.fault);
            let violations = run_sequence(&scenario, &shrunk, config.fault)
                .expect("shrink preserves failure")
                .violations;
            return FuzzOutcome {
                sequences_run: case,
                failure: Some(FuzzFailure {
                    case_seed: seed,
                    scenario,
                    ops,
                    shrunk,
                    violations,
                    fault: config.fault,
                }),
            };
        }
    }
    FuzzOutcome {
        sequences_run: config.sequences,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let outcome = run_fuzz(&FuzzConfig {
            sequences: 20,
            ops_per_sequence: 40,
            seed: 7,
            fault: InjectedFault::None,
        });
        assert!(
            outcome.failure.is_none(),
            "unexpected violation:\n{}",
            outcome.failure.unwrap().reproducer()
        );
        assert_eq!(outcome.sequences_run, 20);
    }

    #[test]
    fn injected_fault_is_caught_and_shrunk_small() {
        let outcome = run_fuzz(&FuzzConfig {
            sequences: 50,
            ops_per_sequence: 30,
            seed: 7,
            fault: InjectedFault::LoseRelease,
        });
        let failure = outcome.failure.expect("the fault must be caught");
        assert!(
            failure.shrunk.len() <= 10,
            "reproducer should be tiny, got {} ops",
            failure.shrunk.len()
        );
        // The shrunk sequence replays to the same kind of failure.
        let replay = run_sequence(
            &failure.scenario,
            &failure.shrunk,
            InjectedFault::LoseRelease,
        )
        .expect("reproducer replays");
        assert!(!replay.violations.is_empty());
        let repro = failure.reproducer();
        assert!(repro.contains("Scenario {"));
        assert!(repro.contains("Op::"));
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
    fn lost_srlg_repair_is_caught_and_shrunk_small() {
        let outcome = run_fuzz(&FuzzConfig {
            sequences: 200,
            ops_per_sequence: 60,
            seed: 7,
            fault: InjectedFault::LoseSrlgRepair,
        });
        let failure = outcome.failure.expect("the fault must be caught");
        assert!(
            failure.shrunk.len() <= 10,
            "reproducer should be tiny, got {} ops",
            failure.shrunk.len()
        );
        assert!(failure
            .shrunk
            .iter()
            .any(|op| matches!(op, Op::RepairSrlg { .. })));
        let replay = run_sequence(
            &failure.scenario,
            &failure.shrunk,
            InjectedFault::LoseSrlgRepair,
        )
        .expect("reproducer replays");
        assert!(!replay.violations.is_empty());
    }

    #[test]
    fn shrink_is_a_noop_on_passing_sequences() {
        let scenario = Scenario::from_seed(3);
        let mut rng = Rng::seed_from_u64(3);
        let ops = generate_ops(&mut rng, 10);
        assert!(run_sequence(&scenario, &ops, InjectedFault::None).is_none());
        assert_eq!(shrink(&scenario, &ops, InjectedFault::None), ops);
    }

    #[test]
    fn subsequences_stay_legal() {
        // The shrinkability contract: dropping any prefix of a sequence
        // leaves a sequence the harness can still apply without panicking.
        let scenario = Scenario::from_seed(11);
        let mut rng = Rng::seed_from_u64(11);
        let ops = generate_ops(&mut rng, 30);
        for skip in [1usize, 7, 15, 29] {
            assert!(run_sequence(&scenario, &ops[skip..], InjectedFault::None).is_none());
        }
    }
}
