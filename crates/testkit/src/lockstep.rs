//! The lockstep differential harness — the one loop behind
//! `fuzz --diff-cache | --diff-cluster`.
//!
//! The sequential [`Network`] is the admission authority; every faster
//! path (the route cache, the cluster federation) claims *exact*
//! equivalence to it. [`Lockstep`]
//! enforces such a claim: a fuzzed operation sequence is replayed against
//! a [`Subject`] and a sequential oracle side by side. Every operation is
//! one [`MemberOp`], applied to the subject ([`Subject::apply`]) and to the
//! oracle ([`MemberOp::apply`]), and after each one the two sides are
//! compared on:
//!
//! * the operation's own result (the full [`ApplyOutcome`]: admission
//!   `Ok`/`Err` with ids, failure reports, ...),
//! * and, for **every** network view the subject exposes
//!   ([`Subject::views`] — one network, or the cluster's authority plus
//!   each live replica): the cumulative drop counter, the topology epoch
//!   and a full [`NetworkSnapshot`].
//!
//! Raw operands are resolved by [`resolve_op`] against the *oracle's*
//! candidate lists (the same function [`crate::fuzz::Harness::apply`]
//! uses on its single network). Until the first divergence both sides
//! have identical candidate lists, so the choice of resolution side
//! cannot mask a bug: the first divergent operation is detected at the
//! step where it happens.
//!
//! A subject supplies only what differs — how it is built, how it applies
//! an operation, its views, an optional before-each-op hook (cluster
//! churn) and its **mutant**: a deliberately broken build
//! ([`Case::mutant`]) that `fuzz --self-test` requires the loop to catch
//! and shrink within [`Subject::SHRINK_BOUND`] operations. Everything else
//! — the loop, the comparison, [`Divergence`] / [`Failure`] / [`Outcome`],
//! the seeded driver with delta-debugging ([`crate::fuzz::shrink_by`]),
//! the reproducer — exists once, here. [`subjects`] is the table `fuzz`
//! and the table-driven tests iterate; adding a differential is one
//! `impl Subject` plus one row.

use crate::fuzz::{case_ops, case_seed, render_case, shrink_by, Op, Scenario};
use drqos_cluster::{ApplyOutcome, ClusterFault, ClusterSim, MemberOp};
use drqos_core::error::ClusterError;
use drqos_core::network::{EstablishRequest, Network};
use drqos_core::qos::ElasticQos;
use drqos_core::snapshot::NetworkSnapshot;
use drqos_sim::rng::Rng;
use drqos_topology::{LinkId, NodeId};

/// Resolves a raw operand against a candidate list (`None` when empty).
fn pick_from<T>(candidates: impl Iterator<Item = T>, pick: u64) -> Option<T> {
    let mut candidates: Vec<T> = candidates.collect();
    if candidates.is_empty() {
        return None;
    }
    let index = (pick % candidates.len() as u64) as usize;
    Some(candidates.swap_remove(index))
}

/// Resolves one fuzz operation against `net`'s current candidate lists
/// (live connections, up links, ...), or `None` when the list it picks
/// from is empty — the operation is then a legal no-op. This is the only
/// operand resolution in the testkit, so every runner replays a sequence
/// onto the same targets.
pub(crate) fn resolve_op(net: &Network, qos: ElasticQos, op: Op) -> Option<MemberOp> {
    let up = |l: LinkId| net.link_usage(l).is_up();
    // Shared-risk groups with at least one member in the given state.
    let groups_with = |want_up: bool| {
        (0..net.srlg_count()).filter(move |&g| {
            net.srlg_links(g)
                .is_some_and(|ls| ls.iter().any(|&l| up(l) == want_up))
        })
    };
    match op {
        Op::Establish { src, dst } => {
            // Destination skewed off the source; the node count never
            // changes, so this resolution is state-independent.
            let n = net.graph().node_count() as u64;
            let s = (src % n) as usize;
            let mut d = (dst % (n - 1)) as usize;
            if d >= s {
                d += 1;
            }
            let (src, dst) = (NodeId(s), NodeId(d));
            Some(MemberOp::Establish {
                req: EstablishRequest { src, dst, qos },
            })
        }
        Op::Release { pick } => {
            pick_from(net.connections().map(|c| c.id()), pick).map(|id| MemberOp::Release { id })
        }
        Op::FailLink { pick } => {
            pick_from(net.up_links(), pick).map(|link| MemberOp::FailLink { link })
        }
        Op::FailNode { pick } => {
            let has_up_link = |&n: &NodeId| net.graph().neighbors(n).iter().any(|&(_, l)| up(l));
            pick_from(net.graph().nodes().filter(has_up_link), pick)
                .map(|node| MemberOp::FailNode { node })
        }
        Op::RepairLink { pick } => {
            let down = net.graph().links().map(|l| l.id()).filter(|&l| !up(l));
            pick_from(down, pick).map(|link| MemberOp::RepairLink { link })
        }
        Op::FailSrlg { pick } => {
            pick_from(groups_with(true), pick).map(|group| MemberOp::FailSrlg { group })
        }
        Op::RepairSrlg { pick } => {
            pick_from(groups_with(false), pick).map(|group| MemberOp::RepairSrlg { group })
        }
    }
}

/// What one case runs at, beyond its scenario and operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    /// The subject's parameter — the member count; ignored by
    /// subjects whose [`Subject::UNIT`] is empty.
    pub param: usize,
    /// The case seed: the churn stream derives from it.
    pub seed: u64,
    /// Build the subject's mutant instead of the faithful subject.
    pub mutant: bool,
}

/// One side of a lockstep differential: a faster path that claims exact
/// equivalence to the sequential [`Network`].
pub trait Subject: Sized {
    /// Table name: the `--diff-<NAME>` flag, report lines, reproducers.
    const NAME: &'static str;
    /// What [`Case::param`] counts (`"member(s)"`); empty when the subject
    /// takes no parameter.
    const UNIT: &'static str = "";
    /// The parameter values `fuzz --diff-<NAME>` runs at.
    const GRID: &'static [usize] = &[0];
    /// The injected fault [`Case::mutant`] arms.
    const MUTANT: &'static str;
    /// The parameter the mutation check runs at.
    const MUTANT_PARAM: usize = 0;
    /// Largest acceptable shrunk witness of the mutant.
    const SHRINK_BOUND: usize;

    /// Builds the subject (its mutant when [`Case::mutant`] is set).
    fn build(scenario: &Scenario, case: Case) -> Self;

    /// Builds the sequential oracle the subject is held to.
    fn oracle(scenario: &Scenario) -> Network {
        scenario.network()
    }

    /// Applies one operation.
    ///
    /// # Errors
    ///
    /// A subject that forwards the operation may fail to; the loop reports
    /// that as a divergence.
    fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, ClusterError>;

    /// Every network that must equal the oracle, labelled for reports.
    fn views(&self) -> Vec<(String, &Network)>;

    /// Hook run before each operation; it must not touch network state
    /// (the oracle is not told).
    fn before_op(&mut self) {}
}

/// How a subject first disagreed with its oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the diverging operation.
    pub step: usize,
    /// The diverging operation.
    pub op: Op,
    /// Human-readable description of the first mismatch.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {} ({:?}): {}", self.step, self.op, self.detail)
    }
}

/// A subject and its oracle, stepped through a sequence side by side.
pub struct Lockstep<S: Subject> {
    subject: S,
    oracle: Network,
    qos: ElasticQos,
}

impl<S: Subject> Lockstep<S> {
    /// Pairs an already-built subject with an oracle (tests use this to
    /// arm extra faults; [`SubjectRow::run_sequence`] is the ordinary
    /// entry).
    pub fn new(subject: S, oracle: Network, qos: ElasticQos) -> Self {
        Lockstep {
            subject,
            oracle,
            qos,
        }
    }

    /// Replays `ops` on both sides and returns the first divergence, or
    /// `None` when the sequence is byte-identical throughout.
    pub fn run(&mut self, ops: &[Op]) -> Option<Divergence> {
        for (step, &op) in ops.iter().enumerate() {
            self.subject.before_op();
            let mismatch = resolve_op(&self.oracle, self.qos, op)
                .and_then(|member_op| self.apply_both(member_op))
                .or_else(|| self.compare_state());
            if let Some(detail) = mismatch {
                return Some(Divergence { step, op, detail });
            }
        }
        None
    }

    /// Applies one operation to both sides and compares the outcomes.
    fn apply_both(&mut self, op: MemberOp) -> Option<String> {
        let want = op.apply(&mut self.oracle);
        match self.subject.apply(op) {
            Ok(got) if got == want => None,
            Ok(got) => Some(format!(
                "{op:?} diverged: {} {got:?}, oracle {want:?}",
                S::NAME
            )),
            Err(e) => Some(format!("{op:?} failed on the {} side: {e}", S::NAME)),
        }
    }

    /// The one state comparison: drop counter, epoch and full snapshot of
    /// every view against the oracle.
    fn compare_state(&self) -> Option<String> {
        let want = NetworkSnapshot::capture(&self.oracle);
        for (label, net) in self.subject.views() {
            if net.dropped_total() != self.oracle.dropped_total() {
                return Some(format!(
                    "{label} drop counter diverged: {}, oracle {}",
                    net.dropped_total(),
                    self.oracle.dropped_total()
                ));
            }
            if net.topology_epoch() != self.oracle.topology_epoch() {
                return Some(format!(
                    "{label} topology epoch diverged: {}, oracle {}",
                    net.topology_epoch(),
                    self.oracle.topology_epoch()
                ));
            }
            let got = NetworkSnapshot::capture(net);
            if got != want {
                return Some(first_snapshot_mismatch(&label, &got, &want));
            }
        }
        None
    }
}

/// Pinpoints the first differing row of two snapshots.
fn first_snapshot_mismatch(label: &str, got: &NetworkSnapshot, want: &NetworkSnapshot) -> String {
    for (a, b) in got.links.iter().zip(&want.links) {
        if a != b {
            return format!("{label} link row diverged: {a:?}, oracle {b:?}");
        }
    }
    for (a, b) in got.connections.iter().zip(&want.connections) {
        if a != b {
            return format!("{label} connection row diverged: {a:?}, oracle {b:?}");
        }
    }
    format!(
        "{label} snapshot shape diverged: {} links / {} connections, oracle {} / {}",
        got.links.len(),
        got.connections.len(),
        want.links.len(),
        want.connections.len()
    )
}

/// The monomorphic body behind [`SubjectRow::run_pair`].
fn run_pair<S: Subject>(
    subject_scenario: &Scenario,
    oracle_scenario: &Scenario,
    ops: &[Op],
    case: Case,
) -> Option<Divergence> {
    Lockstep::new(
        S::build(subject_scenario, case),
        S::oracle(oracle_scenario),
        subject_scenario.qos(),
    )
    .run(ops)
}

/// One row of the subject table: a [`Subject`]'s constants plus its
/// type-erased entry point, so `fuzz` and the table-driven tests can
/// drive every subject without naming its type.
#[derive(Debug, Clone, Copy)]
pub struct SubjectRow {
    /// [`Subject::NAME`].
    pub name: &'static str,
    /// [`Subject::UNIT`].
    pub unit: &'static str,
    /// [`Subject::GRID`].
    pub grid: &'static [usize],
    /// [`Subject::MUTANT`].
    pub mutant: &'static str,
    /// [`Subject::MUTANT_PARAM`].
    pub mutant_param: usize,
    /// [`Subject::SHRINK_BOUND`].
    pub shrink_bound: usize,
    run_pair: fn(&Scenario, &Scenario, &[Op], Case) -> Option<Divergence>,
}

/// Budget and seed of a differential run (the same case seeds generate
/// the same scenarios and operation streams as the invariant fuzzer).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of independent operation sequences.
    pub sequences: usize,
    /// Operations per sequence.
    pub ops_per_sequence: usize,
    /// Base seed.
    pub seed: u64,
}

impl SubjectRow {
    /// The table row of subject `S`.
    pub fn of<S: Subject>() -> Self {
        SubjectRow {
            name: S::NAME,
            unit: S::UNIT,
            grid: S::GRID,
            mutant: S::MUTANT,
            mutant_param: S::MUTANT_PARAM,
            shrink_bound: S::SHRINK_BOUND,
            run_pair: run_pair::<S>,
        }
    }

    /// `" at 3 member(s)"`, or nothing for an unparameterised subject.
    pub fn at(&self, param: usize) -> String {
        if self.unit.is_empty() {
            String::new()
        } else {
            format!(" at {param} {}", self.unit)
        }
    }

    /// Replays `ops` against a fresh subject and a fresh oracle and
    /// returns the first divergence — the entry point reproducers name.
    pub fn run_sequence(&self, scenario: &Scenario, ops: &[Op], case: Case) -> Option<Divergence> {
        self.run_pair(scenario, scenario, ops, case)
    }

    /// Replays `ops` against a fresh subject built from
    /// `subject_scenario` and a fresh oracle built from `oracle_scenario`.
    /// The two are the same scenario in every real run; tests pass a
    /// mismatched pair to prove the comparison detects.
    pub(crate) fn run_pair(
        &self,
        subject_scenario: &Scenario,
        oracle_scenario: &Scenario,
        ops: &[Op],
        case: Case,
    ) -> Option<Divergence> {
        (self.run_pair)(subject_scenario, oracle_scenario, ops, case)
    }

    /// Runs the differential at one parameter value: independent seeded
    /// sequences, stopping at (and shrinking) the first divergence.
    pub fn run(&self, config: &Config, param: usize) -> Outcome {
        self.drive(config, param, false)
    }

    /// The mutation check: arms the subject's mutant and returns the
    /// first caught-and-shrunk failure within `sequences` 30-op cases, or
    /// `None` if the loop failed to catch it — in which case the detector
    /// itself has regressed. Used by `fuzz --self-test`.
    pub fn mutation_witness(&self, seed: u64, sequences: usize) -> Option<Failure> {
        let config = Config {
            sequences,
            ops_per_sequence: 30,
            seed,
        };
        self.drive(&config, self.mutant_param, true).failure
    }

    /// The one seeded driver.
    fn drive(&self, config: &Config, param: usize, mutant: bool) -> Outcome {
        for index in 0..config.sequences {
            let seed = case_seed(config.seed, index as u64);
            let scenario = Scenario::from_seed(seed);
            let ops = case_ops(seed, config.ops_per_sequence);
            let case = Case {
                param,
                seed,
                mutant,
            };
            if self.run_sequence(&scenario, &ops, case).is_none() {
                continue;
            }
            let shrunk = shrink_by(&ops, |candidate| {
                self.run_sequence(&scenario, candidate, case)
                    .map(|d| d.step)
            });
            let divergence = self
                .run_sequence(&scenario, &shrunk, case)
                .expect("shrink preserves the divergence");
            return Outcome {
                sequences_run: index,
                failure: Some(Failure {
                    row: *self,
                    case,
                    scenario,
                    ops,
                    shrunk,
                    divergence,
                }),
            };
        }
        Outcome {
            sequences_run: config.sequences,
            failure: None,
        }
    }
}

/// A diverging case, shrunk and ready to report.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The subject that diverged.
    pub row: SubjectRow,
    /// Parameter, case seed and mutant flag the case ran at.
    pub case: Case,
    /// The scenario the case ran under.
    pub scenario: Scenario,
    /// The original diverging sequence.
    pub ops: Vec<Op>,
    /// The shrunk reproducer.
    pub shrunk: Vec<Op>,
    /// The divergence at the shrunk sequence's failing step.
    pub divergence: Divergence,
}

impl Failure {
    /// Re-runs the shrunk case through [`SubjectRow::run_sequence`] — the
    /// call [`Failure::reproducer`] prints, with the same arguments.
    pub fn replay(&self) -> Option<Divergence> {
        self.row
            .run_sequence(&self.scenario, &self.shrunk, self.case)
    }

    /// Renders the shrunk case as a copy-pasteable Rust snippet.
    pub fn reproducer(&self) -> String {
        format!(
            "// drqos-testkit {name}-diff reproducer{at} (case seed {seed:#x}, {n} op(s) after \
             shrinking)\n\
             {prelude}\
             let case = Case {{ param: {param}, seed: {seed:#x}, mutant: {mutant} }};\n\
             let divergence = lockstep::subject(\"{name}\")\n    \
             .expect(\"a registered subject\")\n    \
             .run_sequence(&scenario, &ops, case)\n    \
             .expect(\"reproduces the divergence\");\n\
             // {divergence}\n",
            name = self.row.name,
            seed = self.case.seed,
            at = self.row.at(self.case.param),
            n = self.shrunk.len(),
            prelude = render_case(&self.scenario, &self.shrunk),
            param = self.case.param,
            mutant = self.case.mutant,
            divergence = self.divergence,
        )
    }
}

/// Outcome of a differential run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Sequences that replayed byte-identically.
    pub sequences_run: usize,
    /// The first diverging case, if any, already shrunk.
    pub failure: Option<Failure>,
}

/// The subject table: every lockstep differential `fuzz` can run, in
/// `--diff-*` flag order.
pub fn subjects() -> [SubjectRow; 2] {
    [
        SubjectRow::of::<CacheSubject>(),
        SubjectRow::of::<ClusterSubject>(),
    ]
}

/// Looks a subject up by [`Subject::NAME`].
pub fn subject(name: &str) -> Option<SubjectRow> {
    subjects().into_iter().find(|row| row.name == name)
}

/// The admission route cache ([`drqos_core::route_cache`]): a cache-on
/// network against a cache-off oracle, one establish at a time.
pub struct CacheSubject(Network);

impl Subject for CacheSubject {
    const NAME: &'static str = "cache";
    /// The cache-on side is built with 100 Kbps links whatever the
    /// scenario says — the first admission already settles differently.
    const MUTANT: &'static str = "StarvedCapacity";
    const SHRINK_BOUND: usize = 1;

    fn build(scenario: &Scenario, case: Case) -> Self {
        let mut scenario = scenario.clone();
        if case.mutant {
            scenario.capacity_kbps = 100;
        }
        CacheSubject(scenario.network_with_cache(true))
    }

    fn oracle(scenario: &Scenario) -> Network {
        scenario.network_with_cache(false)
    }

    fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, ClusterError> {
        Ok(op.apply(&mut self.0))
    }

    fn views(&self) -> Vec<(String, &Network)> {
        vec![("cache-on".to_string(), &self.0)]
    }
}

/// Seed-stream tweak for the churn schedule, so membership churn is
/// independent of the operation stream (changing one does not reshuffle
/// the other).
const CHURN_STREAM: u64 = 0xC1C1_C1C1;

/// Dead member ids a churn stream may resurrect beyond the initial
/// roster (JOIN of a brand-new daemon).
const EXTRA_MEMBERS: usize = 2;

/// The multi-daemon federation ([`ClusterSim`]: each operation committed
/// at the coordinator through the member carrying it, oplog replay onto
/// every replica) against the monolith, with a deterministic churn stream
/// crashing, retiring and rejoining members before operations. The
/// authority *and every live replica* must equal the oracle.
pub struct ClusterSubject {
    sim: ClusterSim,
    churn: Rng,
    roster_cap: usize,
}

impl Subject for ClusterSubject {
    const NAME: &'static str = "cluster";
    const UNIT: &'static str = "member(s)";
    const GRID: &'static [usize] = &[2, 3];
    /// [`ClusterFault::DropRecord`]: the coordinator admits the first
    /// establish it can but appends no record, so only the replica views
    /// can tell.
    const MUTANT: &'static str = "DropRecord";
    const MUTANT_PARAM: usize = 3;
    const SHRINK_BOUND: usize = 3;

    fn build(scenario: &Scenario, case: Case) -> Self {
        let mut sim = ClusterSim::new(scenario.network(), case.param);
        if case.mutant {
            sim.set_fault(ClusterFault::DropRecord);
        }
        ClusterSubject {
            roster_cap: sim.alive_members().len() + EXTRA_MEMBERS,
            sim,
            churn: Rng::seed_from_u64(case.seed ^ CHURN_STREAM),
        }
    }

    fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, ClusterError> {
        self.sim.apply(op)
    }

    fn views(&self) -> Vec<(String, &Network)> {
        let replicas = self
            .sim
            .replicas()
            .map(|m| (format!("replica m{}", m.id()), m.net()));
        std::iter::once(("authoritative".to_string(), self.sim.authoritative()))
            .chain(replicas)
            .collect()
    }

    /// One deterministic churn step: maybe crash, retire, or (re)join a
    /// member. Roster-only, so the state comparison afterwards proves
    /// churn never disturbs the network.
    fn before_op(&mut self) {
        if !self.churn.chance(0.3) {
            return;
        }
        let alive = self.sim.alive_members();
        match self.churn.range_usize(3) {
            0 | 1 if alive.len() > 1 => {
                let victim = alive[self.churn.range_usize(alive.len())];
                let _ = if self.churn.chance(0.5) {
                    self.sim.crash(victim)
                } else {
                    self.sim.leave(victim)
                };
            }
            _ => {
                let dead = (0..self.roster_cap as u64).find(|m| !alive.contains(m));
                if let Some(m) = dead {
                    let _ = self.sim.join(m);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{generate_ops, run_sequence, InjectedFault};

    fn case(param: usize, seed: u64) -> Case {
        Case {
            param,
            seed,
            mutant: false,
        }
    }

    /// A roomy scenario and its capacity-starved twin.
    fn mismatched_scenarios() -> (Scenario, Scenario) {
        let scenario = Scenario {
            nodes: 10,
            capacity_kbps: 3_000,
            backup_count: 1,
            increment_kbps: 100,
            graph_seed: 5,
        };
        let starved = Scenario {
            capacity_kbps: 100,
            ..scenario.clone()
        };
        (scenario, starved)
    }

    /// An all-establish stream on a starved network — the most contended
    /// run of admissions the carriers can bring.
    fn dense_establishes() -> (Scenario, Vec<Op>) {
        let scenario = Scenario {
            nodes: 8,
            capacity_kbps: 800,
            backup_count: 1,
            increment_kbps: 100,
            graph_seed: 11,
        };
        let mut rng = Rng::seed_from_u64(23);
        let ops = (0..48)
            .map(|_| Op::Establish {
                src: rng.next_u64(),
                dst: rng.next_u64(),
            })
            .collect();
        (scenario, ops)
    }

    #[test]
    fn fuzzed_sequences_replay_identically_for_every_subject() {
        let config = Config {
            sequences: 25,
            ops_per_sequence: 50,
            seed: 17,
        };
        for row in subjects() {
            for &param in row.grid {
                let outcome = row.run(&config, param);
                assert!(
                    outcome.failure.is_none(),
                    "{} diverged{}:\n{}",
                    row.name,
                    row.at(param),
                    outcome.failure.unwrap().reproducer()
                );
                assert_eq!(outcome.sequences_run, 25);
            }
        }
    }

    #[test]
    fn diff_streams_match_the_invariant_fuzzer() {
        // Every differential deliberately replays the exact case seeds
        // and op streams the invariant fuzzer uses, so a sequence number
        // from one report addresses the same workload in all of them.
        let seed = case_seed(2001, 3);
        let scenario = Scenario::from_seed(seed);
        let ops = case_ops(seed, 20);
        let mut rng = Rng::seed_from_u64(seed ^ 0x4655_5A5A);
        assert_eq!(ops, generate_ops(&mut rng, 20));
        assert!(run_sequence(&scenario, &ops, InjectedFault::None).is_none());
        for row in subjects() {
            for &param in row.grid {
                assert!(
                    row.run_sequence(&scenario, &ops, case(param, seed))
                        .is_none(),
                    "{}{}",
                    row.name,
                    row.at(param)
                );
            }
        }
    }

    #[test]
    fn mismatched_pair_is_detected_for_every_subject() {
        // Mutation check for the comparison itself: pit two *different*
        // scenarios against each other — the smaller-capacity oracle must
        // settle differently, and the loop must say where.
        let (scenario, starved) = mismatched_scenarios();
        let ops = generate_ops(&mut Rng::seed_from_u64(99), 40);
        for row in subjects() {
            let param = row.mutant_param;
            let divergence = row
                .run_pair(&scenario, &starved, &ops, case(param, 99))
                .unwrap_or_else(|| panic!("{}: capacity mismatch went unnoticed", row.name));
            assert!(!divergence.detail.is_empty());
        }
    }

    #[test]
    fn dense_contended_waves_with_churn_replay_identically() {
        // Churn reshuffles which member carries which request between
        // contended admissions.
        let (scenario, ops) = dense_establishes();
        for members in [2usize, 3, 5] {
            assert!(
                subject("cluster")
                    .unwrap()
                    .run_sequence(&scenario, &ops, case(members, 7))
                    .is_none(),
                "dense churned admissions must match the monolith at {members} member(s)"
            );
        }
    }

    #[test]
    fn a_carrier_crash_before_commit_still_matches_the_oracle() {
        // The orphan path: the crashed carrier's operation is carried by a
        // survivor, which must be invisible in the results and the final
        // state.
        let scenario = Scenario::from_seed(3);
        let ops = generate_ops(&mut Rng::seed_from_u64(31), 40);
        let mut subject = ClusterSubject::build(&scenario, case(3, 3));
        subject.sim.set_fault(ClusterFault::CrashCarrier);
        let mut lockstep = Lockstep::new(subject, scenario.network(), scenario.qos());
        assert_eq!(
            lockstep.run(&ops),
            None,
            "a carrier crash before its commit must not change any outcome"
        );
    }

    #[test]
    fn starved_cache_side_is_caught_and_shrinks_to_one_op() {
        // The minimal witness for "the two sides settle differently" is a
        // single establish.
        let row = subject("cache").unwrap();
        let failure = row
            .mutation_witness(2001, 20)
            .expect("capacity fault must be detected within the budget");
        assert_eq!(failure.shrunk.len(), 1, "{:?}", failure.shrunk);
        assert!(failure.shrunk.len() <= row.shrink_bound);
        assert!(matches!(failure.shrunk[0], Op::Establish { .. }));
    }

    #[test]
    fn dropped_record_is_caught_and_shrinks_small() {
        // A coordinator that admits a request but logs no record must be
        // caught through the replica views, with a tiny shrunk witness.
        let failure = subject("cluster")
            .unwrap()
            .mutation_witness(2001, 20)
            .expect("dropped-record fault must be detected within the budget");
        let shrunk = &failure.shrunk;
        assert!(
            (1..=3).contains(&shrunk.len()),
            "witness should be tiny: {shrunk:?}"
        );
        assert!(
            shrunk.iter().any(|op| matches!(op, Op::Establish { .. })),
            "witness needs an admission to lose: {shrunk:?}"
        );
        assert!(
            failure.divergence.detail.starts_with("replica m"),
            "only a replica can tell: {}",
            failure.divergence
        );
    }

    /// A deliberately wrong subject, independent of every product
    /// mutant: it acknowledges every third release (the first, the
    /// fourth, ...) without performing it.
    struct ForgetfulSubject {
        net: Network,
        releases: usize,
    }

    impl Subject for ForgetfulSubject {
        const NAME: &'static str = "forgetful";
        const MUTANT: &'static str = "none";
        const SHRINK_BOUND: usize = 3;

        fn build(scenario: &Scenario, _case: Case) -> Self {
            ForgetfulSubject {
                net: scenario.network(),
                releases: 0,
            }
        }

        fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, ClusterError> {
            if let MemberOp::Release { id } = op {
                self.releases += 1;
                if self.releases % 3 == 1 {
                    let held = self.net.connection(id).map(|c| c.bandwidth().as_kbps());
                    return Ok(ApplyOutcome::Release(Ok(held)));
                }
            }
            Ok(op.apply(&mut self.net))
        }

        fn views(&self) -> Vec<(String, &Network)> {
            vec![("forgetful".to_string(), &self.net)]
        }
    }

    #[test]
    fn a_forgetful_toy_subject_is_caught_and_shrunk_to_three_ops() {
        // The generic loop has teeth of its own: the lost release shows
        // up in the very next state comparison, and the witness shrinks
        // to an establish plus the release that was dropped.
        let row = SubjectRow::of::<ForgetfulSubject>();
        let outcome = row.run(
            &Config {
                sequences: 20,
                ops_per_sequence: 30,
                seed: 2001,
            },
            0,
        );
        let failure = outcome.failure.expect("the lost release must be caught");
        assert!(
            failure.shrunk.len() <= row.shrink_bound,
            "toy witness should be tiny: {:?}",
            failure.shrunk
        );
        assert!(matches!(failure.shrunk.last(), Some(Op::Release { .. })));
        assert_eq!(failure.divergence.step, failure.shrunk.len() - 1);
        // The stored divergence is what the printed entry point reproduces.
        assert_eq!(failure.replay(), Some(failure.divergence.clone()));
    }

    #[test]
    fn reproducers_name_the_entry_point_replay_uses() {
        let scenario = Scenario::from_seed(4);
        let op = Op::Establish { src: 1, dst: 2 };
        for row in subjects() {
            assert_eq!(subject(row.name).map(|r| r.name), Some(row.name));
            for &param in row.grid {
                let failure = Failure {
                    row,
                    case: case(param, 4),
                    scenario: scenario.clone(),
                    ops: vec![op],
                    shrunk: vec![op],
                    divergence: Divergence {
                        step: 0,
                        op,
                        detail: "example".into(),
                    },
                };
                let repro = failure.reproducer();
                assert!(repro.contains("Scenario {"), "{repro}");
                assert!(repro.contains("Op::Establish"), "{repro}");
                assert!(
                    repro.contains(&format!("{}-diff reproducer", row.name)),
                    "{repro}"
                );
                assert!(
                    repro.contains(&format!(
                        "let case = Case {{ param: {param}, seed: 0x4, mutant: false }};"
                    )),
                    "{repro}"
                );
                assert!(
                    repro.contains(&format!("lockstep::subject(\"{}\")", row.name)),
                    "{repro}"
                );
                assert!(
                    repro.contains(".run_sequence(&scenario, &ops, case)"),
                    "{repro}"
                );
                assert!(
                    repro.contains(&format!("reproducer{} (case seed", row.at(param))),
                    "{repro}"
                );
                // A healthy pair: replay goes through the same entry and
                // finds nothing.
                assert_eq!(
                    failure.replay(),
                    row.run_sequence(&scenario, &[op], failure.case)
                );
                assert_eq!(failure.replay(), None);
            }
        }
    }
}
