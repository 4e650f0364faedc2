//! The lockstep harness — the one seeded driver behind `fuzz --seqs`,
//! `fuzz --diff-cluster` and the mutation check.
//!
//! The sequential [`Network`] is the admission authority. Each row of the
//! subject table holds something to it: the invariant-checked network
//! ([`InvariantSubject`]: every operation cross-checked against the
//! [`ReferenceModel`] and by [`Network::check_invariants`]), and every
//! faster path that claims *exact* equivalence to it (the cluster
//! federation).
//! [`Lockstep`] replays a fuzzed operation sequence against a [`Subject`]
//! and a sequential oracle side by side. Every operation is one
//! [`MemberOp`], applied to the subject ([`Subject::apply`]) and to the
//! oracle ([`MemberOp::apply`]), and after each one the two sides are
//! compared on:
//!
//! * the operation's own result (the full [`ApplyOutcome`]: admission
//!   `Ok`/`Err` with ids, failure reports, ...), or the subject's `Err`
//!   (a forwarding failure, or the invariant row's violations),
//! * and, for **every** network view the subject exposes
//!   ([`Subject::views`] — one network, or the cluster's authority plus
//!   each live replica level with it): the cumulative drop counter, the
//!   topology epoch and a full [`NetworkSnapshot`].
//!
//! Raw operands are resolved by `resolve_op` against the *oracle's*
//! candidate lists. Until the first divergence both sides have identical
//! candidate lists, so the choice of resolution side cannot mask a bug:
//! the first divergent operation is detected at the step where it
//! happens.
//!
//! A subject supplies only what differs — how it is built, how it applies
//! an operation, its views, an optional before-each-op hook (cluster
//! churn) and its **mutants**: the [`Seam`]s ([`Case::mutant`]) the
//! mutation check arms around a whole replay, and requires the loop to
//! catch and shrink within [`Subject::SHRINK_BOUND`] operations.
//! Everything else — the loop, the comparison, [`Divergence`] /
//! [`Failure`] / [`Outcome`], the seeded driver with delta-debugging
//! ([`drqos_sim::shrink::shrink_by`]), the reproducer — exists once, here.
//! [`subjects`] is the table `fuzz` and the table-driven tests iterate;
//! adding a row is one `impl Subject` plus one entry there and one line in
//! TESTING.md's subject table.

use crate::fuzz::{case_ops, case_seed, render_case, Op, Scenario};
use crate::reference::ReferenceModel;
use drqos_cluster::{ApplyOutcome, MemberOp};
use drqos_core::network::{EstablishRequest, Network};
use drqos_core::qos::ElasticQos;
use drqos_core::snapshot::NetworkSnapshot;
use drqos_service::clusterd::{LocalCoordinator, MemberState};
use drqos_service::engine::Authority;
use drqos_sim::rng::Rng;
use drqos_sim::seam::{self, Seam};
use drqos_sim::shrink::shrink_by;
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
    /// The seam armed through the whole replay (one of
    /// [`Subject::MUTANTS`]), or none for the faithful subject.
    pub mutant: Option<Seam>,
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
    /// The seams the mutation check arms ([`Case::mutant`]), one per
    /// mutant.
    const MUTANTS: &'static [Seam];
    /// The parameter the mutation checks run at.
    const MUTANT_PARAM: usize = 0;
    /// Largest acceptable shrunk witness of the mutant.
    const SHRINK_BOUND: usize;

    /// Builds the subject.
    fn build(scenario: &Scenario, case: Case) -> Self;

    /// Applies one operation.
    ///
    /// # Errors
    ///
    /// A subject that forwards the operation may fail to, and says why;
    /// the loop reports that as a divergence.
    fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, String>;

    /// Hands every network that must equal the oracle, labelled for
    /// reports, to `visit` — under the subject's own lock, if it has one.
    fn views(&self, visit: &mut dyn FnMut(&str, &Network));

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
    /// every view against the oracle; the first mismatch is reported.
    fn compare_state(&self) -> Option<String> {
        let counters = |n: &Network| (n.dropped_total(), n.topology_epoch());
        let want_counters = counters(&self.oracle);
        let want = NetworkSnapshot::capture(&self.oracle);
        let mut mismatch = None;
        self.subject.views(&mut |label, net| {
            mismatch = mismatch.take().or_else(|| {
                let got = counters(net);
                if got != want_counters {
                    return Some(format!(
                        "{label} (drop counter, epoch) diverged: {got:?}, oracle {want_counters:?}"
                    ));
                }
                let got = NetworkSnapshot::capture(net);
                (got != want).then(|| first_snapshot_mismatch(label, &got, &want))
            });
        });
        mismatch
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

/// The monomorphic body behind [`SubjectRow::run_pair`]: the case's
/// mutant is armed from the subject's build to the last operation, for
/// the oracle's network too, so a seam in the product code both sides
/// share is caught only by a subject's independent check.
fn run_pair<S: Subject>(
    subject_scenario: &Scenario,
    oracle_scenario: &Scenario,
    ops: &[Op],
    case: Case,
) -> Option<Divergence> {
    let replay = || {
        Lockstep::new(
            S::build(subject_scenario, case),
            oracle_scenario.network(),
            subject_scenario.qos(),
        )
        .run(ops)
    };
    match case.mutant {
        Some(mutant) => seam::with(mutant, replay),
        None => replay(),
    }
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
    /// [`Subject::MUTANTS`].
    pub mutants: &'static [Seam],
    /// [`Subject::MUTANT_PARAM`].
    pub mutant_param: usize,
    /// [`Subject::SHRINK_BOUND`].
    pub shrink_bound: usize,
    run_pair: fn(&Scenario, &Scenario, &[Op], Case) -> Option<Divergence>,
}

/// Budget and seed of a run (a case seed generates the same scenario and
/// operation stream in every row).
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
    pub(crate) fn of<S: Subject>() -> Self {
        SubjectRow {
            name: S::NAME,
            unit: S::UNIT,
            grid: S::GRID,
            mutants: S::MUTANTS,
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
        self.drive(config, param, None)
    }

    /// The mutation check: arms `mutant` (one of the row's
    /// [`SubjectRow::mutants`]) and returns the first caught-and-shrunk
    /// failure within 20 cases of 30 ops, or `None` if the loop failed to
    /// catch it — the detector itself has regressed. A build without
    /// `drqos-sim`'s `seams` feature arms nothing and catches nothing.
    pub fn mutation_witness(&self, mutant: Seam, seed: u64) -> Option<Failure> {
        let config = Config {
            sequences: 20,
            ops_per_sequence: 30,
            seed,
        };
        self.drive(&config, self.mutant_param, Some(mutant)).failure
    }

    /// The one seeded driver.
    fn drive(&self, config: &Config, param: usize, mutant: Option<Seam>) -> Outcome {
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
    /// Parameter, case seed and mutant the case ran at.
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
        let (import, mutant) = match self.case.mutant {
            Some(m) => ("use drqos_sim::seam::Seam;\n", format!("Some(Seam::{m:?})")),
            None => ("", "None".to_string()),
        };
        format!(
            "// drqos-testkit {name}-diff reproducer{at} (case seed {seed:#x}, {n} op(s) after \
             shrinking)\n\
             {import}{prelude}\
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

/// The subject table: every row `fuzz` can run, in the order it runs
/// them.
pub fn subjects() -> [SubjectRow; 2] {
    [
        SubjectRow::of::<InvariantSubject>(),
        SubjectRow::of::<ClusterSubject>(),
    ]
}

/// Looks a subject up by [`Subject::NAME`].
pub fn subject(name: &str) -> Option<SubjectRow> {
    subjects().into_iter().find(|row| row.name == name)
}

/// The mutation check on one mutant of the row `name`: it is caught
/// within the row's budget, shrunk within its bound, tagged with the
/// mutant and replayed from the failure's own fields.
#[cfg(test)]
pub(crate) fn caught_and_shrunk(name: &str, mutant: Seam) -> Failure {
    let row = subject(name).unwrap_or_else(|| panic!("no row {name}"));
    let failure = row
        .mutation_witness(mutant, 2001)
        .unwrap_or_else(|| panic!("{name}: {mutant:?} went unnoticed"));
    assert!(
        failure.shrunk.len() <= row.shrink_bound,
        "{name}: {mutant:?} shrank to {:?}",
        failure.shrunk
    );
    assert_eq!(failure.case.mutant, Some(mutant));
    assert_eq!(failure.replay(), Some(failure.divergence.clone()));
    failure
}

/// The invariant-checked network: after every operation the network is
/// compared with the [`ReferenceModel`], which is told what came of it,
/// and runs [`Network::check_invariants`]. Each violation is one
/// `[tag] message` in the subject's `Err`, so the loop reports it at the
/// step that caused it.
pub struct InvariantSubject {
    net: Network,
    reference: ReferenceModel,
}

impl Subject for InvariantSubject {
    const NAME: &'static str = "invariants";
    /// `LoseRelease`: releases reach the network but not the reference,
    /// whose books keep charging the freed bandwidth — the drift a
    /// forgotten `remove_primary` would cause. `LoseSrlgRepair`: group
    /// repairs reach the network but not the reference, whose mirrored
    /// links stay down — a repair that forgot to fan out over the group.
    /// The other four break `drqos-core` itself, on both sides of the
    /// loop, so only [`Network::check_invariants`] can tell: a backup's
    /// own link among its activators, survivors re-keyed to the failed
    /// primary, a row left off its waitlist, a loaded row woken early.
    const MUTANTS: &'static [Seam] = &[
        Seam::LoseRelease,
        Seam::LoseSrlgRepair,
        Seam::KeepTheOwnLink,
        Seam::RekeyToTheOldPrimary,
        Seam::SkipAListing,
        Seam::WakeALoadedRow,
    ];
    const SHRINK_BOUND: usize = 10;

    fn build(scenario: &Scenario, _case: Case) -> Self {
        let net = scenario.network();
        InvariantSubject {
            reference: ReferenceModel::new(&net),
            net,
        }
    }

    fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, String> {
        let outcome = op.apply(&mut self.net);
        let lost = match outcome {
            ApplyOutcome::Release(_) => seam::armed(Seam::LoseRelease),
            ApplyOutcome::RepairSrlg(_) => seam::armed(Seam::LoseSrlgRepair),
            _ => false,
        };
        let mut violations = Vec::new();
        if !lost {
            if let Err(message) = self.reference.observe(&self.net, op, &outcome) {
                violations.push(format!("[legal-operand] {message}"));
            }
        }
        let diffs = self.reference.compare(&self.net);
        violations.extend(diffs.iter().map(|d| format!("[reference-model] {d}")));
        let broken = self.net.check_invariants();
        violations.extend(broken.iter().map(|v| format!("[core-accounting] {v}")));
        if violations.is_empty() {
            return Ok(outcome);
        }
        Err(violations.join("; "))
    }

    fn views(&self, visit: &mut dyn FnMut(&str, &Network)) {
        visit("checked", &self.net);
    }
}

/// Seed-stream tweak for the churn schedule, so membership churn is
/// independent of the operation stream (changing one does not reshuffle
/// the other).
const CHURN_STREAM: u64 = 0xC1C1_C1C1;

/// Dead member ids a churn stream may resurrect beyond the initial
/// roster (JOIN of a brand-new daemon).
const EXTRA_MEMBERS: usize = 2;

/// The multi-daemon federation, through the member daemons' own code: N
/// [`MemberState`]s — the [`Authority`] a member daemon's engine holds —
/// on in-process links to one [`LocalCoordinator`], so every exchange
/// crosses both `proto` codecs, the coordinator's per-peer handler and
/// the member's replay. Each operation is one `OP` through the member
/// whose turn it is to carry it; its outcome is the carrier's replay. A
/// deterministic churn stream crashes (drops the link), retires (`LEAVE`)
/// and rejoins members, levels idle replicas, and now and then has the
/// coordinator skip a record on the next carrier's reply. The authority
/// and every live replica level with it must equal the oracle.
pub struct ClusterSubject {
    coordinator: LocalCoordinator,
    genesis: Network,
    /// Live members, in id order.
    members: Vec<MemberState>,
    churn: Rng,
    roster_cap: usize,
    /// Operations carried so far: the next carrier's turn.
    carried: usize,
}

impl ClusterSubject {
    /// Commits `op` through the carrier at `turn` with a reply that skips
    /// a record: its contiguity guard must refuse it (504, the link given
    /// up: a crash). The operation is committed all the same, and a
    /// survivor's pull replays it.
    fn carry_skipped(&mut self, turn: usize, op: MemberOp) -> Result<ApplyOutcome, String> {
        let mut carrier = self.members.remove(turn);
        self.coordinator.skip_records(true);
        let refused = carrier.commit(op).is_err();
        self.coordinator.skip_records(false);
        if !refused {
            let id = carrier.id();
            return Err(format!(
                "m{id} replayed a commit reply that skipped a record"
            ));
        }
        drop(carrier);
        let (seq, live) = (self.coordinator.authority(|_, seq| seq), self.members.len());
        let survivor = &mut self.members[turn % live];
        match survivor.sync_to(seq) {
            Ok(Some(outcome)) => Ok(outcome),
            other => Err(format!("m{}'s pull: {other:?}", survivor.id())),
        }
    }
}

impl Subject for ClusterSubject {
    const NAME: &'static str = "cluster";
    const UNIT: &'static str = "member(s)";
    const GRID: &'static [usize] = &[2, 3];
    /// `DropRecord`: the coordinator admits establishes but appends no
    /// record, so the carrier's replay never reaches them.
    /// `UnguardedSkip`: every commit reply starts one record late and the
    /// members replay past the gap. `PackLowSevenBits`: the oplog keeps
    /// an operand's low 7 bits, so replicas replay another request.
    const MUTANTS: &'static [Seam] = &[
        Seam::DropRecord,
        Seam::UnguardedSkip,
        Seam::PackLowSevenBits,
    ];
    const MUTANT_PARAM: usize = 3;
    const SHRINK_BOUND: usize = 3;

    fn build(scenario: &Scenario, case: Case) -> Self {
        let genesis = scenario.network();
        let coordinator = LocalCoordinator::new(genesis.clone(), case.param);
        let members: Vec<MemberState> = (0..case.param.max(1))
            .map(|_| coordinator.join(genesis.clone()).expect("a local join"))
            .collect();
        ClusterSubject {
            roster_cap: members.len() + EXTRA_MEMBERS,
            coordinator,
            genesis,
            members,
            churn: Rng::seed_from_u64(case.seed ^ CHURN_STREAM),
            carried: 0,
        }
    }

    fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, String> {
        let turn = self.carried % self.members.len();
        self.carried += 1;
        if self.members.len() > 1 && self.churn.chance(0.05) {
            return self.carry_skipped(turn, op);
        }
        let carrier = &mut self.members[turn];
        match carrier.commit(op) {
            Ok(Some(outcome)) => Ok(outcome),
            Ok(None) => Err(format!("m{}'s replay never reached it", carrier.id())),
            Err(refused) => Err(format!("m{} answered {refused}", carrier.id())),
        }
    }

    fn views(&self, visit: &mut dyn FnMut(&str, &Network)) {
        let seq = self.coordinator.authority(|net, seq| {
            visit("authoritative", net);
            seq
        });
        for m in self.members.iter().filter(|m| m.applied() == seq) {
            visit(&format!("replica m{}", m.id()), m.net());
        }
    }

    /// One deterministic churn step: maybe crash, retire, or (re)join a
    /// member, maybe level one replica through `SNAPSHOT`'s path (rarely
    /// enough that most commit replies carry several records). None of it
    /// touches the replicated network, so the state comparison afterwards
    /// proves churn never disturbs it.
    fn before_op(&mut self) {
        let live = self.members.len();
        if self.churn.chance(0.3) {
            match self.churn.range_usize(3) {
                0 | 1 if live > 1 => {
                    let mut victim = self.members.remove(self.churn.range_usize(live));
                    if self.churn.chance(0.5) {
                        victim.leave();
                    } // else dropped without a LEAVE: a crash
                }
                _ if live < self.roster_cap => {
                    if let Ok(joiner) = self.coordinator.join(self.genesis.clone()) {
                        let at = self.members.partition_point(|m| m.id() < joiner.id());
                        self.members.insert(at, joiner);
                    }
                }
                _ => {}
            }
        }
        if self.churn.chance(0.2) {
            let idle = self.churn.range_usize(self.members.len());
            let _ = self.members[idle].sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{generate_mix, generate_ops, OpMix};

    fn case(param: usize, seed: u64) -> Case {
        Case {
            param,
            seed,
            mutant: None,
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
            mix: OpMix::Standard,
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
            mix: OpMix::Standard,
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
        // Every row deliberately replays the exact case seeds and op
        // streams, so a sequence number from one report addresses the
        // same workload in all of them.
        let seed = case_seed(2001, 3);
        let scenario = Scenario::from_seed(seed);
        let ops = case_ops(seed, 20);
        let mut rng = Rng::seed_from_u64(seed ^ 0x4655_5A5A);
        assert_eq!(ops, generate_mix(&mut rng, 20, scenario.mix));
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
        // The orphan path: the first carrier's link drops before it sends
        // its operation, which a survivor carries instead; that must be
        // invisible in the results and the final state.
        let scenario = Scenario::from_seed(3);
        let ops = generate_ops(&mut Rng::seed_from_u64(31), 40);
        let mut subject = ClusterSubject::build(&scenario, case(3, 3));
        drop(subject.members.remove(0));
        let mut lockstep = Lockstep::new(subject, scenario.network(), scenario.qos());
        assert_eq!(
            lockstep.run(&ops),
            None,
            "a carrier crash before its commit must not change any outcome"
        );
    }

    /// A commit reply that skips a record, under the faithful build: the
    /// carrier refuses it and drops out, and a survivor's replay of the
    /// committed operation is what the loop compares.
    #[test]
    fn a_refused_skip_is_carried_over_by_a_survivor() {
        let scenario = Scenario::from_seed(3);
        let (mut subject, mut oracle) = (
            ClusterSubject::build(&scenario, case(3, 3)),
            scenario.network(),
        );
        for (turn, (src, dst)) in [(0, (1, 2)), (1, (2, 3))] {
            let op = resolve_op(&oracle, scenario.qos(), Op::Establish { src, dst }).unwrap();
            assert_eq!(subject.carry_skipped(turn, op), Ok(op.apply(&mut oracle)));
        }
        // m0 and m2 refused and crashed; m1, the last survivor, is level.
        let ids: Vec<u64> = subject.members.iter().map(MemberState::id).collect();
        assert_eq!(ids, [1]);
        let lockstep = Lockstep::new(subject, oracle, scenario.qos());
        assert_eq!(lockstep.compare_state(), None);
    }

    /// The mutation check: every mutant of every row is caught within the
    /// row's budget, shrunk within its bound, and replayed from the
    /// failure's own fields.
    #[test]
    fn every_mutant_of_every_row_is_caught_shrunk_and_replayed() {
        for row in subjects() {
            for &mutant in row.mutants {
                caught_and_shrunk(row.name, mutant);
            }
        }
    }

    #[test]
    fn dropped_record_is_caught_and_shrinks_small() {
        // A coordinator that admits a request but logs no record must be
        // caught, with a tiny shrunk witness.
        let failure = caught_and_shrunk("cluster", Seam::DropRecord);
        let shrunk = &failure.shrunk;
        assert!(
            (1..=3).contains(&shrunk.len()),
            "witness should be tiny: {shrunk:?}"
        );
        assert!(
            shrunk.iter().any(|op| matches!(op, Op::Establish { .. })),
            "witness needs an admission to lose: {shrunk:?}"
        );
        // The carrier replays what the coordinator sent it, and the lost
        // record was never sent: its own replay is the first to tell.
        assert!(
            failure
                .divergence
                .detail
                .ends_with("'s replay never reached it"),
            "the carrier's replay tells: {}",
            failure.divergence
        );
    }

    #[test]
    fn an_unguarded_skip_is_caught_and_shrinks_small() {
        // Commit replies that start one record late, replayed by members
        // whose contiguity guard is off.
        let failure = caught_and_shrunk("cluster", Seam::UnguardedSkip);
        assert!(
            failure.shrunk.len() <= 3,
            "witness should be tiny: {:?}",
            failure.shrunk
        );
    }

    /// TESTING.md's subject table is the documented copy of
    /// [`subjects`]: every row has its line there, naming each of the
    /// row's mutants and ending in its shrink bound.
    #[test]
    fn every_row_and_mutant_is_documented_in_testing_md() {
        let doc = include_str!("../../../TESTING.md");
        for row in subjects() {
            let head = format!("| `{}` |", row.name);
            let line = doc
                .lines()
                .find(|line| line.starts_with(&head))
                .unwrap_or_else(|| panic!("TESTING.md has no subject-table line for {head}"));
            for mutant in row.mutants {
                assert!(
                    line.contains(&format!("`{mutant:?}`")),
                    "TESTING.md's {head} line does not name the mutant `{mutant:?}`"
                );
            }
            let bound = format!("| {} |", row.shrink_bound);
            assert!(
                line.ends_with(&bound),
                "TESTING.md's {head} line does not end in its shrink bound {bound}"
            );
        }
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
        const MUTANTS: &'static [Seam] = &[];
        const SHRINK_BOUND: usize = 3;

        fn build(scenario: &Scenario, _case: Case) -> Self {
            ForgetfulSubject {
                net: scenario.network(),
                releases: 0,
            }
        }

        fn apply(&mut self, op: MemberOp) -> Result<ApplyOutcome, String> {
            if let MemberOp::Release { id } = op {
                self.releases += 1;
                if self.releases % 3 == 1 {
                    let held = self.net.connection(id).map(|c| c.bandwidth().as_kbps());
                    return Ok(ApplyOutcome::Release(Ok(held)));
                }
            }
            Ok(op.apply(&mut self.net))
        }

        fn views(&self, visit: &mut dyn FnMut(&str, &Network)) {
            visit("forgetful", &self.net);
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
                        "let case = Case {{ param: {param}, seed: 0x4, mutant: None }};"
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
