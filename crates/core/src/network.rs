//! The DR-connection network manager.
//!
//! [`Network`] owns the topology, per-link accounting, and the connection
//! table, and implements the paper's network operation (Section 3.1):
//!
//! * **Admission** — route a primary channel with enough bandwidth for the
//!   minimum QoS (extras held by other channels count as reclaimable), then
//!   a link-disjoint backup whose multiplexed reservation fits.
//! * **Retreat & re-distribution** — on every arrival, all primaries
//!   sharing a link with the new connection release their extras, which are
//!   then re-distributed (together with any other spare bandwidth)
//!   according to the adaptation policy. A primary the re-distribution
//!   would grant straight back to its maximum is left where it is.
//! * **Termination** — channels that shared links with the departed
//!   connection may grow into the freed bandwidth.
//! * **Failure & recovery** — a link failure activates the backups of all
//!   primaries crossing it; primaries sharing links with activated backups
//!   retreat; remaining extras are re-distributed; backups are re-established
//!   where possible.
//!
//! Planning (route search) is separated from commitment so that callers —
//! in particular the transition-probability estimator — can observe the
//! network state between the two.
//!
//! One file per stage. This one holds the manager itself, its accessors,
//! the commit stage ([`Network::admit`] and the loops of it), termination,
//! retreat and the invariant check; three private child modules add the
//! other stages as further `impl Network` blocks — `plan` (route search),
//! `fill` (re-distribution) and `fault` (failure and repair). They are
//! children, not siblings, so that every field of [`Network`] stays
//! private to this module tree. The stages' test seams are
//! `drqos_sim::seam`'s; no build that ships can arm one.
//!
//! What one stage decides for all the others is decided here, once. Which
//! primary failures activate a backup on a link is `conflict_set`: the
//! `reserve_backup` / `unreserve_backup` pair applies it to the
//! multiplexing ledgers for every stage, the planner's one closure asks it
//! of them, and [`Network::check_invariants`] recomputes those ledgers
//! without it. Who may grow after an event is `fill_candidates`; who need
//! not retreat for an arrival is `keep_at_maximum`; whether nobody need
//! retreat and nothing be refilled — the newcomer's own grant, after the
//! retreated rows give back the increments it overbooks or outranks, being
//! the fill's result — and so which rows give increments back without a
//! retreat, is `answer_in_place`.

mod fault;
mod fill;
mod plan;

pub use fault::FailureReport;
pub use plan::{EstablishPlan, PrePlanned};
use plan::{PlanMemo, PlanVersion};

use crate::channel::{ConnectionId, DrConnection};
use crate::conn_table::{Blocked, ChainMarks, ChainPair, ConnTable, Slot};
use crate::error::{AdmissionError, NetworkError};
use crate::invariant::InvariantViolation;
use crate::link_state::LinkUsage;
use crate::measure::RouteCacheStats;
use crate::qos::{AdaptationPolicy, Bandwidth, ElasticQos};
use crate::routing::{BackupDisjointness, RouteScratch, RouterKind};
use drqos_sim::seam::{self, Seam};
use drqos_topology::graph::{Graph, LinkId, NodeId};
use drqos_topology::paths::Path;
use fill::FillScratch;
use std::borrow::Cow;
use std::cell::RefCell;

/// Configuration of a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Capacity of every link (the paper assumes a uniform 10 Mbps).
    pub capacity: Bandwidth,
    /// How extra bandwidth is divided.
    pub policy: AdaptationPolicy,
    /// Route-selection strategy.
    pub router: RouterKind,
    /// Whether a connection is rejected when no backup can be found
    /// (the paper's dependability QoS requires one backup per connection).
    pub require_backup: bool,
    /// Whether backups must be fully link-disjoint or may fall back to
    /// maximal disjointness (the paper's footnote 1).
    pub disjointness: BackupDisjointness,
    /// Backup channels per connection. The paper's analysis uses one; the
    /// underlying Han–Shin scheme supports "one or more", and extra
    /// backups protect against multi-failures. Backups of one connection
    /// are mutually link-disjoint.
    pub backup_count: usize,
    /// Ignored: the plan memo is unconditional and exact, so there is
    /// nothing to switch (see [`Network::route_cache_stats`]). Kept only
    /// because `benchmark/` still sets it (ROADMAP 4(c)).
    pub route_cache: bool,
}

impl Default for NetworkConfig {
    /// The paper's evaluation setup: 10 Mbps links, coefficient (fair)
    /// adaptation, bounded flooding, mandatory backups.
    fn default() -> Self {
        Self {
            capacity: Bandwidth::mbps(10),
            policy: AdaptationPolicy::Coefficient,
            router: RouterKind::default(),
            require_backup: true,
            disjointness: BackupDisjointness::default(),
            backup_count: 1,
            route_cache: false,
        }
    }
}

/// One establish request, as [`Network::admit`] takes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstablishRequest {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// The requested elastic QoS.
    pub qos: ElasticQos,
}

/// The primary links that can trigger this backup's activation while it is
/// registered on `on_link`: a failure of `on_link` itself takes the backup
/// down with it, so it never contributes to that link's reservation.
/// (Only relevant for maximally-disjoint backups; a fully disjoint backup
/// never crosses its own primary.)
///
/// Borrows `primary_links` whole in that common case and allocates only
/// when `on_link` really lies on the primary.
fn conflict_set(primary_links: &[LinkId], on_link: LinkId) -> Cow<'_, [LinkId]> {
    if seam::armed(Seam::KeepTheOwnLink) {
        return Cow::Borrowed(primary_links);
    }
    if primary_links.contains(&on_link) {
        let rest = primary_links.iter().copied().filter(|&f| f != on_link);
        Cow::Owned(rest.collect())
    } else {
        Cow::Borrowed(primary_links)
    }
}

/// Sorts and deduplicates.
fn sort_dedup<T: Ord>(v: &mut Vec<T>) {
    v.sort_unstable();
    v.dedup();
}

/// The DR-connection network manager.
#[derive(Debug)]
pub struct Network {
    graph: Graph,
    config: NetworkConfig,
    links: Vec<LinkUsage>,
    connections: ConnTable,
    next_id: u64,
    total_bandwidth: Bandwidth,
    dropped_total: u64,
    /// Bumped on every link-liveness change (fail/repair).
    topology_epoch: u64,
    /// Registered shared-risk link groups, indexed by group id. A group's
    /// member links fail and recover *together* (one conduit cut, one
    /// transit domain outage); registration is static configuration and
    /// does not appear in snapshots.
    srlgs: Vec<Vec<LinkId>>,
    /// Reusable route-search buffers (see [`RouteScratch`]): admission
    /// planning allocates nothing per attempt. Interior mutability because
    /// planning takes `&self`.
    scratch: RefCell<RouteScratch>,
    /// The version of what planning reads, and the plans made at the
    /// version an undo gave back (`plan::PlanVersion`, `plan::PlanMemo`):
    /// not state, like `scratch`; the memo sits in a `RefCell` beside it
    /// for the same reason.
    plan_version: PlanVersion,
    memo: RefCell<PlanMemo>,
    /// Reusable redistribution buffers (see [`FillScratch`]).
    fill: FillScratch,
    /// Reusable chain-set buffers, scratch like `fill`: the marks of
    /// [`Network::gather`], the retreat set of the last commit and the
    /// last fill's candidates and handles (all kept for their capacity).
    marks: ChainMarks,
    retreat_set: Vec<ChainPair>,
    spare_set: Vec<ChainPair>,
    spare_handles: Vec<Blocked>,
    /// The loose set: the listed rows that wait nowhere, having been taken
    /// off a waitlist whose link a fault step or a repair gave room (see
    /// `fill::still_blocked`) — the only ones an event's fill could grow
    /// that no bucket on the links it walks holds. An index like the
    /// waitlists, so outside equality, but cloned: a clone must gather
    /// what its source gathers.
    loose: Vec<ChainPair>,
}

/// Cloning copies the full accounting state; the route-search, fill and
/// chain scratch, the plan version and the plan memo are rebuilt fresh,
/// which is semantics-invariant.
impl Clone for Network {
    fn clone(&self) -> Self {
        Self {
            graph: self.graph.clone(),
            config: self.config.clone(),
            links: self.links.clone(),
            connections: self.connections.clone(),
            next_id: self.next_id,
            total_bandwidth: self.total_bandwidth,
            dropped_total: self.dropped_total,
            topology_epoch: self.topology_epoch,
            srlgs: self.srlgs.clone(),
            scratch: RefCell::new(RouteScratch::new()),
            plan_version: PlanVersion::default(),
            memo: RefCell::default(),
            fill: FillScratch::default(),
            marks: ChainMarks::default(),
            retreat_set: Vec::new(),
            spare_set: Vec::new(),
            spare_handles: Vec::new(),
            loose: self.loose.clone(),
        }
    }
}

/// Equality over the accounting state: topology, configuration, link usage,
/// connection table and counters. Scratch buffers are not state.
impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph
            && self.config == other.config
            && self.links == other.links
            && self.connections == other.connections
            && self.next_id == other.next_id
            && self.total_bandwidth == other.total_bandwidth
            && self.dropped_total == other.dropped_total
            && self.topology_epoch == other.topology_epoch
            && self.srlgs == other.srlgs
    }
}

impl Network {
    /// Creates a manager over `graph` with the given configuration.
    pub fn new(graph: Graph, config: NetworkConfig) -> Self {
        let links = (0..graph.link_count())
            .map(|_| LinkUsage::new(config.capacity))
            .collect();
        Self {
            graph,
            config,
            links,
            connections: ConnTable::default(),
            next_id: 0,
            total_bandwidth: Bandwidth::ZERO,
            dropped_total: 0,
            topology_epoch: 0,
            srlgs: Vec::new(),
            scratch: RefCell::new(RouteScratch::new()),
            plan_version: PlanVersion::default(),
            memo: RefCell::default(),
            fill: FillScratch::default(),
            marks: ChainMarks::default(),
            retreat_set: Vec::new(),
            spare_set: Vec::new(),
            spare_handles: Vec::new(),
            loose: Vec::new(),
        }
    }

    /// The plan memo's counters since creation (a clone starts at zero):
    /// the plans it answered, the plans at a version an undo gave back that
    /// it could not, and the entries it dropped when the version moved. A
    /// plan at any other version consults nothing and counts nowhere.
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        self.memo.borrow().stats()
    }

    /// The current topology epoch: incremented by every
    /// [`Network::fail_link`], [`Network::repair_link`], and
    /// [`Network::fail_node`] call. Anything caching *routes* planned
    /// against this network must revalidate when the epoch moves.
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    /// Runs `f` with the network's route-search scratch. Its tables are
    /// generation-stamped and failures only flip link liveness (the node
    /// and link sets never change), so it needs no invalidation.
    fn with_scratch<T>(&self, f: impl FnOnce(&mut RouteScratch) -> T) -> T {
        f(&mut self.scratch.borrow_mut())
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Per-link accounting.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_usage(&self, link: LinkId) -> &LinkUsage {
        &self.links[link.index()]
    }

    /// Active connections, in id order.
    pub fn connections(&self) -> impl Iterator<Item = &DrConnection> {
        self.connections.iter().map(|(_, c)| c)
    }

    /// The connection with the given id, if active.
    pub fn connection(&self, id: ConnectionId) -> Option<&DrConnection> {
        self.connections.get(id)
    }

    /// Number of active connections.
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// Whether no connections are active.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Connections dropped by failures since creation.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Sum of the bandwidth currently reserved by all primary channels.
    pub fn total_primary_bandwidth(&self) -> Bandwidth {
        self.total_bandwidth
    }

    /// Mean bandwidth per primary channel, or `None` with no connections.
    pub fn average_bandwidth(&self) -> Option<f64> {
        if self.connections.is_empty() {
            None
        } else {
            Some(self.total_bandwidth.as_kbps_f64() / self.connections.len() as f64)
        }
    }

    /// Mean primary-path hop count, or `None` with no connections.
    pub(crate) fn average_path_hops(&self) -> Option<f64> {
        if self.connections.is_empty() {
            None
        } else {
            let total: usize = self.connections().map(|c| c.primary().hop_count()).sum();
            Some(total as f64 / self.connections.len() as f64)
        }
    }

    /// Commits a plan: reserves resources, retreats directly-chained
    /// channels, and re-distributes extras. Returns the new connection id.
    ///
    /// A plan must be committed against the same network state it was made
    /// from (plan → observe → commit is the supported sequence; interleaved
    /// mutations void the feasibility checks).
    pub fn commit_establish(&mut self, plan: EstablishPlan) -> ConnectionId {
        // The "directly chained" set: every primary sharing a link with
        // the plan's channels.
        let mut chained = std::mem::take(&mut self.retreat_set);
        chained.clear();
        let backup_links = plan.backups.iter().flat_map(|b| b.links());
        let plan_links = plan.primary.links().iter().chain(backup_links).copied();
        Self::gather(&self.links, &mut self.marks, plan_links, &mut chained);
        // 1. Reserve the new connection's resources.
        let newcomer = self.reserve_newcomer(plan);
        self.plan_version.commit(newcomer.1);
        // 2. Retreat every directly chained primary but those the fill
        //    would grant straight back, decided before anyone retreats —
        //    unless the fill's result is the state where nobody does and
        //    the newcomer takes all it has room for.
        let retreating = self.keep_at_maximum(&mut chained, newcomer);
        let (retreated, kept) = chained.split_at(retreating);
        if self.answer_in_place(retreated, newcomer) {
            self.retreat_set = chained;
            return newcomer.1;
        }
        for &pair in retreated {
            self.retreat(pair);
        }
        // 3. Who may grow, the newcomer included — and let them.
        let (mut candidates, mut handles) = self.spare_buffers();
        self.fill_candidates(retreated, kept, &[newcomer], &mut candidates, &mut handles);
        self.retreat_set = chained;
        self.settle(candidates, handles);
        newcomer.1
    }

    /// Registers the planned connection — its backups, its primary's
    /// minimum on every link — under the next id, unlisted, and returns
    /// its `(slot, id)` pair.
    fn reserve_newcomer(&mut self, plan: EstablishPlan) -> ChainPair {
        let id = ConnectionId(self.next_id);
        self.next_id += 1;
        let min = plan.qos.min();
        for b in &plan.backups {
            Self::reserve_backup(&mut self.links, id, min, &plan.primary, b);
        }
        let conn = DrConnection::new(id, plan.qos, plan.primary, plan.backups);
        self.total_bandwidth += conn.bandwidth();
        let slot = self.connections.insert(conn);
        for l in self.connections.primary_links(&[(slot, id)]) {
            self.links[l.index()].add_primary(id, slot, min);
        }
        (slot, id)
    }

    /// The candidate and handle buffers the last fill left, emptied for
    /// the next event's gather.
    fn spare_buffers(&mut self) -> (Vec<ChainPair>, Vec<Blocked>) {
        let mut candidates = std::mem::take(&mut self.spare_set);
        let mut handles = std::mem::take(&mut self.spare_handles);
        candidates.clear();
        handles.clear();
        (candidates, handles)
    }

    /// Re-distributes extras over `candidates` and the buckets `handles`
    /// names, keeping both buffers for the next event's, and drops from
    /// the loose set the rows the event has refused or granted to their
    /// maximum.
    fn settle(&mut self, candidates: Vec<ChainPair>, handles: Vec<Blocked>) {
        self.redistribute(&candidates, &handles);
        self.spare_set = candidates;
        self.spare_handles = handles;
        self.prune_loose();
    }

    /// The chain-set gather: starts a new set in `marks` and appends to
    /// `out`, as `(slot, id)` pairs in the order met, every primary that
    /// crosses any of `over` and is not in the set yet. Each link is walked
    /// once however often `over` names it. Membership never depends on
    /// extras. Sorted by id, the set is [`Network::primaries_sharing`].
    fn gather(
        links: &[LinkUsage],
        marks: &mut ChainMarks,
        over: impl IntoIterator<Item = LinkId>,
        out: &mut Vec<ChainPair>,
    ) {
        marks.begin(links.len());
        for l in over {
            if marks.walk(l.index()) {
                let members = links[l.index()].primary_pairs();
                out.extend(members.filter(|&pair| marks.add(pair)));
            }
        }
    }

    /// What an event offers its fill from the links `over` whose headroom
    /// it grew: starts a new set in `marks`, walks each link once and
    /// appends to `handles` each waitlist bucket there whose link has room
    /// for its increment, then appends to `out` each loose row that
    /// crosses a walked link. A bucket without that room holds rows still
    /// refused where they wait, which ask for nothing and can be granted
    /// nothing; so does any row waiting at a link off `over`, that link
    /// having gained nothing since.
    fn gather_waiting(
        links: &[LinkUsage],
        connections: &ConnTable,
        marks: &mut ChainMarks,
        loose: &[ChainPair],
        over: impl IntoIterator<Item = LinkId>,
        out: &mut Vec<ChainPair>,
        handles: &mut Vec<Blocked>,
    ) {
        #[cfg(test)]
        if seam::armed(Seam::Reference) {
            return Self::gather(links, marks, over, out);
        }
        marks.begin(links.len());
        for l in over {
            if marks.walk(l.index()) {
                let usage = &links[l.index()];
                let room = usage
                    .buckets()
                    .iter()
                    .filter(|b| !fill::still_blocked(usage, b.increment, Seam::BlockedAtExactRoom));
                handles.extend(room.map(|b| (l, b.increment)));
            }
        }
        for &(slot, id) in loose {
            let path = connections.at(slot, id).map(|c| c.primary().links());
            let walked = path.is_some_and(|p| p.iter().any(|l| marks.walked(l.index())));
            if walked && marks.add((slot, id)) {
                out.push((slot, id));
            }
        }
    }

    /// Who may grow after an event, appended to `out` and `handles`: what
    /// [`Self::gather_waiting`] offers from the links of every channel that
    /// `retreated` for it; the loose rows that cross a link of a channel an
    /// arrival `kept`; then the retreated channels and the `newcomers` the
    /// event put on their routes (an admitted connection, the connections a
    /// failure moved onto their backups), each once and never left out.
    /// A retreated one may still wait where it waited: the fill loads it,
    /// and its bucket's turns pass over it. A failover takes a channel
    /// off its waitlist, since its route moves.
    ///
    /// Retreat is where an event adds headroom that no fill has been
    /// offered yet, so only the retreated channels' links are read. A kept
    /// channel's links hold no bucket with room: a row waiting there would
    /// have been counted in the demand the keep rule found room for.
    fn fill_candidates(
        &mut self,
        retreated: &[ChainPair],
        kept: &[ChainPair],
        newcomers: &[ChainPair],
        out: &mut Vec<ChainPair>,
        handles: &mut Vec<Blocked>,
    ) {
        let Self {
            links,
            connections,
            marks,
            loose,
            ..
        } = self;
        let over = connections.primary_links(retreated);
        let kept_links = connections
            .primary_links(kept)
            .filter(|_| !loose.is_empty());
        let over = over.chain(kept_links);
        Self::gather_waiting(links, connections, marks, loose, over, out, handles);
        let named = retreated.iter().chain(newcomers);
        out.extend(named.filter(|&&pair| self.marks.add(pair)));
    }

    /// The admission step: plan → commit → settle, for one request at its
    /// sequential point. Every establish in the workspace —
    /// [`Network::establish`], [`Network::establish_batch`], a cluster
    /// coordinator's — is a loop of this, and every one settles its own
    /// fill before it returns. `fuzz --diff-cluster` replays the
    /// coordinator's loop of this in lockstep with one-at-a-time
    /// establishment and compares full snapshots.
    ///
    /// # Errors
    ///
    /// See [`Network::plan_establish`].
    pub fn admit(&mut self, req: &EstablishRequest) -> Result<ConnectionId, AdmissionError> {
        let plan = self.plan_establish(req.src, req.dst, req.qos)?;
        Ok(self.commit_establish(plan))
    }

    /// Establishes a group of requests in the order given: a loop of
    /// [`Network::establish`]. Callers that are free to reorder —
    /// concurrent `drqosd` clients carry no cross-client ordering
    /// contract — can use [`Network::contention_order`] first.
    pub fn establish_batch(
        &mut self,
        requests: &[EstablishRequest],
    ) -> Vec<Result<ConnectionId, AdmissionError>> {
        let establish = |r: &EstablishRequest| self.establish(r.src, r.dst, r.qos);
        requests.iter().map(establish).collect()
    }

    /// A processing order for a batch, grouping requests whose endpoints
    /// sit on the most-contended links first: indices into `requests`,
    /// sorted by descending hard commitment per unit capacity of the
    /// hottest up-link incident to either endpoint, ties broken by input
    /// position (the order is a deterministic function of network state).
    ///
    /// Reordering is the *caller's* choice — [`Network::establish_batch`]
    /// itself is order-preserving. The engine's batch entry point applies
    /// this to a run of establishes, which has no cross-client ordering
    /// contract. No golden runs a non-identity order: a permuted session
    /// would renumber its ids. What pins the order is the benchmark's
    /// `burst16`, whose `layers` replica (`exec_batch`) sorts each batch
    /// by it and must match the engine's digest (its smoke test
    /// `quick_trace_reconciles_and_fills_every_layer_metric`), and the
    /// engine's `a_permuted_run_answers_each_line_in_its_place`.
    pub fn contention_order(&self, requests: &[EstablishRequest]) -> Vec<usize> {
        let node_heat = |n: NodeId| -> u64 {
            if !self.graph.contains_node(n) {
                return 0;
            }
            self.graph
                .neighbors(n)
                .iter()
                .map(|&(_, l)| {
                    let u = &self.links[l.index()];
                    if !u.is_up() {
                        return 0;
                    }
                    // Hard commitment per unit capacity, in parts per 2^16
                    // (integer arithmetic keeps the order platform-exact).
                    (u.hard_committed().as_kbps() << 16) / u.capacity().as_kbps().max(1)
                })
                .max()
                .unwrap_or(0)
        };
        let heat: Vec<u64> = requests
            .iter()
            .map(|r| node_heat(r.src).max(node_heat(r.dst)))
            .collect();
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| heat[b].cmp(&heat[a]).then(a.cmp(&b)));
        order
    }

    /// One request, admitted and settled: [`Network::admit`].
    ///
    /// # Errors
    ///
    /// See [`Network::plan_establish`].
    pub fn establish(
        &mut self,
        src: NodeId,
        dst: NodeId,
        qos: ElasticQos,
    ) -> Result<ConnectionId, AdmissionError> {
        self.admit(&EstablishRequest { src, dst, qos })
    }

    // ------------------------------------------------------ termination --

    /// Releases a connection, returning it. Channels that shared links may
    /// grow into the freed bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownConnection`] for an unknown id.
    pub fn release(&mut self, id: ConnectionId) -> Result<DrConnection, NetworkError> {
        let Some((mut conn, counted, waited)) = self.connections.remove(id) else {
            return Err(NetworkError::UnknownConnection(id.0));
        };
        self.plan_version.release(id);
        if let Some(((link, increment), rank)) = waited {
            #[cfg(test)]
            {
                self.fill.unwaited[1] += 1;
            }
            self.links[link.index()].unwait(increment, rank);
        }
        Self::retreat_conn(&mut self.links, &mut self.total_bandwidth, &mut conn);
        let min = conn.qos().min();
        for &l in conn.primary().links() {
            self.links[l.index()].remove_primary(id, min, counted);
        }
        for b in conn.backups() {
            Self::unreserve_backup(&mut self.links, id, min, conn.primary(), b);
        }
        self.total_bandwidth -= conn.bandwidth();
        // Beneficiaries: the rows waiting on any link the departed
        // connection touched (its backup links free reservation too);
        // nobody retreated for it, so nobody else can grow.
        let backup_links = conn.backups().iter().flat_map(|b| b.links());
        let freed = conn.primary().links().iter().chain(backup_links).copied();
        let (mut candidates, mut handles) = self.spare_buffers();
        let (links, connections, loose) = (&self.links, &self.connections, &self.loose);
        let (out, wake) = (&mut candidates, &mut handles);
        Self::gather_waiting(links, connections, &mut self.marks, loose, freed, out, wake);
        self.settle(candidates, handles);
        Ok(conn)
    }

    // ----------------------------------------------- backup multiplexing --

    /// Registers `backup` of connection `id` on every link it crosses,
    /// each against the failures of `primary` that activate it there.
    /// With [`Network::unreserve_backup`], the one place the multiplexing
    /// ledgers are written.
    fn reserve_backup(
        links: &mut [LinkUsage],
        id: ConnectionId,
        min: Bandwidth,
        primary: &Path,
        backup: &Path,
    ) {
        for &l in backup.links() {
            links[l.index()].add_backup(id, min, &conflict_set(primary.links(), l));
        }
    }

    /// Undoes [`Network::reserve_backup`] with the same arguments.
    fn unreserve_backup(
        links: &mut [LinkUsage],
        id: ConnectionId,
        min: Bandwidth,
        primary: &Path,
        backup: &Path,
    ) {
        for &l in backup.links() {
            links[l.index()].remove_backup(id, min, &conflict_set(primary.links(), l));
        }
    }

    // ----------------------------------------------- elastic adaptation --

    /// Drops the connection of a live `(slot, id)` pair to its minimum
    /// level, returning extras to its links. A waiting one keeps its
    /// waitlist place: the fill that follows loads it, and moves the place
    /// only if it ends refused elsewhere.
    fn retreat(&mut self, (slot, id): ChainPair) {
        let conn = self
            .connections
            .at_mut(slot, id)
            .expect("retreat of unknown id"); // lint:allow(panic-reachability): private helper, callers hold the id
        Self::retreat_conn(&mut self.links, &mut self.total_bandwidth, conn);
    }

    /// [`Self::retreat`] on borrowed parts, for callers that already hold
    /// the connection.
    fn retreat_conn(links: &mut [LinkUsage], total: &mut Bandwidth, conn: &mut DrConnection) {
        let extra = conn.extra();
        if extra == Bandwidth::ZERO {
            return;
        }
        conn.set_level(0);
        for &l in conn.primary().links() {
            links[l.index()].remove_extra(extra);
        }
        *total -= extra;
    }

    /// The connections whose *primary* crosses any of `links` — the
    /// "directly chained" set of the `P_f` measurement — in id order:
    /// gather every link's (sorted) membership, then sort and deduplicate
    /// once. The commit path gathers the same set by stamp, unsorted
    /// (`Network::gather`); this is the reference it is held to.
    pub fn primaries_sharing(&self, links: impl IntoIterator<Item = LinkId>) -> Vec<ConnectionId> {
        let mut links: Vec<LinkId> = links.into_iter().collect();
        sort_dedup(&mut links);
        let mut out = Vec::new();
        for l in links {
            out.extend_from_slice(self.links[l.index()].primaries());
        }
        sort_dedup(&mut out);
        out
    }

    /// The links that are currently operational.
    pub fn up_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, u)| u.is_up())
            .map(|(i, _)| LinkId(i))
    }

    // ------------------------------------------------------- validation --

    /// Recomputes all per-link accounting from the connection table and
    /// compares it against the incremental bookkeeping, returning every
    /// discrepancy instead of stopping at the first. O(C·hops² + L) — the
    /// square is the multiplexing ledger, one contribution per backup link
    /// and primary link of a connection; the testkit's oracles run this
    /// after every operation.
    pub fn check_invariants(&self) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        let mut min_sums = vec![Bandwidth::ZERO; self.links.len()];
        let mut extra_sums = vec![Bandwidth::ZERO; self.links.len()];
        // Connections are visited in id order, so these come out sorted,
        // as the per-link membership vectors must be; each primary entry
        // must carry the slot its connection lives in.
        let mut primary_sets: Vec<Vec<ChainPair>> = vec![Vec::new(); self.links.len()];
        let mut growable_demands = vec![Bandwidth::ZERO; self.links.len()];
        // Links where a connection's count disagrees with its remaining,
        // and per link the connections that wait there.
        let mut mismarked = vec![false; self.links.len()];
        let mut waiting = vec![0; self.links.len()];
        let policy = self.config.policy;
        let mut backup_sets: Vec<Vec<ChainPair>> = vec![Vec::new(); self.links.len()];
        let mut total = Bandwidth::ZERO;
        for (slot, conn) in self.connections.iter() {
            total += conn.bandwidth();
            if conn.level() > conn.qos().max_level() {
                violations.push(InvariantViolation::LevelAboveMax {
                    conn: conn.id(),
                    level: conn.level(),
                    max: conn.qos().max_level(),
                });
            }
            let below = conn.level() < conn.qos().max_level();
            let remaining = fill::remaining(conn);
            if let Some(first) = conn.primary().links().first() {
                mismarked[first.index()] |= self.connections.counted(slot) != remaining;
            }
            if let Some((link, _)) = self.connections.blocked(slot) {
                waiting[link.index()] += 1;
            }
            for &l in conn.primary().links() {
                min_sums[l.index()] += conn.qos().min();
                extra_sums[l.index()] += conn.extra();
                primary_sets[l.index()].push((slot, conn.id()));
                if below {
                    growable_demands[l.index()] += remaining;
                }
            }
            for (i, b) in conn.backups().iter().enumerate() {
                if b == conn.primary() {
                    violations.push(InvariantViolation::BackupEqualsPrimary { conn: conn.id() });
                }
                if self.config.disjointness == BackupDisjointness::Strict
                    && !conn.primary().is_link_disjoint(b)
                {
                    violations.push(InvariantViolation::BackupNotDisjoint { conn: conn.id() });
                }
                for other in &conn.backups()[i + 1..] {
                    if !b.is_link_disjoint(other) {
                        violations.push(InvariantViolation::BackupsNotMutuallyDisjoint {
                            conn: conn.id(),
                        });
                    }
                }
                for &l in b.links() {
                    backup_sets[l.index()].push((slot, conn.id()));
                }
            }
        }
        if total != self.total_bandwidth {
            violations.push(InvariantViolation::TotalBandwidthMismatch {
                cached: self.total_bandwidth,
                recomputed: total,
            });
        }
        // Per failed link, what its failure activates on the link at hand:
        // the multiplexing ledger that link must hold, from the connection
        // table alone and not through `conflict_set`. All zero between links.
        let mut activated = vec![Bandwidth::ZERO; self.links.len()];
        for (i, usage) in self.links.iter().enumerate() {
            let link = LinkId(i);
            if usage.primary_min_sum() != min_sums[i] {
                violations.push(InvariantViolation::MinSumMismatch {
                    link,
                    cached: usage.primary_min_sum(),
                    recomputed: min_sums[i],
                });
            }
            if usage.extra_sum() != extra_sums[i] {
                violations.push(InvariantViolation::ExtraSumMismatch {
                    link,
                    cached: usage.extra_sum(),
                    recomputed: extra_sums[i],
                });
            }
            let columns = usage.primary_slots().len() == usage.primaries().len();
            if !columns || !usage.primary_pairs().eq(primary_sets[i].iter().copied()) {
                violations.push(InvariantViolation::PrimarySetMismatch { link });
            }
            // Each bucket holds, strictly in rank order, live primaries of
            // this link below their maximum that wait here for its
            // increment, at their rank, which the table records — a
            // duplicate, a wrong slot or a stale rank shows — and as many
            // as wait here, so none is missing; the demand is the growable
            // set's remaining bandwidth.
            let buckets = usage.buckets();
            let waitlist = buckets.iter().enumerate().all(|(at, b)| {
                let distinct = buckets[..at].iter().all(|o| o.increment != b.increment);
                let sorted = b.rows.windows(2).all(|w| w[0].0 > w[1].0);
                let waits = |&(rank, slot): &(u128, Slot)| {
                    let conn = self.connections.at(slot, ConnectionId(rank as u64));
                    conn.is_some_and(|c| {
                        self.connections.waiting(slot) == Some(((link, b.increment), rank))
                            && c.level() < c.qos().max_level()
                            && fill::rank(policy, c) == rank
                    })
                };
                distinct && sorted && !b.rows.is_empty() && b.rows.iter().all(waits)
            });
            let entries: usize = buckets.iter().map(|b| b.rows.len()).sum();
            let waitlist = waitlist && entries == waiting[i];
            let demand = usage.growable_demand() == growable_demands[i];
            if mismarked[i] || !waitlist || !demand {
                violations.push(InvariantViolation::GrowableSetMismatch { link });
            }
            let backups = backup_sets[i].iter().map(|&(_, id)| id);
            if !backups.eq(usage.backups().iter().copied()) {
                violations.push(InvariantViolation::BackupSetMismatch { link });
            }
            if usage.primary_min_sum() + usage.extra_sum() > usage.capacity() {
                violations.push(InvariantViolation::CapacityExceeded {
                    link,
                    allocated: usage.primary_min_sum() + usage.extra_sum(),
                    capacity: usage.capacity(),
                });
            }
            if usage.recomputed_reservation() != usage.backup_reservation() {
                violations.push(InvariantViolation::ReservationOutOfSync {
                    link,
                    cached: usage.backup_reservation(),
                    recomputed: usage.recomputed_reservation(),
                });
            }
            // A backup on this link is activated by the failure of any
            // link of its primary but this one, which takes it down too.
            let activating = || {
                let backed_up = backup_sets[i].iter();
                let conns = backed_up.filter_map(|&(slot, id)| self.connections.at(slot, id));
                conns.flat_map(|c| {
                    let failed = c.primary().links().iter().filter(|&&f| f != link);
                    failed.map(|f| (f.index(), c.qos().min()))
                })
            };
            let mut entries = 0;
            for (f, min) in activating() {
                entries += usize::from(activated[f] == Bandwidth::ZERO);
                activated[f] += min;
            }
            let held = usage.conflict_ledger();
            if held.len() != entries || held.iter().any(|&(f, sum)| activated[f.index()] != sum) {
                violations.push(InvariantViolation::ConflictLedgerMismatch { link });
            }
            for (f, _) in activating() {
                activated[f] = Bandwidth::ZERO;
            }
        }
        violations
    }

    /// Panicking wrapper around [`Self::check_invariants`]; used by tests
    /// and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics with every violation listed, one per line, if any invariant
    /// is violated.
    pub fn validate(&self) {
        let violations = self.check_invariants();
        assert!(
            violations.is_empty(),
            "network invariants violated:\n{}",
            crate::invariant::format_violations(&violations)
        );
    }
}

/// Builders and seeded generators shared by the tests of this module and
/// of the stage files.
#[cfg(test)]
mod support {
    use super::*;
    use drqos_sim::rng::Rng;
    use drqos_topology::{regular, waxman};
    use Act::*;

    pub(super) fn qos() -> ElasticQos {
        ElasticQos::paper_video(100) // 100..500 step 100, 5 levels
    }

    /// A 6-ring with tiny capacity for easy saturation tests.
    pub(super) fn small_net(capacity_kbps: u64) -> Network {
        let g = regular::ring(6).unwrap();
        Network::new(
            g,
            NetworkConfig {
                capacity: Bandwidth::kbps(capacity_kbps),
                ..NetworkConfig::default()
            },
        )
    }

    pub(super) fn random_qos(rng: &mut Rng) -> ElasticQos {
        let min = [50, 100, 150][rng.range_usize(3)];
        let step = [50, 100, 200][rng.range_usize(3)];
        let levels = rng.range_u64(7);
        let utility = [0.5, 1.0, 1.0, 1.01, 2.0, 3.7][rng.range_usize(6)];
        ElasticQos::new(
            Bandwidth::kbps(min),
            Bandwidth::kbps(min + step * levels),
            Bandwidth::kbps(step),
            utility,
        )
        .unwrap()
    }

    pub(super) fn random_request(rng: &mut Rng, nodes: usize) -> EstablishRequest {
        EstablishRequest {
            src: NodeId(rng.range_usize(nodes)),
            dst: NodeId(rng.range_usize(nodes)),
            qos: random_qos(rng),
        }
    }

    /// One seeded case: a small network under a random op sequence whose
    /// fills come from commits, batches, releases and link failures.
    pub(super) fn random_case(case: u64) -> (Network, Rng) {
        let mut rng = Rng::seed_from_u64(0xF111 ^ case);
        let graph = match case % 3 {
            0 => regular::ring(5 + rng.range_usize(4)).unwrap(),
            1 => regular::torus(3, 3 + rng.range_usize(2)).unwrap(),
            _ => waxman::paper_waxman(12 + rng.range_usize(8))
                .generate(&mut rng)
                .unwrap(),
        };
        // Starved, tight, slack, or (below) a different one per link.
        let classes = [300, 600, 1_000, 2_500, 10_000];
        let class = rng.range_usize(classes.len() + 1);
        let policy = if rng.chance(0.5) {
            AdaptationPolicy::Coefficient
        } else {
            AdaptationPolicy::MaxUtility
        };
        let mut net = Network::new(
            graph,
            NetworkConfig {
                capacity: Bandwidth::kbps(*classes.get(class).unwrap_or(&1_000)),
                policy,
                require_backup: rng.chance(0.7),
                ..NetworkConfig::default()
            },
        );
        if class == classes.len() {
            for usage in &mut net.links {
                *usage = LinkUsage::new(Bandwidth::kbps(classes[rng.range_usize(classes.len())]));
            }
        }
        (net, rng)
    }

    /// What an op of a [`Mix`] does: release a live connection, fail or
    /// repair any link, repair a link that is down, fail a node, fail or
    /// repair one of the first three groups, establish three requests as
    /// one batch, or set a hot request up and tear it down at once.
    #[derive(Clone, Copy)]
    pub(super) enum Act {
        Release,
        Fail,
        Repair,
        RepairDown,
        FailNode,
        Group,
        Batch,
        ShortCall,
    }

    /// An op mix: each act with its share in per cent. The rest, and an
    /// act with nothing to act on, establishes one request.
    pub(super) type Mix = &'static [(Act, usize)];

    /// Releases, link faults and repairs, and batches.
    pub(super) const CHURN: Mix = &[(Release, 15), (Fail, 8), (Repair, 4), (Batch, 6)];

    /// Applies the op `seed` draws from `mix` to `net`, rendering its
    /// result; a short call sets up one of `hot`.
    pub(super) fn random_op(
        net: &mut Network,
        seed: u64,
        mix: Mix,
        hot: &[EstablishRequest],
    ) -> String {
        let mut rng = Rng::seed_from_u64(seed);
        let (nodes, links) = (net.graph().node_count(), net.graph().link_count());
        let live: Vec<ConnectionId> = net.connections().map(|c| c.id()).collect();
        let down: Vec<LinkId> = (0..links)
            .map(LinkId)
            .filter(|l| !net.links[l.index()].is_up())
            .collect();
        let mut roll = rng.range_usize(100);
        let act = mix.iter().find_map(|&(act, share)| {
            let drawn = roll < share;
            roll = roll.saturating_sub(share);
            drawn.then_some(act)
        });
        match act {
            Some(Release) if !live.is_empty() => {
                format!("{:?}", net.release(live[rng.range_usize(live.len())]))
            }
            Some(Fail) => format!("{:?}", net.fail_link(LinkId(rng.range_usize(links)))),
            Some(Repair) => format!("{:?}", net.repair_link(LinkId(rng.range_usize(links)))),
            Some(RepairDown) if !down.is_empty() => {
                format!("{:?}", net.repair_link(down[rng.range_usize(down.len())]))
            }
            Some(FailNode) => format!("{:?}", net.fail_node(NodeId(rng.range_usize(nodes)))),
            Some(Group) if rng.chance(0.5) => format!("{:?}", net.fail_srlg(rng.range_usize(3))),
            Some(Group) => format!("{:?}", net.repair_srlg(rng.range_usize(3))),
            Some(Batch) => {
                let reqs: Vec<_> = (0..3).map(|_| random_request(&mut rng, nodes)).collect();
                format!("{:?}", net.establish_batch(&reqs))
            }
            Some(ShortCall) if !hot.is_empty() => {
                let r = hot[rng.range_usize(hot.len())];
                let set_up = net.establish(r.src, r.dst, r.qos);
                let torn_down = set_up.clone().map(|id| net.release(id));
                format!("{set_up:?} {torn_down:?}")
            }
            _ => {
                let r = random_request(&mut rng, nodes);
                format!("{:?}", net.establish(r.src, r.dst, r.qos))
            }
        }
    }

    /// The live `(slot, id)` pairs, in id order.
    pub(super) fn live_pairs(net: &Network) -> Vec<ChainPair> {
        let pairs = net.connections.iter();
        pairs.map(|(slot, c)| (slot, c.id())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::fill::{is_slack, Answer, FillScratch};
    use super::support::{Act::*, *};
    use super::*;
    use crate::cases;
    use drqos_sim::rng::Rng;
    use drqos_topology::regular;

    // ----------------------------------------------------------- fixtures --

    /// A ring so tight that a run of antipodal requests mixes admissions
    /// and rejections and fights over increments.
    fn tight_ring() -> (Network, Vec<EstablishRequest>) {
        let config = NetworkConfig {
            capacity: Bandwidth::kbps(800),
            ..NetworkConfig::default()
        };
        let reqs = (0..10)
            .map(|i| EstablishRequest {
                src: NodeId(i % 6),
                dst: NodeId((i + 3) % 6),
                qos: qos(),
            })
            .collect();
        (Network::new(regular::ring(6).unwrap(), config), reqs)
    }

    /// A 4×4 torus of `capacity_kbps` links.
    fn torus_net(capacity_kbps: u64) -> Network {
        Network::new(
            regular::torus(4, 4).unwrap(),
            NetworkConfig {
                capacity: Bandwidth::kbps(capacity_kbps),
                ..NetworkConfig::default()
            },
        )
    }

    /// Two 100–500 Kbps channels on the single link of a two-node line:
    /// the second commit's fill sees both at level 0, asking 800 Kbps of
    /// the link between them.
    fn two_on_one_link(capacity_kbps: u64) -> Network {
        let mut net = Network::new(
            regular::grid(1, 2).unwrap(),
            NetworkConfig {
                capacity: Bandwidth::kbps(capacity_kbps),
                require_backup: false,
                ..NetworkConfig::default()
            },
        );
        for _ in 0..2 {
            net.establish(NodeId(0), NodeId(1), qos()).unwrap();
        }
        net.validate();
        net
    }

    /// `n` 100–500 Kbps channels over the single link of a two-node line,
    /// 99 Kbps short of room for everyone's maximum.
    fn crowded_link(n: u64) -> Network {
        let mut net = two_on_one_link(n * 500 - 99);
        for _ in 2..n {
            net.establish(NodeId(0), NodeId(1), qos()).unwrap();
        }
        net
    }

    // ------------------------------------- commit, termination, accessors --

    #[test]
    fn establish_reserves_and_grows_to_max() {
        let mut net = small_net(10_000);
        let id = net.establish(NodeId(0), NodeId(2), qos()).unwrap();
        let c = net.connection(id).unwrap();
        // Alone in the network: grows to the maximum level.
        assert_eq!(c.bandwidth(), Bandwidth::kbps(500));
        assert!(c.has_backup());
        assert!(c.primary().is_link_disjoint(c.backup().unwrap()));
        net.validate();
    }

    #[test]
    fn arrival_forces_retreat_and_redistribution() {
        let mut net = small_net(800);
        // First connection takes 0-1-2 and grows to 500.
        let a = net.establish(NodeId(0), NodeId(2), qos()).unwrap();
        assert_eq!(net.connection(a).unwrap().bandwidth(), Bandwidth::kbps(500));
        // Second connection 1-3 overlaps on link 1-2: with 800 Kbps there
        // is not room for two 500 Kbps channels — both retreat and split
        // the 600 Kbps of extras fairly.
        let b = net.establish(NodeId(1), NodeId(3), qos()).unwrap();
        net.validate();
        let bw_a = net.connection(a).unwrap().bandwidth();
        let bw_b = net.connection(b).unwrap().bandwidth();
        assert!(bw_a < Bandwidth::kbps(500) && bw_b < Bandwidth::kbps(500));
        assert!(bw_a >= Bandwidth::kbps(100) && bw_b >= Bandwidth::kbps(100));
        net.validate();
    }

    #[test]
    fn release_lets_survivors_grow_back() {
        let mut net = small_net(800);
        let a = net.establish(NodeId(0), NodeId(2), qos()).unwrap();
        let b = net.establish(NodeId(1), NodeId(3), qos()).unwrap();
        let before = net.connection(a).unwrap().bandwidth();
        net.release(b).unwrap();
        net.validate();
        let after = net.connection(a).unwrap().bandwidth();
        assert!(after >= before);
        assert_eq!(after, Bandwidth::kbps(500));
        assert_eq!(net.len(), 1);
    }

    #[test]
    fn release_unknown_fails() {
        let mut net = small_net(1_000);
        assert!(matches!(
            net.release(ConnectionId(9)),
            Err(NetworkError::UnknownConnection(9))
        ));
    }

    #[test]
    fn average_bandwidth_tracks_totals() {
        let mut net = small_net(10_000);
        assert_eq!(net.average_bandwidth(), None);
        net.establish(NodeId(0), NodeId(2), qos()).unwrap();
        assert_eq!(net.average_bandwidth(), Some(500.0));
        assert_eq!(net.total_primary_bandwidth(), Bandwidth::kbps(500));
        assert!(net.average_path_hops().unwrap() >= 1.0);
    }

    #[test]
    fn many_connections_saturate_down_to_minimum() {
        let g = regular::ring(6).unwrap();
        let mut net = Network::new(
            g,
            NetworkConfig {
                capacity: Bandwidth::kbps(2_000),
                ..NetworkConfig::default()
            },
        );
        let mut accepted = 0;
        for i in 0..24 {
            let (s, d) = (NodeId(i % 6), NodeId((i + 3) % 6));
            if net.establish(s, d, qos()).is_ok() {
                accepted += 1;
            }
        }
        assert!(accepted >= 4, "accepted only {accepted}");
        net.validate();
        // Heavily loaded ring: the average sits near the minimum.
        let avg = net.average_bandwidth().unwrap();
        assert!(avg < 300.0, "expected saturation, avg {avg}");
    }

    /// A contended batch must land on exactly the sequential results and
    /// final state: same admissions/rejections, same ids, same snapshot.
    #[test]
    fn establish_batch_matches_sequential_exactly() {
        // Tight enough that later requests get rejected and earlier ones
        // fight over increments — both fill paths exercised.
        let (mut batched, reqs) = tight_ring();
        let mut sequential = batched.clone();
        let batch_results = batched.establish_batch(&reqs);
        let seq_results: Vec<_> = reqs
            .iter()
            .map(|r| sequential.establish(r.src, r.dst, r.qos))
            .collect();
        assert_eq!(batch_results, seq_results);
        batched.validate();
        assert_eq!(
            crate::snapshot::NetworkSnapshot::capture(&batched),
            crate::snapshot::NetworkSnapshot::capture(&sequential),
            "batched and sequential establishment diverged"
        );
        assert!(
            batch_results.iter().any(|r| r.is_ok()) && batch_results.iter().any(|r| r.is_err()),
            "the scenario should mix admissions and rejections"
        );
    }

    #[test]
    fn contention_order_groups_hot_endpoints_first() {
        // A path graph (no backups possible) keeps the load where it is
        // put: only link 0–1 carries commitment.
        let mut g = Graph::new();
        let n: Vec<NodeId> = (0..6).map(|_| g.add_node()).collect();
        for w in n.windows(2) {
            g.add_link(w[0], w[1]).unwrap();
        }
        let mut net = Network::new(
            g,
            NetworkConfig {
                capacity: Bandwidth::kbps(1_000),
                require_backup: false,
                ..NetworkConfig::default()
            },
        );
        for _ in 0..5 {
            net.establish(n[0], n[1], qos()).unwrap();
        }
        let reqs = [
            EstablishRequest {
                src: n[3],
                dst: n[4],
                qos: qos(),
            },
            EstablishRequest {
                src: n[0],
                dst: n[1],
                qos: qos(),
            },
            EstablishRequest {
                src: NodeId(99), // unknown endpoint sorts cold, not panics
                dst: n[1],
                qos: qos(),
            },
        ];
        // Requests touching the hot link first; the heat tie between #1
        // and #2 (both reach node 1) breaks by input position.
        assert_eq!(net.contention_order(&reqs), vec![1, 2, 0]);
        // An empty batch is fine.
        assert!(net.contention_order(&[]).is_empty());
    }

    // ----------------------------------------- the plan stage (`plan.rs`) --

    #[test]
    fn rejects_when_no_min_bandwidth() {
        // Capacity 150: one connection's min (100) + the second's min
        // (100) cannot share any link, and every 0→3 route on the ring
        // shares links with the first connection's channels.
        let mut net = small_net(150);
        net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        let err = net.establish(NodeId(0), NodeId(3), qos()).unwrap_err();
        assert!(matches!(
            err,
            AdmissionError::NoPrimaryRoute | AdmissionError::NoBackupRoute
        ));
        net.validate();
    }

    #[test]
    fn admits_until_minimum_capacity_exhausted() {
        // Capacity 250 fits exactly two 0→3 connections (two 100 Kbps
        // minima per link, 200 Kbps multiplexing-conflict reservation on
        // the backup route), but not three.
        let mut net = small_net(250);
        net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        assert!(net.establish(NodeId(0), NodeId(3), qos()).is_err());
        net.validate();
    }

    #[test]
    fn rejects_same_endpoints_and_unknown_nodes() {
        let mut net = small_net(1_000);
        assert_eq!(
            net.establish(NodeId(1), NodeId(1), qos()),
            Err(AdmissionError::SameEndpoints(NodeId(1)))
        );
        assert_eq!(
            net.establish(NodeId(0), NodeId(17), qos()),
            Err(AdmissionError::UnknownNode(NodeId(17)))
        );
    }

    #[test]
    fn backup_requirement_configurable() {
        // A line has no disjoint pair.
        let g = regular::grid(1, 3).unwrap();
        let mut strict = Network::new(g.clone(), NetworkConfig::default());
        assert_eq!(
            strict.establish(NodeId(0), NodeId(2), qos()),
            Err(AdmissionError::NoBackupRoute)
        );
        let mut lax = Network::new(
            g,
            NetworkConfig {
                require_backup: false,
                ..NetworkConfig::default()
            },
        );
        let id = lax.establish(NodeId(0), NodeId(2), qos()).unwrap();
        assert!(!lax.connection(id).unwrap().has_backup());
        lax.validate();
    }

    #[test]
    fn plan_does_not_mutate() {
        let net = small_net(10_000);
        let plan = net.plan_establish(NodeId(0), NodeId(2), qos()).unwrap();
        assert!(plan.backup().is_some());
        assert_eq!(plan.qos(), &qos());
        assert_eq!(net.len(), 0);
        assert_eq!(net.total_primary_bandwidth(), Bandwidth::ZERO);
    }

    #[test]
    fn multi_backup_establishes_mutually_disjoint_spares() {
        let g = regular::complete(6).unwrap();
        let mut net = Network::new(
            g,
            NetworkConfig {
                backup_count: 3,
                ..NetworkConfig::default()
            },
        );
        let id = net.establish(NodeId(0), NodeId(5), qos()).unwrap();
        let c = net.connection(id).unwrap();
        assert_eq!(c.backup_count(), 3);
        let paths: Vec<_> = std::iter::once(c.primary().clone())
            .chain(c.backups().iter().cloned())
            .collect();
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                assert!(paths[i].is_link_disjoint(&paths[j]), "{i} vs {j}");
            }
        }
        net.validate();
    }

    #[test]
    fn multi_backup_partial_when_topology_limits() {
        // A 6-ring has exactly two disjoint routes between any pair: the
        // second and third backups cannot exist.
        let mut net = Network::new(
            regular::ring(6).unwrap(),
            NetworkConfig {
                backup_count: 3,
                ..NetworkConfig::default()
            },
        );
        let id = net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        assert_eq!(net.connection(id).unwrap().backup_count(), 1);
        net.validate();
    }

    /// Two networks that differ only in the ignored
    /// [`NetworkConfig::route_cache`] stay snapshot-equal through seeded
    /// churn with link faults, and their plan memos count alike.
    #[test]
    fn the_route_cache_flag_changes_nothing() {
        for case in 0..60 {
            let (mut off, mut rng) = random_case(case);
            let mut on = off.clone();
            on.config.route_cache = !off.config.route_cache;
            for step in 0..40 {
                let seed = rng.next_u64();
                let want = random_op(&mut off, seed, CHURN, &[]);
                let got = random_op(&mut on, seed, CHURN, &[]);
                assert_eq!(got, want, "case {case} step {step}");
                assert_eq!(
                    crate::snapshot::NetworkSnapshot::capture(&on),
                    crate::snapshot::NetworkSnapshot::capture(&off),
                    "case {case} step {step}"
                );
            }
            assert_eq!(on.route_cache_stats(), off.route_cache_stats());
        }
    }

    /// A case of the churn tier: [`random_case`]'s network, three hot
    /// requests and 30–49 ops.
    fn churn_case(case: u64) -> (Case, Vec<u64>) {
        let (net, mut rng) = random_case(case);
        let nodes = net.graph().node_count();
        let hot = (0..3).map(|_| random_request(&mut rng, nodes)).collect();
        let ops = (0..30 + rng.range_usize(20)).map(|_| rng.next_u64());
        ((net, HOT_CHURN, hot), ops.collect())
    }

    /// Churn with short calls over the hot requests.
    const HOT_CHURN: Mix = &[
        (ShortCall, 30),
        (Release, 11),
        (Fail, 6),
        (Repair, 3),
        (Batch, 4),
    ];

    /// One op of the churn tier: 15 % a plan-only request for a hot one,
    /// which must leave every field of the state as it found it and plan
    /// the same when asked again (counted in `replanned`), and otherwise
    /// a [`HOT_CHURN`] op. The network must pass
    /// [`Network::check_invariants`] after it: sequences this long fail
    /// links faster than they repair them, so second failovers onto
    /// starved links are common.
    fn churn_op((net, mix, hot): &mut Case, seed: u64, replanned: &mut u64) -> Result<(), String> {
        let mut rng = Rng::seed_from_u64(seed);
        let got = if rng.chance(0.15) {
            let r = hot[rng.range_usize(hot.len())];
            let before = net.clone();
            let planned = net.plan_establish(r.src, r.dst, r.qos);
            let again = net.plan_establish(r.src, r.dst, r.qos);
            if *net != before || again != planned {
                return Err(format!("{planned:?}, then {again:?}"));
            }
            *replanned += 1;
            format!("{planned:?}")
        } else {
            random_op(net, rng.next_u64(), mix, hot)
        };
        let violations = net.check_invariants();
        if !violations.is_empty() {
            return Err(format!("{got}; {violations:?}"));
        }
        Ok(())
    }

    #[test]
    fn invariants_and_replanning_hold_on_seeded_cases() {
        let n = cases::scaled(600);
        let replanned = cases::run(n, churn_case, churn_op, |_, _| {}).unwrap();
        assert!(replanned > n, "{replanned}");
    }

    /// Case 736 of the churn tier without the activation check, shrunk
    /// to five of its 31 ops on a 300 Kbps network: three ops admit c0–c3
    /// (one a batch), then link 17 fails and c0 fails over onto link 11,
    /// and link 9 fails and c2's backup over link 11 is activated too, whose
    /// multiplexed reservation c0 had already spent: 400 Kbps of minima
    /// on it. Activation now looks for room first; without that check
    /// the witness fails at its last op.
    #[test]
    fn a_second_failover_cannot_overbook_a_starved_link() {
        let ops = [0, 1, 10, 11, 27].map(|i| churn_case(736).1[i]);
        let replayed = || cases::replay(churn_case, churn_op, 736, &ops);
        assert_eq!(replayed(), Ok(()));
        let unchecked = seam::with(Seam::SkipTheActivationCheck, replayed);
        let (at, err) = unchecked.unwrap_err();
        let overbooked = "CapacityExceeded { link: LinkId(";
        assert!(at == 4 && err.contains(overbooked), "{err}");
    }

    /// The footprint property: a plan — or a rejection — depends on no
    /// link outside its footprint. On `cases`
    /// seeded networks, each link a traced plan did not probe is failed
    /// (or repaired), or loaded to the brim, on a copy, and the copy must
    /// plan the same. Returns how many links were perturbed.
    fn footprint_property(cases: u64) -> Result<usize, String> {
        let mut perturbed = 0;
        let mut scratch = RouteScratch::new();
        for case in 0..cases {
            let (mut net, mut rng) = random_case(case);
            for _ in 0..12 {
                random_op(&mut net, rng.next_u64(), CHURN, &[]);
            }
            let nodes = net.graph().node_count();
            for _ in 0..3 {
                let r = random_request(&mut rng, nodes);
                let planned = net.plan_establish_traced(&mut scratch, r.src, r.dst, r.qos);
                for l in 0..net.links.len() {
                    if planned.1.iter().any(|&(probed, _)| probed.index() == l) {
                        continue;
                    }
                    let mut poked = net.clone();
                    let usage = &mut poked.links[l];
                    if rng.chance(0.5) {
                        usage.set_up(!usage.is_up());
                    } else {
                        let spare = usage.capacity().saturating_sub(usage.hard_committed());
                        usage.add_primary(ConnectionId(u64::MAX), 0, spare);
                    }
                    perturbed += 1;
                    let again = poked.plan_establish_traced(&mut scratch, r.src, r.dst, r.qos);
                    if again != planned {
                        return Err(format!(
                            "case {case}: {r:?} planned {planned:?}, but {again:?} \
                             once unprobed link {l} changed"
                        ));
                    }
                }
            }
        }
        Ok(perturbed)
    }

    #[test]
    fn a_link_outside_the_footprint_cannot_change_the_plan() {
        let perturbed = footprint_property(300).unwrap();
        assert!(perturbed > 5_000, "{perturbed}");
        let caught = seam::with(Seam::ForgetAProbedLink, || footprint_property(300));
        assert!(caught.is_err(), "the property has no teeth: {caught:?}");
    }

    // ----------------------------------------- the fill stage (`fill.rs`) --

    #[test]
    fn max_utility_policy_monopolizes() {
        let g = regular::ring(6).unwrap();
        let mut net = Network::new(
            g,
            NetworkConfig {
                // 650 = two minima (200) + one full climb (400) + change:
                // only one channel can reach its maximum.
                capacity: Bandwidth::kbps(650),
                policy: AdaptationPolicy::MaxUtility,
                ..NetworkConfig::default()
            },
        );
        // Two overlapping connections; the second has (slightly) higher
        // utility and should take every spare increment.
        let lo = qos().with_utility(1.0).unwrap();
        let hi = qos().with_utility(1.01).unwrap();
        let a = net.establish(NodeId(0), NodeId(3), lo).unwrap();
        let b = net.establish(NodeId(0), NodeId(3), hi).unwrap();
        net.validate();
        let bw_a = net.connection(a).unwrap().bandwidth();
        let bw_b = net.connection(b).unwrap().bandwidth();
        assert!(
            bw_b > bw_a,
            "higher-utility channel should win: {bw_a} vs {bw_b}"
        );
        assert_eq!(bw_a, Bandwidth::kbps(100), "loser stays at minimum");
    }

    #[test]
    fn coefficient_policy_shares_fairly() {
        let g = regular::ring(6).unwrap();
        let mut net = Network::new(
            g,
            NetworkConfig {
                capacity: Bandwidth::kbps(1_000),
                policy: AdaptationPolicy::Coefficient,
                ..NetworkConfig::default()
            },
        );
        let a = net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        let b = net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        net.validate();
        let bw_a = net.connection(a).unwrap().bandwidth();
        let bw_b = net.connection(b).unwrap().bandwidth();
        let diff = bw_a.as_kbps().abs_diff(bw_b.as_kbps());
        assert!(diff <= 100, "fair split expected: {bw_a} vs {bw_b}");
    }

    #[test]
    fn rigid_qos_never_grows() {
        let g = regular::ring(6).unwrap();
        let mut net = Network::new(g, NetworkConfig::default());
        let q = ElasticQos::rigid(Bandwidth::kbps(100)).unwrap();
        let id = net.establish(NodeId(0), NodeId(3), q).unwrap();
        assert_eq!(
            net.connection(id).unwrap().bandwidth(),
            Bandwidth::kbps(100)
        );
        net.validate();
    }

    /// How the rows and buckets of the fills the admission differential
    /// watched were taken, how their rows left the waitlists, and how many
    /// rows were loose.
    #[derive(Debug, Default)]
    struct FillTally {
        /// Granted to their maximum in one step.
        bulk: usize,
        /// Through the turns, woken ones included.
        turns: usize,
        /// Woken off a waitlist, their bucket's link having room.
        woken: usize,
        /// Offered buckets that woke nobody: their head was refused where
        /// it waits, or the fill had loaded every row.
        refused_handles: usize,
        /// Rows woken behind their bucket's head: a wake queued them.
        promoted: usize,
        /// Bucket rows a handle's walk passed over, the fill having loaded
        /// them.
        skipped: usize,
        /// Rows taken off a waitlist by a write-back that moved them, by
        /// release and by failover.
        unwaited: [usize; 3],
        /// Rows a write-back left in the place they held.
        left_in_place: usize,
        /// Loose rows, summed over the ops.
        loose: usize,
        /// Plans the memo answered, summed over the cases.
        memo_hits: u64,
        /// Commits answered in place and not, by [`Answer`], summed over
        /// the cases: the verdict on the state as it stands.
        answers: [u64; 6],
        /// The take-back's verdicts, by [`Answer`], summed over the cases.
        taken_back: [u64; 7],
    }

    impl FillTally {
        fn add(&mut self, fill: &FillScratch) {
            let bulk = fill.rows.iter().filter(|r| r.bulk).count();
            (self.bulk, self.turns) = (self.bulk + bulk, self.turns + fill.rows.len() - bulk);
            for handle in &fill.handles {
                self.woken += handle.woken;
                self.refused_handles += usize::from(handle.woken == 0);
                self.promoted += handle.woken.saturating_sub(1);
                self.skipped += handle.next - handle.woken;
            }
        }

        /// Adds what the case's network counted over the whole case.
        fn end_case(&mut self, (net, ..): &Case) {
            for (sum, n) in self.unwaited.iter_mut().zip(net.fill.unwaited) {
                *sum += n;
            }
            self.left_in_place += net.fill.left_in_place;
            self.memo_hits += net.route_cache_stats().hits;
            for (sum, n) in self.answers.iter_mut().zip(net.fill.answers) {
                *sum += n;
            }
            for (sum, n) in self.taken_back.iter_mut().zip(net.fill.taken_back) {
                *sum += n;
            }
        }
    }

    /// A network tier's case: the network, the mix its ops draw from and
    /// its hot requests.
    type Case = (Network, Mix, Vec<EstablishRequest>);

    /// A tier's case maker: the case and its op seeds.
    type Make = fn(u64) -> (Case, Vec<u64>);

    /// A case of the admission differential: [`random_case`]'s network
    /// under 10–23 [`CHURN`] ops. Every Waxman case (one in three) is
    /// fault-heavy instead: a capacity drawn per link, no backup required,
    /// three groups of three links registered and 80 [`FAULT_HEAVY`] ops,
    /// so that failures drop their victims and free room beside links
    /// still too tight to grow on, leaving loose rows an arrival meets
    /// only on a kept channel's link.
    fn admission_case(case: u64) -> (Case, Vec<u64>) {
        let (mut net, mut rng) = random_case(case);
        let heavy = case % 3 == 2;
        if heavy {
            net.config.require_backup = false;
            for usage in &mut net.links {
                let kbps = [300, 600, 1_000, 2_500, 10_000][rng.range_usize(5)];
                *usage = LinkUsage::new(Bandwidth::kbps(kbps));
            }
            // What planning reads changed behind the network's back.
            net.plan_version.mint();
            crate::scenario::register_seeded_srlgs(&mut net, 3, 3, case);
        }
        let (mix, steps) = if heavy {
            (FAULT_HEAVY, 80)
        } else {
            (CHURN, 10 + rng.range_usize(14))
        };
        let ops = (0..steps).map(|_| rng.next_u64()).collect();
        ((net, mix, Vec::new()), ops)
    }

    /// Link and node failures, repairs of down links and group events;
    /// nobody leaves.
    const FAULT_HEAVY: Mix = &[(Fail, 25), (RepairDown, 20), (FailNode, 5), (Group, 5)];

    /// One op of a differential case, on a clone under [`Seam::Reference`]
    /// — which plans every request afresh, the memo bypassed — and on
    /// the network itself, both applying the same seed: results, full
    /// state and invariants must agree with the reference, and the loose
    /// set must hold exactly the live listed rows whose recorded refusal
    /// no longer holds. Tallies the op's last fill and its loose rows.
    fn op_against_the_reference(
        (net, mix, hot): &mut Case,
        seed: u64,
        tally: &mut FillTally,
    ) -> Result<(), String> {
        let op = |net: &mut Network| random_op(net, seed, mix, hot);
        let mut oracle = net.clone();
        let want = seam::with(Seam::Reference, || op(&mut oracle));
        let got = op(net);
        let violations = net.check_invariants();
        if got != want || *net != oracle || !violations.is_empty() {
            return Err(format!("{got} vs reference {want}; {violations:?}"));
        }
        let unblocked = |&(slot, _): &ChainPair| {
            let listed = net.connections.counted(slot) > Bandwidth::ZERO;
            let waits = net.connections.blocked(slot);
            let exact = Seam::BlockedAtExactRoom;
            let held = waits
                .is_some_and(|(l, inc)| fill::still_blocked(&net.links[l.index()], inc, exact));
            listed && !held
        };
        let mut loose = net.loose.clone();
        loose.sort_unstable_by_key(|&(_, id)| id);
        let unblocked: Vec<ChainPair> = live_pairs(net).into_iter().filter(unblocked).collect();
        if loose != unblocked {
            return Err(format!("{got}: loose {loose:?}, unblocked {unblocked:?}"));
        }
        tally.loose += loose.len();
        tally.add(&net.fill);
        Ok(())
    }

    /// Runs cases `0..cases` of `make`'s tier, each op checked by
    /// [`op_against_the_reference`]. Tallies how the network's last fill
    /// of each op took its rows, how rows left the waitlists, and the
    /// loose rows.
    fn differential(make: Make, cases: u64) -> Result<FillTally, cases::Witness<String>> {
        cases::run(cases, make, op_against_the_reference, FillTally::end_case)
    }

    /// A case of the admission differential's short-call tier:
    /// [`random_case`]'s network with three groups of three links
    /// registered, four hot requests drawn once, and 60 [`SHORT_CALLS`]
    /// ops. The network under test plans through the memo, the reference
    /// afresh.
    fn short_call_case(case: u64) -> (Case, Vec<u64>) {
        let (mut net, mut rng) = random_case(case);
        crate::scenario::register_seeded_srlgs(&mut net, 3, 3, case);
        let nodes = net.graph().node_count();
        let hot = (0..4).map(|_| random_request(&mut rng, nodes)).collect();
        let ops = (0..60).map(|_| rng.next_u64()).collect();
        ((net, SHORT_CALLS, hot), ops)
    }

    /// Hot requests set up and torn down at once between link faults,
    /// repairs of down links and group events.
    const SHORT_CALLS: Mix = &[(ShortCall, 70), (Fail, 8), (RepairDown, 7), (Group, 5)];

    /// Both sides of the slack choice, both ends of an offered bucket's
    /// turn, a wake that queued the next row, a handle walking past a row
    /// the fill loaded, a write-back that moved a row's place and one that
    /// left it, a removal from a waitlist by release and by failover, a
    /// loose row, a commit answered in place and each reason not to, and
    /// each verdict of the take-back must have run, many times over.
    fn assert_admission_coverage(tally: &FillTally, cases: usize) {
        let [moved, release, failover] = tally.unwaited;
        assert!(
            tally.bulk > 4 * cases
                && tally.turns > 5 * cases
                && tally.woken > cases / 2
                && tally.refused_handles > cases / 4
                && tally.promoted > cases / 40
                && tally.skipped > 3 * cases
                && moved > cases
                && tally.left_in_place > 4 * cases
                && release > cases / 4
                && failover > cases / 8
                && tally.loose > cases / 4,
            "{tally:?}"
        );
        assert_answers(
            tally,
            cases as u64,
            [200, 25, 200, 50, 10, 4],
            [40, 1, 8, 10],
        );
    }

    /// Every answer of a commit must have run, in place and each reason
    /// not to, more than `per_100[a]` times per hundred cases for the
    /// [`Answer`] `a`. So must each verdict of the take-back, tried where
    /// the state as it stands failed on fits or the newcomer — in place,
    /// fits, the waitlists and a lowered row, more than `taken_back` times
    /// in that order — but the newcomer's part: the take-back stops the
    /// newcomer only where a link that lacks its increment carries lower
    /// turns alone, so that part never fails.
    fn assert_answers(tally: &FillTally, cases: u64, per_100: [u64; 6], taken_back: [u64; 4]) {
        let floors = tally.answers.iter().zip(per_100);
        let verdicts = [
            Answer::InPlace,
            Answer::Fits,
            Answer::Waitlists,
            Answer::Lowered,
        ];
        let verdicts = verdicts.map(|a| tally.taken_back[a as usize]);
        let floors = floors.chain(verdicts.iter().zip(taken_back));
        assert!(
            floors.into_iter().all(|(&n, f)| n * 100 > f * cases)
                && tally.taken_back[Answer::Newcomer as usize] == 0,
            "{tally:?}"
        );
    }

    #[test]
    fn the_admission_path_matches_its_reference_on_seeded_cases() {
        let n = cases::scaled(2_000);
        assert_admission_coverage(&differential(admission_case, n).unwrap(), n as usize);
    }

    /// Short calls interleaved with faults and group events must plan
    /// through the memo, many times a case, and their commits must be
    /// answered in place and not.
    fn assert_short_call_coverage(tally: &FillTally, cases: u64) {
        assert!(tally.memo_hits > 4 * cases, "{tally:?}");
        assert_answers(tally, cases, [500, 10, 500, 50, 16, 5], [50, 1, 12, 12]);
    }

    #[test]
    fn short_calls_match_their_reference_on_seeded_cases() {
        let n = cases::scaled(600);
        assert_short_call_coverage(&differential(short_call_case, n).unwrap(), n);
    }

    /// Each admission-path seam, with the tier that must catch it: the
    /// admission tier at 2 000 cases or the short-call tier at 600.
    const ADMISSION_SEAMS: [(Seam, Make, u64); 12] = [
        (Seam::WeakFill, admission_case, 2_000),
        (Seam::RefusedAtExactRoom, admission_case, 2_000),
        (Seam::ForgetABucketTail, admission_case, 2_000),
        (Seam::SkipTheLoweredRowTest, admission_case, 2_000),
        (Seam::WakeALoadedRow, admission_case, 2_000),
        (Seam::BlockedAtExactRoom, admission_case, 2_000),
        (Seam::ForgetALooseRow, admission_case, 2_000),
        (Seam::DropTheNewcomer, admission_case, 2_000),
        (Seam::SkipAListing, admission_case, 2_000),
        (Seam::ForgetARecount, admission_case, 2_000),
        (Seam::KeepTheMemoAcrossAFault, short_call_case, 600),
        (Seam::IgnoreTheWaitlists, short_call_case, 600),
    ];

    /// `armed`, armed around its tier in [`ADMISSION_SEAMS`], must fail
    /// it within the tier's cases and shrink to a witness of at most 12
    /// ops.
    fn assert_caught_and_shrunk(armed: Seam) {
        let row = ADMISSION_SEAMS.iter().find(|&&(seam, ..)| seam == armed);
        let &(_, make, n) = row.expect("a row of the seam table");
        let caught = seam::with(armed, || differential(make, n));
        let witness = caught.expect_err("the differential has no teeth");
        assert!(witness.ops.len() <= 12, "{armed:?}: {witness:?}");
    }

    #[test]
    fn every_admission_seam_is_caught_and_shrunk() {
        for (armed, ..) in ADMISSION_SEAMS {
            assert_caught_and_shrunk(armed);
        }
    }

    #[test]
    fn a_memo_kept_across_a_fault_is_caught() {
        assert_caught_and_shrunk(Seam::KeepTheMemoAcrossAFault);
    }

    #[test]
    fn a_slack_test_weakened_by_one_increment_is_caught() {
        assert_caught_and_shrunk(Seam::WeakFill);
    }

    #[test]
    fn a_deferred_turn_that_refuses_at_one_increment_of_room_is_caught() {
        assert_caught_and_shrunk(Seam::RefusedAtExactRoom);
    }

    #[test]
    fn a_bucket_that_forgets_its_tail_is_caught() {
        assert_caught_and_shrunk(Seam::ForgetABucketTail);
    }

    #[test]
    fn a_commit_that_ignores_the_waitlists_is_caught() {
        assert_caught_and_shrunk(Seam::IgnoreTheWaitlists);
    }

    #[test]
    fn a_take_back_that_skips_the_lowered_row_test_is_caught() {
        assert_caught_and_shrunk(Seam::SkipTheLoweredRowTest);
    }

    #[test]
    fn a_handle_that_wakes_a_row_the_fill_loaded_is_caught() {
        assert_caught_and_shrunk(Seam::WakeALoadedRow);
    }

    #[test]
    fn a_blocked_test_that_skips_a_row_with_one_increment_of_room_is_caught() {
        assert_caught_and_shrunk(Seam::BlockedAtExactRoom);
    }

    #[test]
    fn a_forgotten_loose_row_is_caught() {
        assert_caught_and_shrunk(Seam::ForgetALooseRow);
    }

    #[test]
    fn a_keep_test_without_the_newcomer_s_remaining_is_caught() {
        assert_caught_and_shrunk(Seam::DropTheNewcomer);
    }

    /// A rigid 1 Kbps channel and two 100–500 Kbps ones on the 1000 Kbps
    /// link of a two-node line: the last arrival's fill refused the third
    /// channel 1 Kbps short of its last increment. Returns the network,
    /// the rigid channel and the refused one.
    fn refused_one_kbps_short() -> (Network, ConnectionId, ChainPair) {
        let mut net = two_on_one_link(1_000);
        let both = live_pairs(&net);
        for &(_, id) in &both {
            net.release(id).unwrap();
        }
        let rigid = ElasticQos::rigid(Bandwidth::kbps(1)).unwrap();
        let rigid = net.establish(NodeId(0), NodeId(1), rigid).unwrap();
        for _ in 0..2 {
            net.establish(NodeId(0), NodeId(1), qos()).unwrap();
        }
        let refused = live_pairs(&net)[2];
        (net, rigid, refused)
    }

    /// The rows the last fill woke, one count per offered bucket.
    fn woken(net: &Network) -> Vec<usize> {
        net.fill.handles.iter().map(|h| h.woken).collect()
    }

    #[test]
    fn a_deferred_row_is_loaded_at_exactly_one_increment_of_room() {
        let (net, rigid, (slot, id)) = refused_one_kbps_short();
        let levels: Vec<usize> = net.connections().map(|c| c.level()).collect();
        assert_eq!(levels, [0, 4, 3]);
        let at = (LinkId(0), Bandwidth::kbps(100));
        assert_eq!(net.connections.blocked(slot), Some(at));
        assert_eq!(net.links[0].waiter(at.1, 0).map(|(_, s)| s), Some(slot));
        // One Kbps short, or down: its bucket's turn refuses it where it
        // waits, and it is never loaded.
        let mut short = net.clone();
        short.redistribute(&[], &[at]);
        assert_eq!((short.fill.rows.len(), woken(&short)), (0, vec![0]));
        assert!(short == net && short.connections.blocked(slot) == Some(at));
        let mut down = net.clone();
        down.links[0].set_up(false);
        down.redistribute(&[], &[at]);
        assert_eq!((down.fill.rows.len(), woken(&down)), (0, vec![0]));
        assert_eq!(down.connection(id).unwrap().level(), 3);
        // The rigid channel's release frees exactly one increment: loaded
        // and granted it, up to the maximum and off the waitlist.
        let mut exact = net.clone();
        exact.release(rigid).unwrap();
        assert_eq!((exact.fill.rows.len(), woken(&exact)), (1, vec![1]));
        assert_eq!(exact.connection(id).unwrap().level(), 4);
        assert!(exact.links[0].buckets().is_empty() && exact.connections.blocked(slot).is_none());
        exact.validate();
        // The mutant refuses it there.
        let mut mutant = net.clone();
        seam::with(Seam::RefusedAtExactRoom, || mutant.release(rigid).unwrap());
        assert_eq!(woken(&mutant), [0]);
        assert_eq!(mutant.connection(id).unwrap().level(), 3);
    }

    /// A 4-ring whose link 2–3 (link 2) has 550 Kbps, the others 1 000: B
    /// (0→1) runs on link 0 with its backup 0–3–2–1 across link 2, and R
    /// (2→3) runs on link 2 alone, beside B's 100 Kbps reservation, so its
    /// fill refused it there at level 3. B's release frees no link of R's
    /// primary but link 2's reservation: R must wake there and be granted
    /// as under the reference gather, which reads every listed primary of
    /// every link B touched.
    #[test]
    fn a_row_waiting_where_a_released_backup_ran_is_granted() {
        let mut g = Graph::with_nodes(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let mut net = Network::new(g, NetworkConfig::default());
        net.links[2] = LinkUsage::new(Bandwidth::kbps(550));
        let b = net.establish(NodeId(0), NodeId(1), qos()).unwrap();
        let r = net.establish(NodeId(2), NodeId(3), qos()).unwrap();
        let (b_conn, r_conn) = (net.connection(b).unwrap(), net.connection(r).unwrap());
        assert_eq!(r_conn.primary().links(), [LinkId(2)]);
        assert!(
            !b_conn.primary().crosses(LinkId(2)) && b_conn.backup().unwrap().crosses(LinkId(2))
        );
        let r_slot = live_pairs(&net)[1].0;
        assert_eq!(r_conn.level(), 3);
        assert_eq!(
            net.connections.blocked(r_slot),
            Some((LinkId(2), Bandwidth::kbps(100)))
        );
        let mut reference = net.clone();
        seam::with(Seam::Reference, || reference.release(b).unwrap());
        net.release(b).unwrap();
        assert_eq!(woken(&net), [1]);
        assert_eq!(net.connection(r).unwrap().level(), 4);
        assert!(net == reference);
        net.validate();
    }

    fn bulk_flags(net: &Network) -> Vec<bool> {
        net.fill.rows.iter().map(|r| r.bulk).collect()
    }

    #[test]
    fn headroom_equal_to_demand_is_granted_in_bulk() {
        let mut net = two_on_one_link(200 + 800);
        // A fill over both channels from their minimum finds headroom
        // exactly their demand.
        let both = retreat_all(&mut net);
        net.redistribute(&both, &[]);
        assert_eq!(bulk_flags(&net), [true, true]);
        assert_eq!(net.total_primary_bandwidth(), Bandwidth::kbps(1_000));
    }

    /// Drops every live channel to its minimum, so a fill has work to do,
    /// and lists it: the lists stay exact whichever rows a fill is offered.
    fn retreat_all(net: &mut Network) -> Vec<ChainPair> {
        let live = live_pairs(net);
        for &pair in &live {
            net.retreat(pair);
        }
        Network::reconcile(&mut net.links, &mut net.connections, live.iter().copied());
        live
    }

    #[test]
    fn headroom_one_short_of_demand_goes_through_the_heap() {
        let net = two_on_one_link(200 + 800 - 1);
        // 799 Kbps spare is seven increments, dealt alternately.
        let levels: Vec<usize> = net.connections().map(|c| c.level()).collect();
        assert_eq!(levels, [4, 3]);
        // Retreating both and refilling, through the heap or one increment
        // at a time, lands on the same state.
        let mut refilled = net.clone();
        let both = retreat_all(&mut refilled);
        let mut reference = refilled.clone();
        refilled.redistribute(&both, &[]);
        assert_eq!(bulk_flags(&refilled), [false, false]);
        reference.redistribute_reference(&both);
        assert!(refilled == net && reference == net);
    }

    #[test]
    fn a_down_link_is_never_slack() {
        let mut link = LinkUsage::new(Bandwidth::kbps(1_000));
        assert!(is_slack(&link, Bandwidth::kbps(1_000)));
        assert!(!is_slack(&link, Bandwidth::kbps(1_001)));
        link.set_up(false);
        assert!(!is_slack(&link, Bandwidth::ZERO));
        // A channel whose primary crosses a down link is offered nothing.
        let mut net = two_on_one_link(10_000);
        let both = retreat_all(&mut net);
        net.links[0].set_up(false);
        let mut reference = net.clone();
        net.redistribute(&both, &[]);
        reference.redistribute_reference(&both);
        assert_eq!(bulk_flags(&net), [false, false]);
        assert_eq!(net.total_primary_bandwidth(), Bandwidth::kbps(200));
        assert!(net == reference);
    }

    #[test]
    fn candidates_at_their_maximum_or_no_longer_live_are_skipped() {
        let mut net = two_on_one_link(10_000);
        let before = net.clone();
        let both = live_pairs(&net);
        // Both live channels sit at their maximum; c7 never existed and c1
        // is released before its pair is offered again.
        net.redistribute(&[both[0], both[1], (7, ConnectionId(7))], &[]);
        assert!(net.fill.rows.is_empty());
        assert!(net == before);
        net.retreat(both[0]);
        net.connections.remove(ConnectionId(1));
        net.redistribute(&both, &[]);
        assert_eq!(net.fill.rows.len(), 1);
        assert_eq!(net.connection(ConnectionId(0)).unwrap().level(), 4);
    }

    #[test]
    fn the_fill_ignores_the_order_of_its_candidates() {
        let mut rng = Rng::seed_from_u64(0x17_0DE4);
        let mut tight_fills = 0;
        for case in 0..200 {
            let (mut net, mut case_rng) = random_case(case);
            for _ in 0..16 {
                random_op(&mut net, case_rng.next_u64(), CHURN, &[]);
            }
            let sorted = retreat_all(&mut net);
            let mut shuffled = sorted.clone();
            rng.shuffle(&mut shuffled);
            let mut want = net.clone();
            want.redistribute(&sorted, &[]);
            net.redistribute(&shuffled, &[]);
            assert!(net == want, "case {case}: {shuffled:?}");
            net.validate();
            tight_fills += usize::from(bulk_flags(&net).contains(&false));
        }
        assert!(tight_fills > 50, "order can only matter in the heap");
    }

    #[test]
    fn a_stale_pair_is_no_candidate_and_neither_is_its_slot_s_new_occupant() {
        let mut net = crowded_link(3);
        let [c0, c1, c2] = live_pairs(&net)[..] else {
            panic!("three channels");
        };
        // c1's slot goes to the newcomer c3; c2's slot stays vacant.
        net.release(c1.1).unwrap();
        let c3 = net.establish(NodeId(0), NodeId(1), qos()).unwrap();
        assert_eq!(live_pairs(&net), [c0, c2, (c1.0, c3)]);
        net.release(c2.1).unwrap();
        retreat_all(&mut net);
        let filled = |candidates: &[ChainPair]| {
            let mut net = net.clone();
            net.redistribute(candidates, &[]);
            net.validate();
            net
        };
        // A pair of a released connection changes nothing, wherever it
        // sits and whether its slot is vacant or taken…
        let live = filled(&[c0, (c1.0, c3)]);
        assert!(live.total_primary_bandwidth() > net.total_primary_bandwidth());
        assert!(filled(&[c2, c0, (c1.0, c3), c1]) == live);
        // …and does not stand for the slot's new occupant: offered c0 and
        // the stale c1, the fill grows c0 alone.
        let alone = filled(&[c0]);
        assert_eq!(alone.connection(c3).unwrap().level(), 0);
        assert!(filled(&[c1, c0]) == alone);
        assert!(alone != live);
    }

    // ----------------------------------------- the fill answered in place --

    /// Establishes `src → dst` on `net` and on a clone under
    /// [`Seam::Reference`], requires the two to agree in result and state
    /// and `net` to hold its invariants, and returns how `net`'s commit
    /// was answered: the verdict on the state as it stands and the
    /// take-back's, if it was tried.
    fn establish_against_the_reference(
        net: &mut Network,
        src: usize,
        dst: usize,
        qos: ElasticQos,
    ) -> (Answer, Option<Answer>) {
        let (answers, taken_back) = (net.fill.answers, net.fill.taken_back);
        let mut reference = net.clone();
        let want = seam::with(Seam::Reference, || {
            reference.establish(NodeId(src), NodeId(dst), qos)
        });
        let got = net.establish(NodeId(src), NodeId(dst), qos);
        assert!(got.is_ok() && got == want, "{got:?} vs {want:?}");
        assert!(*net == reference);
        net.validate();
        let all = [
            Answer::InPlace,
            Answer::Loose,
            Answer::Policy,
            Answer::Fits,
            Answer::Newcomer,
            Answer::Waitlists,
            Answer::Lowered,
        ];
        let moved = |before: &[u64], after: &[u64]| {
            let moved = all
                .into_iter()
                .filter(|&a| before.get(a as usize) != after.get(a as usize));
            moved.collect::<Vec<Answer>>()
        };
        let stands = moved(&answers, &net.fill.answers);
        let taken_back = moved(&taken_back, &net.fill.taken_back);
        assert!(
            stands.len() == 1 && taken_back.len() <= 1,
            "one commit, one answer"
        );
        (stands[0], taken_back.first().copied())
    }

    /// The levels of the live connections, in id order.
    fn levels(net: &Network) -> Vec<usize> {
        net.connections().map(|c| c.level()).collect()
    }

    /// A two-node line whose one link has `capacity_kbps`, no backups.
    fn one_link(capacity_kbps: u64) -> Network {
        let mut g = Graph::with_nodes(2);
        g.add_link(NodeId(0), NodeId(1)).unwrap();
        let config = NetworkConfig {
            capacity: Bandwidth::kbps(capacity_kbps),
            require_backup: false,
            ..NetworkConfig::default()
        };
        Network::new(g, config)
    }

    /// An elastic QoS from `min` to `max` Kbps in steps of `step`.
    fn elastic(min: u64, max: u64, step: u64, utility: f64) -> ElasticQos {
        let kbps = Bandwidth::kbps;
        ElasticQos::new(kbps(min), kbps(max), kbps(step), utility).unwrap()
    }

    /// A lone channel at its maximum on a 999 Kbps link, then a newcomer
    /// of utility 2 on the same link: as things stand it takes the three
    /// increments there is room for, but its fourth turn ranks below the
    /// first channel's held fourth one. The take-back gives it that turn,
    /// the fill's result.
    #[test]
    fn a_newcomer_granted_past_a_retreated_row_s_held_turn_takes_it_back() {
        let mut net = two_on_one_link(999);
        for &(_, id) in &live_pairs(&net) {
            net.release(id).unwrap();
        }
        let first = establish_against_the_reference(&mut net, 0, 1, qos());
        assert_eq!(first, (Answer::InPlace, None));
        let keen = qos().with_utility(2.0).unwrap();
        let answer = establish_against_the_reference(&mut net, 0, 1, keen);
        assert_eq!(answer, (Answer::Newcomer, Some(Answer::InPlace)));
        assert_eq!(levels(&net), [3, 4]);
    }

    /// Node 1 is a hub: link 0 (0–1, 800 Kbps), link 1 (1–2, 600 Kbps),
    /// link 2 (1–3, 10 Mbps). C (1→2) and B (0→2) fill link 1; R (0→3)
    /// arrives and takes its maximum on link 0 while B waits at link 1;
    /// C's release lets B climb until link 0 refuses it, at a rank below
    /// R's held fourth turn there. A newcomer on link 2 chains R alone:
    /// in place the state would stand, but the fill, R retreated, gives
    /// B's waiting turn before R's fourth. The waitlist test alone refuses
    /// the in-place answer, and the mutant that skips it is wrong.
    #[test]
    fn a_bucket_head_below_a_retreated_row_s_last_turn_falls_back() {
        let mut g = Graph::with_nodes(4);
        for (a, b) in [(0, 1), (1, 2), (1, 3)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let config = NetworkConfig {
            require_backup: false,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(g, config);
        net.links[0] = LinkUsage::new(Bandwidth::kbps(800));
        net.links[1] = LinkUsage::new(Bandwidth::kbps(600));
        let c = net.establish(NodeId(1), NodeId(2), qos()).unwrap();
        net.establish(NodeId(0), NodeId(2), qos()).unwrap();
        net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        net.release(c).unwrap();
        let b_slot = live_pairs(&net)[0].0;
        assert_eq!(levels(&net), [2, 4]);
        let at_link_0 = (LinkId(0), Bandwidth::kbps(100));
        assert_eq!(net.connections.blocked(b_slot), Some(at_link_0));
        let mut mutant = net.clone();
        let answer = establish_against_the_reference(&mut net, 1, 3, qos());
        assert_eq!(answer, (Answer::Waitlists, None));
        assert_eq!(levels(&net), [3, 3, 4]);
        seam::with(Seam::IgnoreTheWaitlists, || {
            mutant.establish(NodeId(1), NodeId(3), qos()).unwrap()
        });
        // A clone's scratch starts empty: one commit, answered in place.
        assert_eq!(mutant.fill.answers[Answer::InPlace as usize], 1);
        assert_eq!(levels(&mutant), [2, 4, 4]);
    }

    /// A 4-ring of 10 Mbps links but link 0 (0–1, 550 Kbps): A (0→1) sits
    /// at its maximum on link 0. A newcomer 2→3 on link 2 takes its
    /// maximum there, but its backup 2–1–0–3 reserves its minimum on link
    /// 0, which overbooks A's extra: as things stand the fits test fails,
    /// and the take-back lowers A to what link 0 holds, the fill's result.
    #[test]
    fn a_newcomer_s_minimum_that_overbooks_a_chained_extra_takes_it_back() {
        let mut g = Graph::with_nodes(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let mut net = Network::new(g, NetworkConfig::default());
        net.links[0] = LinkUsage::new(Bandwidth::kbps(550));
        let first = establish_against_the_reference(&mut net, 0, 1, qos());
        assert_eq!(first, (Answer::InPlace, None));
        assert_eq!(levels(&net), [4]);
        let answer = establish_against_the_reference(&mut net, 2, 3, qos());
        assert_eq!(answer, (Answer::Fits, Some(Answer::InPlace)));
        let newcomer = net.connection(ConnectionId(1)).unwrap();
        assert!(newcomer.backup().unwrap().crosses(LinkId(0)));
        assert_eq!(levels(&net), [3, 4]);
    }

    /// One 500 Kbps link holds J (100–200 Kbps in steps of 100, utility 1)
    /// and K (100–300 in one step of 200, utility 2), both at their
    /// maximum. A rigid 150 Kbps newcomer overbooks it by 150: the
    /// take-back lowers J, whose held turn ranks highest, then K, whose
    /// 200 Kbps leaves 150 free — room for J's increment, so J is refused
    /// nowhere. The fill, both retreated, refuses K's turn first and grants
    /// J's: the lowered-row test alone refuses the candidate, and the
    /// mutant that skips it is wrong.
    #[test]
    fn a_lowered_row_with_room_left_falls_back() {
        let mut net = one_link(500);
        net.establish(NodeId(0), NodeId(1), elastic(100, 200, 100, 1.0))
            .unwrap();
        net.establish(NodeId(0), NodeId(1), elastic(100, 300, 200, 2.0))
            .unwrap();
        assert_eq!(levels(&net), [1, 1]);
        let rigid = ElasticQos::rigid(Bandwidth::kbps(150)).unwrap();
        let mut mutant = net.clone();
        let answer = establish_against_the_reference(&mut net, 0, 1, rigid);
        assert_eq!(answer, (Answer::Fits, Some(Answer::Lowered)));
        assert_eq!(levels(&net), [1, 0, 0]);
        seam::with(Seam::SkipTheLoweredRowTest, || {
            mutant.establish(NodeId(0), NodeId(1), rigid).unwrap()
        });
        assert_eq!(mutant.fill.taken_back[Answer::InPlace as usize], 1);
        assert_eq!(levels(&mutant), [0, 0, 0]);
    }

    /// A line 0–1–2 whose link 0 has 450 Kbps and link 1 700: J (0→2)
    /// climbs to 400 Kbps, then W (1→2) to 300, refused at link 1 at its
    /// third turn. A newcomer 0→1 overbooks J's extra on link 0: the
    /// take-back lowers J until the newcomer's own turns rank above its
    /// held ones, which frees room on link 1 where W waits. The fill, J
    /// retreated, wakes W there: the waitlist test refuses the candidate.
    #[test]
    fn a_take_back_that_frees_a_waiting_row_s_room_falls_back() {
        let mut g = Graph::with_nodes(3);
        for (a, b) in [(0, 1), (1, 2)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let config = NetworkConfig {
            require_backup: false,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(g, config);
        net.links[0] = LinkUsage::new(Bandwidth::kbps(450));
        net.links[1] = LinkUsage::new(Bandwidth::kbps(700));
        net.establish(NodeId(0), NodeId(2), qos()).unwrap();
        net.establish(NodeId(1), NodeId(2), qos()).unwrap();
        assert_eq!(levels(&net), [3, 2]);
        let w_slot = live_pairs(&net)[1].0;
        let at_link_1 = (LinkId(1), Bandwidth::kbps(100));
        assert_eq!(net.connections.blocked(w_slot), Some(at_link_1));
        let answer = establish_against_the_reference(&mut net, 0, 1, qos());
        assert_eq!(answer, (Answer::Fits, Some(Answer::Waitlists)));
    }

    /// One 350 Kbps link holds J (100–200 Kbps in steps of 100) at its
    /// maximum. A newcomer of utility 2 asks 200 Kbps increments: its first
    /// turn ranks below J's held one, so it takes J's increment back, but
    /// 150 Kbps is still short of its own and nothing else is held there.
    /// It is refused, and J's increment, taken back for nothing, would be
    /// granted straight back by the fill: the candidate fails on the
    /// lowered row and the fill leaves the state as it stood.
    #[test]
    fn a_newcomer_short_after_taking_back_a_smaller_increment_falls_back() {
        let mut net = one_link(350);
        net.establish(NodeId(0), NodeId(1), elastic(100, 200, 100, 1.0))
            .unwrap();
        assert_eq!(levels(&net), [1]);
        let keen = elastic(100, 500, 200, 2.0);
        let answer = establish_against_the_reference(&mut net, 0, 1, keen);
        assert_eq!(answer, (Answer::Newcomer, Some(Answer::Lowered)));
        assert_eq!(levels(&net), [1, 0]);
    }

    // --------------------------------------- the fault stage (`fault.rs`) --

    #[test]
    fn topology_epoch_tracks_liveness_changes() {
        let mut net = small_net(10_000);
        assert_eq!(net.topology_epoch(), 0);
        let l = net.graph().links().next().unwrap().id();
        net.fail_link(l).unwrap();
        assert_eq!(net.topology_epoch(), 1);
        // No-op mutations (already-down link) leave the epoch alone.
        assert!(net.fail_link(l).is_err());
        assert_eq!(net.topology_epoch(), 1);
        net.repair_link(l).unwrap();
        assert_eq!(net.topology_epoch(), 2);
        // Admission planning still works: the scratch needs no refresh.
        net.establish(NodeId(0), NodeId(1), qos()).unwrap();
        net.validate();
        // fail_node bumps once per adjacent up link (ring: degree 2).
        net.fail_node(NodeId(3)).unwrap();
        assert_eq!(net.topology_epoch(), 4);
    }

    #[test]
    fn srlg_registration_validates_sorts_and_dedups() {
        let mut net = small_net(10_000);
        assert!(matches!(
            net.register_srlg(vec![LinkId(99)]),
            Err(NetworkError::UnknownLink(LinkId(99)))
        ));
        let g = net
            .register_srlg(vec![LinkId(2), LinkId(0), LinkId(2)])
            .unwrap();
        assert_eq!(g, 0);
        assert_eq!(net.srlg_count(), 1);
        assert_eq!(net.srlg_links(g), Some(&[LinkId(0), LinkId(2)][..]));
        assert_eq!(net.srlg_links(1), None);
    }

    #[test]
    fn srlg_fires_all_members_atomically_and_round_trips() {
        let mut net = small_net(10_000);
        let g = net.register_srlg(vec![LinkId(0), LinkId(3)]).unwrap();
        let report = net.fail_srlg(g).unwrap();
        assert_eq!(report.links, [LinkId(0), LinkId(3)], "one event");
        assert_eq!(net.topology_epoch(), 2);
        assert!(net.up_links().all(|l| l != LinkId(0) && l != LinkId(3)));
        // Firing again changes nothing.
        assert!(matches!(
            net.fail_srlg(g),
            Err(NetworkError::SrlgStateUnchanged(0))
        ));
        net.repair_srlg(g).unwrap();
        assert_eq!(net.up_links().count(), 6);
        assert!(matches!(
            net.repair_srlg(g),
            Err(NetworkError::SrlgStateUnchanged(0))
        ));
        assert!(matches!(
            net.fail_srlg(7),
            Err(NetworkError::UnknownSrlg(7))
        ));
        net.validate();
    }

    #[test]
    fn srlg_skips_members_already_down() {
        let mut net = small_net(10_000);
        let g = net.register_srlg(vec![LinkId(1), LinkId(4)]).unwrap();
        net.fail_link(LinkId(1)).unwrap();
        // Only the still-up member fails; no error, no double event.
        assert_eq!(net.fail_srlg(g).unwrap().links, [LinkId(4)]);
        net.validate();
    }

    #[test]
    fn overlapping_node_and_srlg_failures_conserve_drop_count() {
        // Regression: a fail_node that takes a connection down followed by
        // an SRLG covering the same links must not count the victim twice.
        let mut net = small_net(10_000);
        let a = net.establish(NodeId(0), NodeId(2), qos()).unwrap();
        let g: usize = {
            // The SRLG covers every link node 1 touches, overlapping the
            // primary *and* whatever backups exist.
            let members: Vec<LinkId> = net
                .graph()
                .neighbors(NodeId(1))
                .iter()
                .map(|&(_, l)| l)
                .collect();
            net.register_srlg(members).unwrap()
        };
        net.fail_node(NodeId(1)).unwrap();
        let dropped_after_node = net.dropped_total();
        // The SRLG now has nothing left to do: every member is down.
        assert!(matches!(
            net.fail_srlg(g),
            Err(NetworkError::SrlgStateUnchanged(_))
        ));
        assert_eq!(net.dropped_total(), dropped_after_node);
        // Conservation: dropped + live == established.
        assert_eq!(net.dropped_total() + net.len() as u64, 1);
        let _ = a;
        net.validate();
    }

    #[test]
    fn failover_activates_backup() {
        let mut net = small_net(10_000);
        let id = net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        let primary_first_link = net.connection(id).unwrap().primary().links()[0];
        let backup_path = net.connection(id).unwrap().backup().unwrap().clone();
        let report = net.fail_link(primary_first_link).unwrap();
        assert_eq!(report.activated, vec![id]);
        assert!(report.dropped.is_empty());
        let c = net.connection(id).unwrap();
        assert_eq!(c.primary(), &backup_path);
        assert_eq!(c.failovers(), 1);
        net.validate();
    }

    #[test]
    fn failover_without_backup_drops() {
        let g = regular::grid(1, 3).unwrap();
        let mut net = Network::new(
            g,
            NetworkConfig {
                require_backup: false,
                ..NetworkConfig::default()
            },
        );
        let id = net.establish(NodeId(0), NodeId(2), qos()).unwrap();
        let l = net.connection(id).unwrap().primary().links()[0];
        let report = net.fail_link(l).unwrap();
        assert_eq!(report.dropped, vec![id]);
        assert!(net.connection(id).is_none());
        assert_eq!(net.dropped_total(), 1);
        assert_eq!(net.len(), 0);
        net.validate();
    }

    #[test]
    fn backup_loss_is_reestablished_where_possible() {
        let mut net = small_net(10_000);
        let id = net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        let backup_link = net.connection(id).unwrap().backup().unwrap().links()[0];
        let report = net.fail_link(backup_link).unwrap();
        assert_eq!(report.lost_backup, vec![id]);
        assert!(report.activated.is_empty());
        // On a 6-ring with one link down there is no second disjoint route,
        // so the backup stays lost until repair.
        assert!(!net.connection(id).unwrap().has_backup());
        let regained = net.repair_link(backup_link).unwrap();
        assert_eq!(regained, vec![id]);
        assert!(net.connection(id).unwrap().has_backup());
        net.validate();
    }

    /// Three routes join 0 and 1: link 0 alone, 0–2–1 over links 1 and 2,
    /// and 0–3–1 over links 3 and 4. With link 3 down, B (3→1, on link 4)
    /// is admitted without a backup, since each of its other routes
    /// crosses link 3; A (0→1) is admitted after it with its backup on
    /// 0–2–1 and loses it when link 1 fails, with 0–3–1 down too. One
    /// repair of link 3 tops up both, in id order.
    #[test]
    fn one_repair_tops_up_every_connection_short_of_a_backup() {
        let mut g = Graph::with_nodes(4);
        for (a, b) in [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let config = NetworkConfig {
            require_backup: false,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(g, config);
        net.fail_link(LinkId(3)).unwrap();
        let b = net.establish(NodeId(3), NodeId(1), qos()).unwrap();
        assert!(!net.connection(b).unwrap().has_backup());
        let a = net.establish(NodeId(0), NodeId(1), qos()).unwrap();
        let backup = net.connection(a).unwrap().backup().unwrap();
        assert!(backup.crosses(LinkId(1)));
        assert_eq!(net.fail_link(LinkId(1)).unwrap().lost_backup, [a]);
        assert!(!net.connection(a).unwrap().has_backup());
        assert_eq!(net.repair_link(LinkId(3)).unwrap(), [b, a]);
        assert!(net.connections().all(|c| c.has_backup()));
        net.validate();
    }

    #[test]
    fn double_fail_and_double_repair_error() {
        let mut net = small_net(10_000);
        net.fail_link(LinkId(0)).unwrap();
        assert!(matches!(
            net.fail_link(LinkId(0)),
            Err(NetworkError::LinkStateUnchanged(_))
        ));
        net.repair_link(LinkId(0)).unwrap();
        assert!(matches!(
            net.repair_link(LinkId(0)),
            Err(NetworkError::LinkStateUnchanged(_))
        ));
        assert!(matches!(
            net.fail_link(LinkId(99)),
            Err(NetworkError::UnknownLink(_))
        ));
    }

    #[test]
    fn failure_forces_sharing_channels_to_retreat() {
        // Torus: rich enough for several disjoint pairs.
        let g = regular::torus(4, 4).unwrap();
        let mut net = Network::new(
            g,
            NetworkConfig {
                capacity: Bandwidth::kbps(1_500),
                ..NetworkConfig::default()
            },
        );
        let ids: Vec<ConnectionId> = (0..6)
            .filter_map(|i| net.establish(NodeId(i), NodeId(15 - i), qos()).ok())
            .collect();
        assert!(ids.len() >= 3);
        net.validate();
        // Fail the first primary link of the first connection.
        let l = net.connection(ids[0]).unwrap().primary().links()[0];
        let report = net.fail_link(l).unwrap();
        net.validate();
        // Every surviving activated connection runs at some level; all
        // invariants hold (validate above) and the report is consistent.
        for id in &report.activated {
            assert!(net.connection(*id).is_some());
        }
        for id in &report.dropped {
            assert!(net.connection(*id).is_none());
        }
    }

    #[test]
    fn multi_backup_survives_two_failures() {
        let g = regular::complete(4).unwrap();
        let mut net = Network::new(
            g,
            NetworkConfig {
                backup_count: 2,
                // Nothing to top up from: node 0's three links carry the
                // primary and its two spares.
                disjointness: BackupDisjointness::Strict,
                ..NetworkConfig::default()
            },
        );
        let id = net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        for round in 1..=2 {
            let l = net.connection(id).unwrap().primary().links()[0];
            let report = net.fail_link(l).unwrap();
            assert_eq!(report.activated, vec![id], "round {round}");
            net.validate();
        }
        let c = net.connection(id).unwrap();
        assert_eq!(c.failovers(), 2);
        assert!(!c.has_backup(), "both spares consumed");
        // A third failure drops it.
        let l = net.connection(id).unwrap().primary().links()[0];
        let report = net.fail_link(l).unwrap();
        assert_eq!(report.dropped, vec![id]);
        net.validate();
    }

    #[test]
    fn repair_tops_up_to_configured_count() {
        let g = regular::complete(6).unwrap();
        let mut net = Network::new(
            g,
            NetworkConfig {
                backup_count: 2,
                ..NetworkConfig::default()
            },
        );
        let id = net.establish(NodeId(0), NodeId(5), qos()).unwrap();
        let backup_link = net.connection(id).unwrap().backups()[0].links()[0];
        net.fail_link(backup_link).unwrap();
        net.validate();
        // Re-establishment may already have topped it up (other routes
        // exist in a complete graph); after repair the count must be back
        // at the target either way.
        net.repair_link(backup_link).unwrap();
        assert_eq!(net.connection(id).unwrap().backup_count(), 2);
        net.validate();
    }

    #[test]
    fn node_failure_downs_all_adjacent_links() {
        let g = regular::torus(4, 4).unwrap();
        let mut net = Network::new(g, NetworkConfig::default());
        let a = net.establish(NodeId(0), NodeId(10), qos()).unwrap();
        let report = net.fail_node(NodeId(5)).unwrap();
        assert_eq!(report.links.len(), 4, "a torus node has degree 4");
        for &(_, l) in net.graph().neighbors(NodeId(5)) {
            assert!(!net.link_usage(l).is_up());
        }
        // Connection 0→10 may have failed over but must not be corrupted.
        if let Some(c) = net.connection(a) {
            assert!(c.bandwidth() >= Bandwidth::kbps(100));
        }
        net.validate();
    }

    #[test]
    fn node_failure_errors_once_all_links_down() {
        let g = regular::ring(5).unwrap();
        let mut net = Network::new(g, NetworkConfig::default());
        let first = net.fail_node(NodeId(0)).unwrap();
        assert_eq!(first.links.len(), 2);
        // Second failure of the same node: nothing left to fail.
        assert!(matches!(
            net.fail_node(NodeId(0)),
            Err(NetworkError::NodeAlreadyDown(NodeId(0)))
        ));
        net.validate();
    }

    #[test]
    fn node_failure_checks_bounds() {
        let g = regular::ring(5).unwrap();
        let mut net = Network::new(g, NetworkConfig::default());
        assert!(matches!(
            net.fail_node(NodeId(99)),
            Err(NetworkError::UnknownNode(NodeId(99)))
        ));
        // The error path must not bump the epoch.
        assert_eq!(net.topology_epoch(), 0);
    }

    // -------------------------------- unsorted, slot-addressed chain sets --

    /// The stamp gather over `over`, every pair resolved to its live
    /// connection and the ids sorted.
    fn gathered(net: &mut Network, over: &[LinkId]) -> Vec<ConnectionId> {
        let mut pairs = Vec::new();
        let over = over.iter().copied();
        Network::gather(&net.links, &mut net.marks, over, &mut pairs);
        let live = |&(slot, id)| {
            net.connections
                .at(slot, id)
                .expect("a gathered pair is live")
        };
        let mut ids: Vec<ConnectionId> = pairs.iter().map(|pair| live(pair).id()).collect();
        ids.sort_unstable();
        ids
    }

    /// Replays `cases` seeded op sequences and, after every op, gathers
    /// by stamp over random link lists — some links named twice — holding
    /// the result, sorted by id, to `primaries_sharing` over the same
    /// list. Every case wraps the generation counter once mid-run. With
    /// `replay_generation` the gather is sabotaged: it runs in the
    /// generation of the gather before it instead of a new one. Returns
    /// how many repeated links and how many repeated members the marks
    /// had to skip.
    fn gather_differential(cases: u64, replay_generation: bool) -> Result<(usize, usize), String> {
        let (mut links_skipped, mut members_skipped) = (0, 0);
        for case in 0..cases {
            let (mut net, mut rng) = random_case(case);
            let link_count = net.graph().link_count();
            for step in 0..10 + rng.range_usize(14) {
                random_op(&mut net, rng.next_u64(), CHURN, &[]);
                if step == 6 {
                    // The gathers so far stamped generations 1, 2, …; the
                    // next one wraps back to 1 and must not see them.
                    *net.marks.generation_mut() = u64::MAX;
                }
                for _ in 0..3 {
                    let mut over: Vec<LinkId> = (0..1 + rng.range_usize(5))
                        .map(|_| LinkId(rng.range_usize(link_count)))
                        .collect();
                    if rng.chance(0.5) {
                        over.push(over[0]);
                    }
                    if replay_generation {
                        let gen = net.marks.generation_mut();
                        *gen = gen.wrapping_sub(1);
                    }
                    let got = gathered(&mut net, &over);
                    let want = net.primaries_sharing(over.iter().copied());
                    if got != want {
                        return Err(format!(
                            "case {case} step {step} over {over:?}: {got:?}, reference {want:?}"
                        ));
                    }
                    let mut distinct = over.clone();
                    sort_dedup(&mut distinct);
                    links_skipped += over.len() - distinct.len();
                    let members = distinct
                        .iter()
                        .map(|l| net.links[l.index()].primary_count());
                    members_skipped += members.sum::<usize>() - want.len();
                }
            }
        }
        Ok((links_skipped, members_skipped))
    }

    /// A tree — 0–1 (link 0), 1–2 (link 1, 700 Kbps), 2–3 (link 2), 1–4
    /// (link 3), the others 2 000 Kbps — where K runs 0–1–4 at its
    /// maximum, and R (0–1–2) and a channel over 1–2–3 were refused at
    /// link 1. Failing link 2 drops that channel and frees 400 Kbps on
    /// link 1, but the fault step's fill walks nothing, so R stays put
    /// and is recorded loose; the repair that follows frees nothing (its
    /// top-ups only reserve) and R stays loose. The next arrival crosses
    /// link 3 alone: K is kept, nobody retreats, and R is met only on K's
    /// link 0. It must grow as under the retreat-everything commit, and
    /// does not with the loose set emptied.
    #[test]
    fn a_row_a_failure_freed_is_granted_through_a_kept_channel_s_link() {
        let mut g = Graph::with_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 4)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let config = NetworkConfig {
            capacity: Bandwidth::kbps(2_000),
            require_backup: false,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(g, config);
        net.links[1] = LinkUsage::new(Bandwidth::kbps(700));
        let establish =
            |net: &mut Network, src, dst| net.establish(NodeId(src), NodeId(dst), qos()).unwrap();
        let k = establish(&mut net, 0, 4);
        let over_2 = establish(&mut net, 1, 3);
        let r = establish(&mut net, 0, 2);
        let level = |net: &Network, id| net.connection(id).map_or(usize::MAX, |c| c.level());
        assert_eq!([k, over_2, r].map(|id| level(&net, id)), [4, 3, 2]);
        assert_eq!(net.fail_link(LinkId(2)).unwrap().dropped, [over_2]);
        net.repair_link(LinkId(2)).unwrap();
        let [k_pair, r_pair] = live_pairs(&net)[..] else {
            panic!("two channels");
        };
        assert_eq!(
            (net.loose.as_slice(), level(&net, r)),
            ([r_pair].as_slice(), 2)
        );
        let (mut reference, mut forgot) = (net.clone(), net.clone());
        forgot.loose.clear();
        establish(&mut net, 1, 4);
        seam::with(Seam::Reference, || establish(&mut reference, 1, 4));
        establish(&mut forgot, 1, 4);
        // The arrival's fill loaded R, met on K's link, and not K.
        let loaded: Vec<Slot> = net.fill.rows.iter().map(|row| row.slot).collect();
        assert!(loaded.contains(&r_pair.0) && !loaded.contains(&k_pair.0));
        assert_eq!(level(&net, k), 4);
        assert!(net == reference && net.loose.is_empty());
        assert_eq!((level(&net, r), level(&forgot, r)), (4, 2));
        assert!(forgot != reference);
    }

    /// Two channels on a 999 Kbps link: the fill leaves the second one
    /// increment short of its maximum, so it must be listed.
    fn one_left_below_its_maximum() -> Network {
        let mut net = Network::new(
            regular::grid(1, 2).unwrap(),
            NetworkConfig {
                capacity: Bandwidth::kbps(999),
                require_backup: false,
                ..NetworkConfig::default()
            },
        );
        for _ in 0..2 {
            net.establish(NodeId(0), NodeId(1), qos()).unwrap();
        }
        net
    }

    #[test]
    fn a_reconcile_that_skips_a_listing_is_caught() {
        let net = one_left_below_its_maximum();
        let [_, c1] = live_pairs(&net)[..] else {
            panic!("two channels");
        };
        let waiting = net.links[0].waiter(Bandwidth::kbps(100), 0);
        assert_eq!(waiting.map(|(_, slot)| slot), Some(c1.0));
        assert_eq!(net.check_invariants(), []);
        let unlisted = seam::with(Seam::SkipAListing, one_left_below_its_maximum);
        let mismatch = InvariantViolation::GrowableSetMismatch { link: LinkId(0) };
        assert_eq!(unlisted.check_invariants(), [mismatch]);
    }

    #[test]
    fn a_list_missing_doubling_or_misplacing_a_row_is_a_growable_set_mismatch() {
        let net = one_left_below_its_maximum();
        let [c0, (slot, c1)] = live_pairs(&net)[..] else {
            panic!("two channels");
        };
        let rank = |id| fill::rank(net.config.policy, net.connection(id).unwrap());
        let mismatch = [InvariantViolation::GrowableSetMismatch { link: LinkId(0) }];
        // The waitlist missing c1, holding c0 at its maximum, holding c1
        // twice, and holding c1 under the wrong slot.
        type Entry = (u128, Slot);
        let edits: [fn(&mut LinkUsage, Entry, Entry); 4] = [
            |usage, _, (r1, _)| usage.unwait(Bandwidth::kbps(100), r1),
            |usage, (r0, s0), _| usage.wait(Bandwidth::kbps(100), r0, s0),
            |usage, _, (r1, s1)| usage.wait(Bandwidth::kbps(100), r1, s1),
            |usage, _, (r1, s1)| {
                usage.unwait(Bandwidth::kbps(100), r1);
                usage.wait(Bandwidth::kbps(100), r1, s1 + 1);
            },
        ];
        for edit in edits {
            let mut broken = net.clone();
            edit(&mut broken.links[0], (rank(c0.1), c0.0), (rank(c1), slot));
            assert_eq!(broken.check_invariants(), mismatch);
        }
        // A demand or a count that is not the remaining bandwidth is one too.
        let mut broken = net.clone();
        broken.links[0].recount(Bandwidth::ZERO, Bandwidth::kbps(1));
        assert_eq!(broken.check_invariants(), mismatch);
        let mut broken = net.clone();
        broken.connections.set_counted(c0.0, Bandwidth::kbps(100));
        assert_eq!(broken.check_invariants(), mismatch);
        // So is a table that records another rank than the bucket holds.
        let mut broken = net.clone();
        let place = broken.connections.waiting(slot).map(|(at, r)| (at, r + 1));
        broken.connections.set_waiting(slot, place);
        assert_eq!(broken.check_invariants(), mismatch);
    }

    #[test]
    fn a_reconcile_that_forgets_a_recount_is_caught() {
        // A third channel: all three retreat and split the link, so c1
        // drops from level 3 to 2, below its maximum both times.
        let three = || {
            let mut net = one_left_below_its_maximum();
            net.establish(NodeId(0), NodeId(1), qos()).unwrap();
            net
        };
        let net = three();
        let levels: Vec<usize> = net.connections().map(|c| c.level()).collect();
        assert_eq!(levels, [2, 2, 2]);
        assert_eq!(net.check_invariants(), []);
        let mismatch = InvariantViolation::GrowableSetMismatch { link: LinkId(0) };
        assert_eq!(
            seam::with(Seam::ForgetARecount, three).check_invariants(),
            [mismatch]
        );
    }

    #[test]
    fn stamp_gather_matches_the_sorted_gather_on_600_cases() {
        let (links_skipped, members_skipped) = gather_differential(600, false).unwrap();
        assert!(
            links_skipped > 10_000 && members_skipped > 10_000,
            "both marks must fire: {links_skipped} links, {members_skipped} members"
        );
        // The same link named twice gathers its primaries once.
        let mut net = two_on_one_link(10_000);
        let both = [ConnectionId(0), ConnectionId(1)];
        assert_eq!(gathered(&mut net, &[LinkId(0), LinkId(0)]), both);
        assert_eq!(net.primaries_sharing([LinkId(0), LinkId(0)]), both);
    }

    #[test]
    fn a_gather_that_does_not_start_a_new_generation_is_caught() {
        let caught = gather_differential(600, true);
        assert!(caught.is_err(), "the differential has no teeth: {caught:?}");
    }

    #[test]
    fn a_corrupted_slot_column_is_a_primary_set_mismatch() {
        let mut net = two_on_one_link(10_000);
        let [_, (slot, c1)] = live_pairs(&net)[..] else {
            panic!("two channels");
        };
        // c1's entry on the link now points at a slot that is not c1's.
        let min = qos().min();
        net.links[0].remove_primary(c1, min, Bandwidth::ZERO);
        net.links[0].add_primary(c1, slot + 1, min);
        let mismatch = InvariantViolation::PrimarySetMismatch { link: LinkId(0) };
        assert_eq!(net.check_invariants(), [mismatch]);
    }

    #[test]
    fn slot_history_is_not_state() {
        // The same connections, released in two orders: the free lists
        // differ, so the newcomers land in each other's slots.
        let mut a = crowded_link(4);
        let mut b = a.clone();
        for (net, order) in [(&mut a, [1, 2]), (&mut b, [2, 1])] {
            for id in order {
                net.release(ConnectionId(id)).unwrap();
            }
            for _ in 0..2 {
                net.establish(NodeId(0), NodeId(1), qos()).unwrap();
            }
            net.validate();
        }
        assert_ne!(live_pairs(&a), live_pairs(&b));
        assert!(a == b);
        assert_eq!(
            crate::snapshot::NetworkSnapshot::capture(&a),
            crate::snapshot::NetworkSnapshot::capture(&b)
        );
        // Nor does it show later: the same op leaves them equal again.
        assert_eq!(a.fail_link(LinkId(0)), b.fail_link(LinkId(0)));
        assert!(a == b);
    }

    #[test]
    fn a_clone_gathers_the_same_sets_as_its_source() {
        let mut net = torus_net(10_000);
        for i in [0, 1, 2, 3, 4, 5, 1, 2] {
            net.establish(NodeId(i), NodeId(15 - i), qos()).unwrap();
            if i == 5 {
                net.release(ConnectionId(1)).unwrap();
                net.release(ConnectionId(4)).unwrap();
            }
        }
        let mut copy = net.clone();
        for l in 0..net.graph().link_count() {
            let over = [LinkId(l), LinkId((l + 1) % net.graph().link_count())];
            let (mut from_net, mut from_copy) = (Vec::new(), Vec::new());
            for (n, out) in [(&mut net, &mut from_net), (&mut copy, &mut from_copy)] {
                Network::gather(&n.links, &mut n.marks, over, out);
            }
            assert_eq!(from_net, from_copy);
        }
    }

    // -------------------------------------------- the multiplexing ledger --

    /// The lollipop of `routing::tests::maximal_fallback_minimizes_overlap`
    /// — leaf 0 — 1, then the cycle 1-2-3-4-1 — with one connection 0→3:
    /// every route from 0 crosses the leaf link, its backup's included.
    fn lollipop_with_a_backup_on_its_own_primary() -> Network {
        let mut g = Graph::with_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)] {
            g.add_link(NodeId(a), NodeId(b)).unwrap();
        }
        let mut net = Network::new(g, NetworkConfig::default());
        let id = net.establish(NodeId(0), NodeId(3), qos()).unwrap();
        let conn = net.connection(id).unwrap();
        let leaf = LinkId(0);
        assert!(conn.primary().crosses(leaf) && conn.backup().unwrap().crosses(leaf));
        net
    }

    #[test]
    fn a_conflict_set_that_keeps_the_backup_s_own_link_is_caught() {
        assert_eq!(
            lollipop_with_a_backup_on_its_own_primary().check_invariants(),
            []
        );
        // Planner, registration and release all go wrong the same way, so
        // the ledger agrees with its own maximum and with every twin a
        // differential could hold it to; only the connection table differs.
        let mutant = seam::with(
            Seam::KeepTheOwnLink,
            lollipop_with_a_backup_on_its_own_primary,
        );
        let on_the_leaf = InvariantViolation::ConflictLedgerMismatch { link: LinkId(0) };
        assert_eq!(mutant.check_invariants(), [on_the_leaf]);
    }

    #[test]
    fn reserve_then_unreserve_leaves_every_touched_link_as_it_was() {
        let mut net = torus_net(1_500);
        for i in 0..6 {
            net.establish(NodeId(i), NodeId(15 - i), qos()).unwrap();
        }
        // A backup that shares its first link with its primary, so the
        // conflict set differs from link to link.
        let path = |nodes: &[usize]| {
            Path::from_nodes(net.graph(), nodes.iter().map(|&n| NodeId(n)).collect()).unwrap()
        };
        let (primary, backup) = (path(&[0, 1, 2, 3]), path(&[0, 1, 5, 6, 7, 3]));
        let (id, min) = (ConnectionId(99), Bandwidth::kbps(150));
        let before = net.links.clone();
        let digests: Vec<u64> = before.iter().map(|u| u.plan_digest()).collect();
        Network::reserve_backup(&mut net.links, id, min, &primary, &backup);
        for l in backup.links() {
            assert!(net.links[l.index()] != before[l.index()], "{l}");
            assert_ne!(
                net.links[l.index()].plan_digest(),
                digests[l.index()],
                "{l}"
            );
        }
        // The shared link is keyed to the primary's other two links only.
        let shared = backup.links()[0];
        let keyed_to = |u: &LinkUsage| u.conflict_ledger().iter().map(|e| e.1).sum::<Bandwidth>();
        let grown = keyed_to(&net.links[shared.index()]) - keyed_to(&before[shared.index()]);
        assert_eq!(grown, min.times(2));
        Network::unreserve_backup(&mut net.links, id, min, &primary, &backup);
        assert!(net.links == before);
        let after: Vec<u64> = net.links.iter().map(|u| u.plan_digest()).collect();
        assert_eq!(after, digests);
        net.validate();
    }
}
