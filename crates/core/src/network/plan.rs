//! The plan stage: route search for one request, nothing reserved.
//!
//! A plan is the primary the bounded flood confirms and, for each backup
//! the configuration asks for, a route disjoint from it whose multiplexed
//! reservation fits on every link (Section 3.1's first two operations).
//! Planning takes `&self`; [`super::Network::admit`] commits what it
//! returns at the sequential point.
//!
//! A plan reads per link only liveness, the primary minima, the backup
//! reservation and the conflict ledger — never the extras the fill lends
//! out. [`PlanVersion`] names that state, and an exact undo gives a
//! version back, so [`PlanMemo`] can answer a request planned at a version
//! an undo restored (DESIGN.md §4, "The plan memo").

use super::{conflict_set, Network};
use crate::channel::ConnectionId;
use crate::error::AdmissionError;
use crate::measure::RouteCacheStats;
use crate::qos::{Bandwidth, ElasticQos};
use crate::routing::{self, RouteScratch};
use drqos_sim::seam::{self, Seam};
use drqos_topology::graph::{LinkId, NodeId};
use drqos_topology::paths::Path;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// What planning returns before the QoS is attached: the primary and its
/// backups, or the rejection.
type Routes = Result<(Path, Vec<Path>), AdmissionError>;

/// The most requests [`PlanMemo`] holds at one version; a request past it
/// is planned afresh every time.
const MEMO_ENTRIES: usize = 1_024;

/// The version of the state planning reads. Each change to that state
/// takes a number never used before, except the exact undo: the release of
/// the connection the last commit admitted, with nothing between them,
/// gives back the number the commit found. Not state: outside equality and
/// snapshots, and a clone starts afresh.
#[derive(Debug)]
pub(super) struct PlanVersion {
    now: u64,
    /// The highest number taken so far.
    taken: u64,
    /// The last commit's connection, and the versions it found and left.
    last_commit: Option<(ConnectionId, u64, u64)>,
    /// The version the last undo gave back (`u64::MAX` before the first):
    /// the only one the memo is filled at.
    restored: u64,
}

impl Default for PlanVersion {
    fn default() -> Self {
        Self {
            now: 0,
            taken: 0,
            last_commit: None,
            restored: u64::MAX,
        }
    }
}

impl PlanVersion {
    /// A change to what planning reads: a number never used before.
    pub(super) fn mint(&mut self) {
        self.taken += 1;
        self.now = self.taken;
    }

    /// `id` was committed: a new number, remembered with the one it left.
    pub(super) fn commit(&mut self, id: ConnectionId) {
        let before = self.now;
        self.mint();
        self.last_commit = Some((id, before, self.now));
    }

    /// `id` was released: the undo of the last commit if `id` is its
    /// connection and nothing moved the version since, a new number
    /// otherwise.
    pub(super) fn release(&mut self, id: ConnectionId) {
        match self.last_commit.take() {
            Some((last, before, after)) if last == id && self.now == after => {
                self.now = before;
                self.restored = before;
            }
            _ => self.mint(),
        }
    }
}

/// Plans made at one version that an undo gave back, by request
/// `(src, dst, min)`. Filled only at such a version, so a workload that
/// never undoes pays one comparison and allocates nothing.
#[derive(Debug, Default)]
pub(super) struct PlanMemo {
    version: u64,
    entries: BTreeMap<(NodeId, NodeId, Bandwidth), Routes>,
    stats: RouteCacheStats,
}

impl PlanMemo {
    pub(super) fn stats(&self) -> RouteCacheStats {
        self.stats
    }
}

/// A routed-but-not-committed DR-connection (the confirmation message of
/// the flooding protocol, as it were).
#[derive(Debug, Clone, PartialEq)]
pub struct EstablishPlan {
    pub(super) qos: ElasticQos,
    pub(super) primary: Path,
    pub(super) backups: Vec<Path>,
}

impl EstablishPlan {
    /// The QoS the plan was routed for.
    pub fn qos(&self) -> &ElasticQos {
        &self.qos
    }

    /// The primary route.
    pub fn primary(&self) -> &Path {
        &self.primary
    }

    /// The first backup route, if one was found.
    pub fn backup(&self) -> Option<&Path> {
        self.backups.first()
    }

    /// All backup routes found (up to the configured backup count).
    pub fn backups(&self) -> &[Path] {
        &self.backups
    }
}

/// What [`Network::plan_establish_traced`] returns: a plan or rejection,
/// with the footprint it rests on (every link the search probed, with its
/// plan digest at planning time).
pub type PrePlanned = (Result<EstablishPlan, AdmissionError>, Vec<(LinkId, u64)>);

impl Network {
    /// Routes (but does not commit) a new DR-connection.
    ///
    /// # Errors
    ///
    /// * [`AdmissionError::UnknownNode`] / [`AdmissionError::SameEndpoints`]
    ///   for invalid endpoints.
    /// * [`AdmissionError::NoPrimaryRoute`] if no route can carry the
    ///   minimum QoS.
    /// * [`AdmissionError::NoBackupRoute`] if backups are required and no
    ///   feasible link-disjoint backup exists.
    pub fn plan_establish(
        &self,
        src: NodeId,
        dst: NodeId,
        qos: ElasticQos,
    ) -> Result<EstablishPlan, AdmissionError> {
        self.check_endpoints(src, dst)?;
        let min = qos.min();
        let version = &self.plan_version;
        let (primary, backups) = if version.restored == version.now && !seam::armed(Seam::Reference)
        {
            self.plan_memoized(src, dst, min)
        } else {
            self.with_scratch(|scratch| self.plan_routes(scratch, src, dst, min, None))
        }?;
        Ok(EstablishPlan {
            qos,
            primary,
            backups,
        })
    }

    /// [`Self::plan_establish`]'s routes at a version an undo gave back:
    /// the memo's, or a fresh search that the memo keeps. Out of line, so
    /// that a plan at any other version pays only the comparison.
    #[inline(never)]
    fn plan_memoized(&self, src: NodeId, dst: NodeId, min: Bandwidth) -> Routes {
        let key = (src, dst, min);
        {
            let mut memo = self.memo.borrow_mut();
            let memo = &mut *memo;
            if memo.version != self.plan_version.now {
                memo.stats.stale_evictions += memo.entries.len() as u64;
                memo.entries.clear();
                memo.version = self.plan_version.now;
            }
            if let Some(routes) = memo.entries.get(&key) {
                memo.stats.hits += 1;
                return routes.clone();
            }
            memo.stats.misses += 1;
        }
        let routes = self.with_scratch(|scratch| self.plan_routes(scratch, src, dst, min, None));
        let mut memo = self.memo.borrow_mut();
        if memo.entries.len() < MEMO_ENTRIES {
            memo.entries.insert(key, routes.clone());
        }
        routes
    }

    /// Routes (but does not commit) a new DR-connection against a frozen
    /// network, recording the full admission **footprint**: every link the
    /// search probed, with its plan digest (`LinkUsage::plan_digest`) at
    /// planning time.
    ///
    /// No admission plans this way; it stays only because `benchmark/`
    /// prices the cluster's retired member-side plan with it (ROADMAP
    /// 4(c)), and the footprint property test holds the search to it.
    /// It records the footprint even when the plan **fails** — a
    /// rejection is only as valid as the link state it observed (more
    /// admitted traffic can change *which* error a request gets).
    ///
    /// The caller supplies the [`RouteScratch`]; any scratch will do,
    /// whatever it was last used for.
    pub fn plan_establish_traced(
        &self,
        scratch: &mut RouteScratch,
        src: NodeId,
        dst: NodeId,
        qos: ElasticQos,
    ) -> PrePlanned {
        if let Err(e) = self.check_endpoints(src, dst) {
            return (Err(e), Vec::new());
        }
        let footprint: RefCell<Vec<LinkId>> = RefCell::new(Vec::new());
        let result = self.plan_routes(scratch, src, dst, qos.min(), Some(&footprint));
        let digests = self.footprint_digests(footprint.into_inner());
        (
            result.map(|(primary, backups)| EstablishPlan {
                qos,
                primary,
                backups,
            }),
            digests,
        )
    }

    /// Endpoint validation shared by every planning entry point.
    fn check_endpoints(&self, src: NodeId, dst: NodeId) -> Result<(), AdmissionError> {
        if !self.graph.contains_node(src) {
            return Err(AdmissionError::UnknownNode(src));
        }
        if !self.graph.contains_node(dst) {
            return Err(AdmissionError::UnknownNode(dst));
        }
        if src == dst {
            return Err(AdmissionError::SameEndpoints(src));
        }
        Ok(())
    }

    /// Sorts, dedups, and digests a raw probe log. A plain Vec with
    /// deferred dedup: the search probes links far more often than there
    /// are distinct links, and a push is much cheaper than an ordered-set
    /// insert on this hot path.
    fn footprint_digests(&self, mut probed: Vec<LinkId>) -> Vec<(LinkId, u64)> {
        probed.sort_unstable();
        probed.dedup();
        if seam::armed(Seam::ForgetAProbedLink) && !probed.is_empty() {
            probed.remove(probed.len() / 2);
        }
        probed
            .into_iter()
            .map(|l| (l, self.links[l.index()].plan_digest()))
            .collect()
    }

    /// The route search shared by [`Network::plan_establish`] and
    /// [`Network::plan_establish_traced`]: primary plus backups, probing
    /// links through `fp` when the caller records a footprint.
    fn plan_routes(
        &self,
        scratch: &mut RouteScratch,
        src: NodeId,
        dst: NodeId,
        min: Bandwidth,
        fp: Option<&RefCell<Vec<LinkId>>>,
    ) -> Result<(Path, Vec<Path>), AdmissionError> {
        let touch = |l: LinkId| {
            if let Some(f) = fp {
                f.borrow_mut().push(l);
            }
        };
        let primary_filter = |l: LinkId| {
            touch(l);
            self.links[l.index()].can_admit_primary(min)
        };
        let primary_allowance = |l: LinkId| {
            touch(l);
            let u = &self.links[l.index()];
            u.capacity().saturating_sub(u.hard_committed())
        };
        let primary = routing::route_primary_with(
            scratch,
            self.config.router,
            &self.graph,
            src,
            dst,
            &primary_filter,
            &primary_allowance,
        )
        .ok_or(AdmissionError::NoPrimaryRoute)?;
        let want = if self.config.require_backup {
            self.config.backup_count.max(1)
        } else {
            self.config.backup_count
        };
        let mut backups: Vec<Path> = Vec::with_capacity(want);
        while backups.len() < want {
            let Some(b) = self.plan_backup(scratch, &primary, min, &backups, fp) else {
                break;
            };
            backups.push(b);
        }
        if backups.is_empty() && self.config.require_backup {
            return Err(AdmissionError::NoBackupRoute);
        }
        Ok((primary, backups))
    }

    /// Routes one more backup for the given primary path, link-disjoint
    /// from the already-chosen `existing` backups, or `None`. Probed links
    /// are recorded into `fp` when the caller records a footprint.
    pub(super) fn plan_backup(
        &self,
        scratch: &mut RouteScratch,
        primary: &Path,
        min: Bandwidth,
        existing: &[Path],
        fp: Option<&RefCell<Vec<LinkId>>>,
    ) -> Option<Path> {
        let touch = |l: LinkId| {
            if let Some(f) = fp {
                f.borrow_mut().push(l);
            }
        };
        let conflicts = |l: LinkId| conflict_set(primary.links(), l);
        let backup_filter = |l: LinkId| {
            touch(l);
            !existing.iter().any(|b| b.crosses(l))
                && self.links[l.index()].can_admit_backup(min, &conflicts(l))
        };
        let backup_allowance = |l: LinkId| {
            touch(l);
            let u = &self.links[l.index()];
            let reservation = u.reservation_if_backup_added(min, &conflicts(l));
            u.capacity()
                .saturating_sub(u.primary_min_sum() + reservation)
        };
        routing::route_backup_with(
            scratch,
            self.config.router,
            &self.graph,
            primary,
            self.config.disjointness,
            &backup_filter,
            &backup_allowance,
        )
    }
}
