//! The plan stage: route search for one request, nothing reserved.
//!
//! A plan is the primary the bounded flood confirms and, for each backup
//! the configuration asks for, a route disjoint from it whose multiplexed
//! reservation fits on every link (Section 3.1's first two operations).
//! Planning takes `&self`; [`super::Network::admit`] commits what it
//! returns at the sequential point.

use super::seam::{self, Seam};
use super::{conflict_set, Network};
use crate::error::AdmissionError;
use crate::qos::{Bandwidth, ElasticQos};
use crate::routing::{self, RouteScratch};
use drqos_topology::graph::{LinkId, NodeId};
use drqos_topology::paths::Path;
use std::cell::RefCell;

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
        let (primary, backups) =
            self.with_scratch(|scratch| self.plan_routes(scratch, src, dst, qos.min(), None))?;
        Ok(EstablishPlan {
            qos,
            primary,
            backups,
        })
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
