//! The fault stage: link, node and shared-risk-group failures and repairs
//! (Section 3.1's failure recovery): backups are activated, the channels
//! they land beside retreat, and lost backups are re-established.

use super::{sort_dedup, Network};
use crate::channel::{ConnectionId, DrConnection};
use crate::conn_table::ChainPair;
use crate::error::NetworkError;
use crate::link_state::LinkUsage;
use drqos_topology::graph::{LinkId, NodeId};
use drqos_topology::paths::Path;

/// What happened when a link failed.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// The failed link.
    pub link: LinkId,
    /// Connections whose backup was activated (now running on it).
    pub activated: Vec<ConnectionId>,
    /// Connections dropped (no usable backup).
    pub dropped: Vec<ConnectionId>,
    /// Connections that lost their backup channel (primary unaffected).
    pub lost_backup: Vec<ConnectionId>,
    /// Connections forced to retreat because they share links with
    /// activated backups (excludes the activated connections themselves).
    pub retreated: Vec<ConnectionId>,
}

#[cfg(test)]
thread_local! {
    /// While set, a failover re-registers the surviving backups against
    /// the primary that just failed: a mutant the ledger oracle of
    /// [`Network::check_invariants`] must catch.
    pub(super) static REKEY_TO_THE_OLD_PRIMARY: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

impl Network {
    /// Fails a link: activates backups of the primaries crossing it,
    /// retreats channels sharing links with activated backups, and
    /// re-distributes. Connections without a usable backup are dropped.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownLink`] for an out-of-range link.
    /// * [`NetworkError::LinkStateUnchanged`] if the link is already down.
    pub fn fail_link(&mut self, link: LinkId) -> Result<FailureReport, NetworkError> {
        if !self.graph.contains_link(link) {
            return Err(NetworkError::UnknownLink(link));
        }
        if !self.links[link.index()].is_up() {
            return Err(NetworkError::LinkStateUnchanged(link));
        }
        self.links[link.index()].set_up(false);
        self.topology_epoch += 1;
        self.cache.get_mut().evict_link(link);

        let failed = &self.links[link.index()];
        let victims: Vec<ChainPair> = failed.primary_pairs().collect();
        let spared = |c: &ConnectionId| failed.primaries().binary_search(c).is_err();
        let lost_backup: Vec<_> = failed.backups().iter().copied().filter(spared).collect();

        // Connections with a backup crossing the failed link lose that
        // backup (other backups survive).
        for &id in &lost_backup {
            self.remove_crossing_backups(id, link);
        }

        let mut activated: Vec<ChainPair> = Vec::new();
        let mut dropped = Vec::new();
        for (slot, id) in victims {
            let Self {
                connections, links, ..
            } = self;
            // lint:allow(no-panic-daemon): the pair came from this link's victim set
            let conn = connections.at_mut(slot, id).expect("victim exists");
            // The first backup whose links are all up is activated.
            let all_up = |b: &Path| b.links().iter().all(|&l| links[l.index()].is_up());
            let usable_idx = conn.backups().iter().position(all_up);
            Self::retreat_conn(links, &mut self.total_bandwidth, conn);
            // Tear down the old primary's reservations, and every
            // backup's (they were keyed to the old primary).
            let min = conn.qos().min();
            for &l in conn.primary().links() {
                links[l.index()].remove_primary(id, min);
            }
            Self::unregister_backup_links(links, conn);
            if let Some(idx) = usable_idx {
                // Promote the usable backup; survivors with a dead link
                // are lost, the rest re-register against the new primary.
                #[cfg(test)]
                let old_primary = conn.primary().clone();
                conn.activate_backup(idx);
                for &l in conn.primary().links() {
                    links[l.index()].add_primary(id, slot, min);
                }
                for b in conn.clear_backups() {
                    if b.links().iter().all(|&l| links[l.index()].is_up()) {
                        let keyed_to = conn.primary();
                        #[cfg(test)]
                        let keyed_to = if REKEY_TO_THE_OLD_PRIMARY.get() {
                            &old_primary
                        } else {
                            keyed_to
                        };
                        Self::reserve_backup(links, id, min, keyed_to, &b);
                        conn.push_backup(b);
                    }
                }
                activated.push((slot, id));
            } else {
                // No usable backup: the connection is lost.
                self.total_bandwidth -= conn.bandwidth();
                self.dropped_total += 1;
                connections.remove(id);
                dropped.push(id);
            }
        }

        // Channels sharing links with activated backups retreat.
        let (mut retreated, mut candidates) = (Vec::new(), Vec::new());
        let links = self.connections.primary_links(&activated);
        Self::gather(&self.links, &mut self.marks, links, &mut retreated);
        retreated.retain(|&(_, c)| activated.binary_search_by_key(&c, |&(_, a)| a).is_err());
        for &pair in &retreated {
            self.retreat(pair);
        }

        // Re-distribute whatever is still spare, the activated channels
        // being the newcomers.
        self.fill_candidates(&retreated, &activated, &mut candidates);
        self.redistribute(&candidates);

        // Re-establish backups for survivors that lost theirs.
        let activated: Vec<ConnectionId> = activated.into_iter().map(|(_, c)| c).collect();
        if self.config.reestablish_backups {
            for &id in activated.iter().chain(&lost_backup) {
                self.top_up_backups(id);
            }
        }

        // The gather's order is the slots', not the ids'.
        let mut retreated: Vec<ConnectionId> = retreated.into_iter().map(|(_, c)| c).collect();
        retreated.sort_unstable();
        Ok(FailureReport {
            link,
            activated,
            dropped,
            lost_backup,
            retreated,
        })
    }

    /// Fails a node: every adjacent link goes down (a router crash or
    /// power outage — the paper's "persistent faults like power outage").
    /// Equivalent to failing each adjacent up link in id order; returns the
    /// per-link reports.
    ///
    /// Note that connections *terminating* at the failed node are dropped
    /// (their backups also terminate there), which is the physically
    /// correct outcome.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownNode`] if `node` is not a node of the graph.
    /// * [`NetworkError::NodeAlreadyDown`] if every adjacent link is
    ///   already down (failing the node again would change nothing).
    pub fn fail_node(&mut self, node: NodeId) -> Result<Vec<FailureReport>, NetworkError> {
        if !self.graph.contains_node(node) {
            return Err(NetworkError::UnknownNode(node));
        }
        let adjacent = self.graph.neighbors(node).iter().map(|&(_, l)| l);
        let up = self.links_in_state(adjacent, true, NetworkError::NodeAlreadyDown(node))?;
        up.into_iter().map(|l| self.fail_link(l)).collect()
    }

    // ------------------------------------------- shared-risk link groups --

    /// Registers a shared-risk link group (links that fail together: fibres
    /// in one conduit, a transit domain behind one provider) and returns
    /// its group id. Members are stored sorted and deduplicated, so the
    /// same link set always registers identically regardless of input
    /// order.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownLink`] if any member is out of range.
    pub fn register_srlg(&mut self, links: Vec<LinkId>) -> Result<usize, NetworkError> {
        for &l in &links {
            if !self.graph.contains_link(l) {
                return Err(NetworkError::UnknownLink(l));
            }
        }
        let mut members = links;
        members.sort_unstable();
        members.dedup();
        let id = self.srlgs.len();
        self.srlgs.push(members);
        Ok(id)
    }

    /// Number of registered shared-risk groups.
    pub fn srlg_count(&self) -> usize {
        self.srlgs.len()
    }

    /// Member links of a registered group, or `None` for an unknown id.
    pub fn srlg_links(&self, group: usize) -> Option<&[LinkId]> {
        self.srlgs.get(group).map(|m| m.as_slice())
    }

    /// Fails every currently-up member of a shared-risk group atomically
    /// (one correlated event), in link-id order; returns the per-link
    /// reports. Members that are already down — e.g. taken out by an
    /// earlier `fail_node` or an overlapping group — are skipped, so a
    /// connection can never be double-counted in `dropped_total` by
    /// overlapping failure sources.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownSrlg`] for an unregistered group id.
    /// * [`NetworkError::SrlgStateUnchanged`] if every member is already
    ///   down (firing the group again would change nothing).
    pub fn fail_srlg(&mut self, group: usize) -> Result<Vec<FailureReport>, NetworkError> {
        let up = self.srlg_members_in_state(group, true)?;
        up.into_iter().map(|l| self.fail_link(l)).collect()
    }

    /// Repairs every currently-down member of a shared-risk group, in
    /// link-id order; returns the deduplicated ids that regained a backup.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownSrlg`] for an unregistered group id.
    /// * [`NetworkError::SrlgStateUnchanged`] if every member is already
    ///   up.
    pub fn repair_srlg(&mut self, group: usize) -> Result<Vec<ConnectionId>, NetworkError> {
        let mut regained = Vec::new();
        for l in self.srlg_members_in_state(group, false)? {
            regained.extend(self.repair_link(l)?);
        }
        sort_dedup(&mut regained);
        Ok(regained)
    }

    /// The links of `set` that are up (or, with `up` false, down), in the
    /// order given — id order for an adjacency list and for a group — or
    /// `unchanged` when there is none: what a correlated event has left to
    /// do. Each is then failed or repaired one by one, which cannot be
    /// refused.
    fn links_in_state(
        &self,
        set: impl Iterator<Item = LinkId>,
        up: bool,
        unchanged: NetworkError,
    ) -> Result<Vec<LinkId>, NetworkError> {
        let found: Vec<LinkId> = set
            .filter(|&l| self.links[l.index()].is_up() == up)
            .collect();
        if found.is_empty() {
            return Err(unchanged);
        }
        Ok(found)
    }

    /// [`Self::links_in_state`] over the members of `group`.
    fn srlg_members_in_state(&self, group: usize, up: bool) -> Result<Vec<LinkId>, NetworkError> {
        let Some(members) = self.srlgs.get(group) else {
            return Err(NetworkError::UnknownSrlg(group));
        };
        let unchanged = NetworkError::SrlgStateUnchanged(group);
        self.links_in_state(members.iter().copied(), up, unchanged)
    }

    /// Repairs a link and re-attempts backup establishment for connections
    /// missing one. Returns the ids that regained a backup.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownLink`] for an out-of-range link.
    /// * [`NetworkError::LinkStateUnchanged`] if the link is already up.
    pub fn repair_link(&mut self, link: LinkId) -> Result<Vec<ConnectionId>, NetworkError> {
        if !self.graph.contains_link(link) {
            return Err(NetworkError::UnknownLink(link));
        }
        if self.links[link.index()].is_up() {
            return Err(NetworkError::LinkStateUnchanged(link));
        }
        self.links[link.index()].set_up(true);
        self.topology_epoch += 1;
        self.cache.get_mut().evict_link(link);
        let mut regained = Vec::new();
        if self.config.reestablish_backups {
            let target = self.config.backup_count;
            let needy: Vec<ConnectionId> = self
                .connections()
                .filter(|c| c.backup_count() < target)
                .map(|c| c.id())
                .collect();
            for id in needy {
                if self.top_up_backups(id) {
                    regained.push(id);
                }
            }
        }
        Ok(regained)
    }

    /// Attempts to bring `id` up to the configured backup count; returns
    /// whether any backup was added.
    fn top_up_backups(&mut self, id: ConnectionId) -> bool {
        let target = self.config.backup_count;
        let mut added = false;
        loop {
            // Plan under `&self`, then register through the split borrow.
            let wanting = |c: &&DrConnection| c.backup_count() < target;
            let planned = self.connections.get(id).filter(wanting).and_then(|c| {
                let min = c.qos().min();
                self.with_scratch(|s| self.plan_backup(s, c.primary(), min, c.backups(), None))
            });
            let Some(backup) = planned else { break };
            let Self {
                connections, links, ..
            } = self;
            // lint:allow(no-panic-daemon): private helper, callers hold the id
            let conn = connections.get_mut(id).expect("caller checked existence");
            Self::reserve_backup(links, id, conn.qos().min(), conn.primary(), &backup);
            conn.push_backup(backup);
            added = true;
        }
        added
    }

    /// Removes from `id` every backup that crosses `link`, unregistering
    /// their reservations.
    fn remove_crossing_backups(&mut self, id: ConnectionId, link: LinkId) {
        let Self {
            connections, links, ..
        } = self;
        // lint:allow(no-panic-daemon): private helper, callers hold the id
        let conn = connections.get_mut(id).expect("caller checked existence");
        let min = conn.qos().min();
        while let Some(idx) = conn.backups().iter().position(|b| b.crosses(link)) {
            let removed = conn.remove_backup(idx);
            Self::unreserve_backup(links, id, min, conn.primary(), &removed);
        }
    }

    /// Removes the link registrations of *all* of `conn`'s backups, leaving
    /// the backup paths on the connection (used around failover re-keying).
    fn unregister_backup_links(links: &mut [LinkUsage], conn: &DrConnection) {
        let min = conn.qos().min();
        for b in conn.backups() {
            Self::unreserve_backup(links, conn.id(), min, conn.primary(), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::support::{qos, with_mutant};
    use super::super::NetworkConfig;
    use super::*;
    use crate::invariant::InvariantViolation;
    use drqos_topology::regular;

    /// One connection with two spares on a complete graph, failed over
    /// once: the second spare survives and is registered again.
    fn failed_over_with_a_surviving_spare() -> Network {
        let config = NetworkConfig {
            backup_count: 2,
            reestablish_backups: false,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(regular::complete(6).unwrap(), config);
        let id = net.establish(NodeId(0), NodeId(5), qos()).unwrap();
        let l = net.connection(id).unwrap().primary().links()[0];
        assert_eq!(net.fail_link(l).unwrap().activated, [id]);
        assert_eq!(net.connection(id).unwrap().backup_count(), 1);
        net
    }

    #[test]
    fn a_failover_that_rekeys_the_survivors_against_the_old_primary_is_caught() {
        assert_eq!(failed_over_with_a_surviving_spare().check_invariants(), []);
        // The ledger still sums to its own maximum; only against the
        // connection table is it keyed to a primary nobody runs on.
        let mutant = with_mutant(
            &REKEY_TO_THE_OLD_PRIMARY,
            failed_over_with_a_surviving_spare,
        );
        let spare = mutant.connections().next().unwrap().backups()[0].clone();
        let mut miskeyed = spare.links().to_vec();
        miskeyed.sort_unstable();
        let want: Vec<_> = miskeyed
            .into_iter()
            .map(|link| InvariantViolation::ConflictLedgerMismatch { link })
            .collect();
        assert_eq!(mutant.check_invariants(), want);
    }
}
