//! The fault stage: link, node and shared-risk-group failures and repairs
//! (Section 3.1's failure recovery). Whatever fails — one link, a node's
//! links, a group's members — is one event and one step: the whole set
//! goes down, the victims' backups are activated, the channels they land
//! beside retreat, the spare is re-distributed and lost backups are
//! re-established, in that order.

use super::{sort_dedup, Network};
use crate::channel::{ConnectionId, DrConnection};
use crate::conn_table::ChainPair;
use crate::error::NetworkError;
use crate::link_state::LinkUsage;
use crate::qos::Bandwidth;
use drqos_sim::seam::{self, Seam};
use drqos_topology::graph::{LinkId, NodeId};
use drqos_topology::paths::Path;

/// What happened when one event — a link, a node or a shared-risk group
/// failing — took its links down.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// The links the event took down.
    pub links: Vec<LinkId>,
    /// Connections whose backup was activated (now running on it).
    pub activated: Vec<ConnectionId>,
    /// Connections dropped (no usable backup).
    pub dropped: Vec<ConnectionId>,
    /// Connections that lost a backup channel (primary unaffected).
    pub lost_backup: Vec<ConnectionId>,
    /// Connections whose primary shares a link with an activated backup
    /// (excludes the activated connections themselves): each retreated.
    pub retreated: Vec<ConnectionId>,
}

/// Whether a victim needing `min` can move onto `backup` now: every link
/// up, with room for `min` beside the primary minima already on it.
/// Multiplexing reserves for one failure at a time, so once a second
/// fault is outstanding the reservation may already be spent.
fn can_activate(links: &[LinkUsage], backup: &Path, min: Bandwidth) -> bool {
    let room = |u: &LinkUsage| {
        seam::armed(Seam::SkipTheActivationCheck) || u.primary_min_sum() + min <= u.capacity()
    };
    backup.links().iter().all(|&l| {
        let u = &links[l.index()];
        u.is_up() && room(u)
    })
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
        let unchanged = NetworkError::LinkStateUnchanged(link);
        let up = self.links_in_state(std::iter::once(link), true, unchanged)?;
        Ok(self.fail_links(&up))
    }

    /// Fails a node: every adjacent up link goes down in one event (a
    /// router crash or power outage — the paper's "persistent faults like
    /// power outage").
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
    pub fn fail_node(&mut self, node: NodeId) -> Result<FailureReport, NetworkError> {
        if !self.graph.contains_node(node) {
            return Err(NetworkError::UnknownNode(node));
        }
        let adjacent = self.graph.neighbors(node).iter().map(|&(_, l)| l);
        let up = self.links_in_state(adjacent, true, NetworkError::NodeAlreadyDown(node))?;
        Ok(self.fail_links(&up))
    }

    /// The one failure step, for `set` — distinct links, all up — failing
    /// as one event. The whole set goes down first (one epoch tick per
    /// link). Every primary crossing it is a victim; in id order, each
    /// moves onto its first backup that [`can_activate`] it, or is
    /// dropped. Everyone else with a backup across the set loses that
    /// backup. Then one retreat over what was activated, one fill, and the
    /// top-ups last, with the set still down.
    fn fail_links(&mut self, set: &[LinkId]) -> FailureReport {
        if !seam::armed(Seam::KeepTheMemoAcrossAFault) {
            self.plan_version.mint();
        }
        for &l in set {
            self.links[l.index()].set_up(false);
            self.topology_epoch += 1;
        }
        let failed = || set.iter().map(|l| &self.links[l.index()]);
        let mut victims: Vec<ChainPair> = failed().flat_map(|u| u.primary_pairs()).collect();
        victims.sort_unstable_by_key(|&(_, id)| id);
        victims.dedup();
        let mut lost_backup: Vec<_> = failed().flat_map(|u| u.backups()).copied().collect();
        sort_dedup(&mut lost_backup);
        lost_backup.retain(|&c| victims.binary_search_by_key(&c, |&(_, v)| v).is_err());

        // Connections with a backup crossing the set lose that backup
        // (other backups survive).
        for &id in &lost_backup {
            self.remove_dead_backups(id);
        }

        let mut activated: Vec<ChainPair> = Vec::new();
        let mut dropped = Vec::new();
        for (slot, id) in victims {
            #[cfg(test)]
            {
                self.fill.unwaited[2] += usize::from(self.connections.blocked(slot).is_some());
            }
            self.unwait((slot, id));
            let Self {
                connections, links, ..
            } = self;
            // Off the old primary's counts below; any new one starts
            // uncounted.
            let counted = connections.unlist(slot);
            // lint:allow(panic-reachability): the pair came from the set's victims
            let conn = connections.at_mut(slot, id).expect("victim exists");
            Self::retreat_conn(links, &mut self.total_bandwidth, conn);
            // Tear down the old primary's reservations, and every
            // backup's (they were keyed to the old primary).
            let min = conn.qos().min();
            for &l in conn.primary().links() {
                links[l.index()].remove_primary(id, min, counted);
            }
            Self::unregister_backup_links(links, conn);
            let usable = conn
                .backups()
                .iter()
                .position(|b| can_activate(links, b, min));
            if let Some(idx) = usable {
                // Promote the usable backup; survivors with a dead link
                // are lost, the rest re-register against the new primary.
                let old_primary =
                    seam::armed(Seam::RekeyToTheOldPrimary).then(|| conn.primary().clone());
                conn.activate_backup(idx);
                for &l in conn.primary().links() {
                    links[l.index()].add_primary(id, slot, min);
                }
                for b in conn.clear_backups() {
                    if b.links().iter().all(|&l| links[l.index()].is_up()) {
                        let keyed_to = old_primary.as_ref().unwrap_or(conn.primary());
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

        // The victims and the lost backups freed room that the fill does
        // not walk (ROADMAP item 20): whoever waits there is loose now.
        self.record_loose();

        // Channels sharing links with activated backups retreat.
        let mut chained = std::mem::take(&mut self.retreat_set);
        chained.clear();
        let links = self.connections.primary_links(&activated);
        Self::gather(&self.links, &mut self.marks, links, &mut chained);
        chained.retain(|&(_, c)| activated.binary_search_by_key(&c, |&(_, a)| a).is_err());
        for &pair in &chained {
            self.retreat(pair);
        }

        // Re-distribute whatever is still spare.
        let (mut candidates, mut handles) = self.spare_buffers();
        self.fill_candidates(&chained, &[], &activated, &mut candidates, &mut handles);
        self.settle(candidates, handles);

        // Re-establish backups for survivors that lost theirs.
        let activated: Vec<ConnectionId> = activated.into_iter().map(|(_, c)| c).collect();
        for &id in activated.iter().chain(&lost_backup) {
            self.top_up_backups(id);
        }

        // Every chained channel in id order: the gather's order is the
        // slots'.
        let mut retreated: Vec<ConnectionId> = chained.iter().map(|&(_, c)| c).collect();
        retreated.sort_unstable();
        self.retreat_set = chained;
        FailureReport {
            links: set.to_vec(),
            activated,
            dropped,
            lost_backup,
            retreated,
        }
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

    /// Fails every currently-up member of a shared-risk group in one event.
    /// Members that are already down — e.g. taken out by an earlier
    /// `fail_node` or an overlapping group — are skipped, so a connection
    /// can never be double-counted in `dropped_total` by overlapping
    /// failure sources.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownSrlg`] for an unregistered group id.
    /// * [`NetworkError::SrlgStateUnchanged`] if every member is already
    ///   down (firing the group again would change nothing).
    pub fn fail_srlg(&mut self, group: usize) -> Result<FailureReport, NetworkError> {
        let up = self.srlg_members_in_state(group, true)?;
        Ok(self.fail_links(&up))
    }

    /// Repairs every currently-down member of a shared-risk group in one
    /// event; returns the ids that regained a backup, in id order.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownSrlg`] for an unregistered group id.
    /// * [`NetworkError::SrlgStateUnchanged`] if every member is already
    ///   up.
    pub fn repair_srlg(&mut self, group: usize) -> Result<Vec<ConnectionId>, NetworkError> {
        let down = self.srlg_members_in_state(group, false)?;
        Ok(self.repair_links(&down))
    }

    /// The links of `set` that are up (or, with `up` false, down), in the
    /// order given — id order for an adjacency list and for a group — or
    /// `unchanged` when there is none: what an event has left to do. They
    /// are then failed or repaired in one step, which cannot be refused.
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
        let unchanged = NetworkError::LinkStateUnchanged(link);
        let down = self.links_in_state(std::iter::once(link), false, unchanged)?;
        Ok(self.repair_links(&down))
    }

    /// The one repair step, for `set` — distinct links, all down — coming
    /// back up as one event (one epoch tick per link), then one pass over
    /// the connections short of the configured backup count. Returns the
    /// ids that regained a backup, in id order.
    fn repair_links(&mut self, set: &[LinkId]) -> Vec<ConnectionId> {
        self.plan_version.mint();
        for &l in set {
            self.links[l.index()].set_up(true);
            self.topology_epoch += 1;
        }
        let regained = self
            .short_of_backups()
            .into_iter()
            .filter(|&id| self.top_up_backups(id))
            .collect();
        self.record_loose();
        regained
    }

    /// The live connections below the configured backup count, in id
    /// order: one pass over the connection table.
    fn short_of_backups(&self) -> Vec<ConnectionId> {
        let target = self.config.backup_count;
        let short = self.connections().filter(|c| c.backup_count() < target);
        short.map(|c| c.id()).collect()
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
            // lint:allow(panic-reachability): private helper, callers hold the id
            let conn = connections.get_mut(id).expect("caller checked existence");
            Self::reserve_backup(links, id, conn.qos().min(), conn.primary(), &backup);
            conn.push_backup(backup);
            added = true;
        }
        added
    }

    /// Removes from `id` every backup that crosses a down link,
    /// unregistering their reservations.
    fn remove_dead_backups(&mut self, id: ConnectionId) {
        let Self {
            connections, links, ..
        } = self;
        // lint:allow(panic-reachability): private helper, callers hold the id
        let conn = connections.get_mut(id).expect("caller checked existence");
        let min = conn.qos().min();
        while let Some(idx) = conn
            .backups()
            .iter()
            .position(|b| b.links().iter().any(|&l| !links[l.index()].is_up()))
        {
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
    use super::super::support::{qos, random_case, random_request};
    use super::super::NetworkConfig;
    use super::*;
    use crate::invariant::InvariantViolation;
    use crate::qos::ElasticQos;
    use drqos_sim::rng::Rng;
    use drqos_sim::shrink::shrink_by;
    use drqos_topology::regular;
    use drqos_topology::waxman::WaxmanConfig;

    /// One connection with two spares on a complete graph, failed over
    /// once: the second spare survives, is registered again and stays
    /// first, and a new spare is topped up behind it. Returns the network
    /// and the survivor.
    fn failed_over_with_a_surviving_spare() -> (Network, Path) {
        let config = NetworkConfig {
            backup_count: 2,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(regular::complete(6).unwrap(), config);
        let id = net.establish(NodeId(0), NodeId(5), qos()).unwrap();
        let conn = net.connection(id).unwrap();
        let (l, survivor) = (conn.primary().links()[0], conn.backups()[1].clone());
        assert_eq!(net.fail_link(l).unwrap().activated, [id]);
        let conn = net.connection(id).unwrap();
        assert_eq!(conn.backup_count(), 2);
        assert_eq!(conn.backups()[0], survivor);
        (net, survivor)
    }

    #[test]
    fn a_failover_that_rekeys_the_survivors_against_the_old_primary_is_caught() {
        assert_eq!(
            failed_over_with_a_surviving_spare().0.check_invariants(),
            []
        );
        // The ledger still sums to its own maximum; only against the
        // connection table is it keyed to a primary nobody runs on, and
        // only on the survivor's links: the top-up is keyed right.
        let (mutant, survivor) = seam::with(
            Seam::RekeyToTheOldPrimary,
            failed_over_with_a_surviving_spare,
        );
        let mut miskeyed = survivor.links().to_vec();
        miskeyed.sort_unstable();
        let want: Vec<_> = miskeyed
            .into_iter()
            .map(|link| InvariantViolation::ConflictLedgerMismatch { link })
            .collect();
        assert_eq!(mutant.check_invariants(), want);
    }

    /// What one event must leave behind: nobody both activated and
    /// dropped or activated twice, no surviving channel across the failed
    /// set, and clean books.
    fn one_step_holds(net: &Network, report: &FailureReport) -> Result<(), String> {
        let mut activated = report.activated.clone();
        sort_dedup(&mut activated);
        if activated.len() != report.activated.len() {
            return Err(format!("activated twice: {:?}", report.activated));
        }
        if let Some(id) = report.dropped.iter().find(|c| activated.contains(c)) {
            return Err(format!("{id} both activated and dropped"));
        }
        let crosses = |p: &Path| p.links().iter().any(|l| report.links.contains(l));
        let across = |c: &&DrConnection| crosses(c.primary()) || c.backups().iter().any(crosses);
        if let Some(c) = net.connections().find(across) {
            return Err(format!("{} still crosses the failed set", c.id()));
        }
        let violations = net.check_invariants();
        if !violations.is_empty() {
            return Err(format!("{violations:?}"));
        }
        Ok(())
    }

    /// On `cases` seeded ring, torus and Waxman networks ([`random_case`])
    /// with three shared-risk groups registered, loaded and carrying one
    /// outstanding link fault, every node and every group is failed on a
    /// clone, and each event is held to [`one_step_holds`]. Returns how
    /// many events were checked.
    fn correlated_events(cases: u64) -> Result<usize, String> {
        let mut events = 0;
        for case in 0..cases {
            let (mut net, mut rng) = random_case(case);
            let (nodes, links) = (net.graph().node_count(), net.graph().link_count());
            for _ in 0..3 {
                let size = 2 + rng.range_usize(2);
                let members = (0..size).map(|_| LinkId(rng.range_usize(links))).collect();
                net.register_srlg(members).unwrap();
            }
            for _ in 0..2 * nodes {
                let r = random_request(&mut rng, nodes);
                let _ = net.establish(r.src, r.dst, r.qos);
            }
            let _ = net.fail_link(LinkId(rng.range_usize(links)));
            for event in 0..nodes + net.srlg_count() {
                let mut after = net.clone();
                let report = match event.checked_sub(nodes) {
                    None => after.fail_node(NodeId(event)),
                    Some(group) => after.fail_srlg(group),
                };
                let Ok(report) = report else { continue };
                one_step_holds(&after, &report)
                    .map_err(|e| format!("case {case}, {:?}: {e}", report.links))?;
                events += 1;
            }
        }
        Ok(events)
    }

    /// A case of the fuzzer's starved, fail-heavy tier (`drqos-testkit`'s
    /// `fuzz`), rebuilt here because the activation seam is compiled into
    /// this crate's tests only: a Waxman graph of 8–24 nodes at 300 or 400
    /// Kbps with one or two backups per connection, the 100–500 Kbps QoS
    /// template, and 60 ops that fail links and nodes more than four times
    /// as often as they repair them. Each op is a seed drawn against the
    /// network as it stands, so any subsequence of a case is a case.
    fn starved_case(case: u64) -> (Network, ElasticQos, Vec<u64>) {
        let mut rng = Rng::seed_from_u64(0x057A_27ED ^ case);
        let nodes = 8 + rng.range_usize(17);
        let graph = WaxmanConfig::new(nodes, 0.8, 0.4).unwrap();
        let config = NetworkConfig {
            capacity: Bandwidth::kbps([300, 400][rng.range_usize(2)]),
            backup_count: 1 + rng.range_usize(2),
            ..NetworkConfig::default()
        };
        let net = Network::new(graph.generate(&mut rng).unwrap(), config);
        let qos = ElasticQos::paper_video([50, 100, 200][rng.range_usize(3)]);
        (net, qos, (0..60).map(|_| rng.next_u64()).collect())
    }

    /// Applies the op `seed` draws: 35% establish, 10% release, 35% fail
    /// a link, 10% fail a node, 10% repair a link.
    fn starved_op(net: &mut Network, qos: ElasticQos, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let nodes = net.graph().node_count();
        let links = net.graph().link_count();
        let live: Vec<ConnectionId> = net.connections().map(|c| c.id()).collect();
        let up: Vec<LinkId> = net.up_links().collect();
        let down: Vec<LinkId> = (0..links)
            .map(LinkId)
            .filter(|&l| !net.link_usage(l).is_up())
            .collect();
        let roll = rng.range_usize(100);
        let mut pick = |n: usize| rng.range_usize(n.max(1));
        match roll {
            0..=34 => {
                let (src, dst) = (NodeId(pick(nodes)), NodeId(pick(nodes)));
                let _ = net.establish(src, dst, qos);
            }
            35..=44 if !live.is_empty() => drop(net.release(live[pick(live.len())])),
            45..=79 if !up.is_empty() => drop(net.fail_link(up[pick(up.len())])),
            80..=89 => drop(net.fail_node(NodeId(pick(nodes)))),
            90.. if !down.is_empty() => drop(net.repair_link(down[pick(down.len())])),
            _ => {}
        }
    }

    /// The first op of `ops` after which case `case`'s network breaks an
    /// invariant, with what it broke.
    fn broken_at(case: u64, ops: &[u64]) -> Option<(usize, Vec<InvariantViolation>)> {
        let (mut net, qos, _) = starved_case(case);
        ops.iter().enumerate().find_map(|(step, &op)| {
            starved_op(&mut net, qos, op);
            let violations = net.check_invariants();
            (!violations.is_empty()).then_some((step, violations))
        })
    }

    #[test]
    fn the_starved_tier_finds_and_shrinks_an_overbooking_without_the_activation_check() {
        const CASES: u64 = 200;
        for case in 0..CASES {
            let (_, _, ops) = starved_case(case);
            assert_eq!(broken_at(case, &ops), None, "case {case}");
        }
        let witness = seam::with(Seam::SkipTheActivationCheck, || {
            let cases = (0..CASES).map(|case| (case, starved_case(case).2));
            let mut broken = cases.filter(|(case, ops)| broken_at(*case, ops).is_some());
            let (case, ops) = broken.next()?;
            let shrunk = shrink_by(&ops, |ops| broken_at(case, ops).map(|(step, _)| step));
            Some((case, broken_at(case, &shrunk), shrunk))
        });
        let (case, broken, shrunk) = witness.expect("the tier reaches the activation check");
        let (step, violations) = broken.expect("the shrunk case still breaks");
        assert_eq!(step + 1, shrunk.len(), "case {case}");
        let overbooked =
            |v: &InvariantViolation| matches!(v, InvariantViolation::CapacityExceeded { .. });
        assert!(
            violations.iter().all(overbooked),
            "case {case}: {violations:?}"
        );
        assert!(
            shrunk.len() <= 30,
            "case {case}: {} of 60 ops",
            shrunk.len()
        );
        // With the check, the witness is clean.
        assert_eq!(broken_at(case, &shrunk), None, "case {case}");
    }

    #[test]
    fn a_correlated_failure_is_one_step_on_120_seeded_cases() {
        let events = correlated_events(120).unwrap();
        assert!(events > 1_500, "{events} events");
    }

    #[test]
    #[ignore = "ten times the cases; CI runs it in release"]
    fn a_correlated_failure_is_one_step_on_1200_seeded_cases() {
        let events = correlated_events(1_200).unwrap();
        assert!(events > 15_000, "{events} events");
    }
}
