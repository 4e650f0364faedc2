//! A simplified reference model of per-link bandwidth accounting.
//!
//! The model mirrors the *observable contract* of
//! [`drqos_core::network::Network`] — which connections are alive, which
//! links are up, how much guaranteed minimum bandwidth each link carries,
//! how many drops have accumulated, and how often the topology changed —
//! while recomputing all of it independently from first principles. Route
//! *choices* are learned from the network (the reference does not
//! re-implement routing), but every derived quantity is re-derived here,
//! so any bookkeeping drift in the incremental accounting shows up as a
//! divergence between the two.

use drqos_cluster::{ApplyOutcome, MemberOp};
use drqos_core::channel::{ConnectionId, DrConnection};
use drqos_core::network::{FailureReport, Network};
use drqos_core::qos::Bandwidth;
use drqos_topology::LinkId;
use std::collections::BTreeMap;

/// What the reference remembers about one live connection.
#[derive(Debug, Clone, PartialEq)]
struct RefConnection {
    min: Bandwidth,
    max: Bandwidth,
    increment: Bandwidth,
    primary: Vec<LinkId>,
}

impl RefConnection {
    /// What the reference learns from the network about a connection: its
    /// QoS range and the primary route it was committed on.
    fn of(c: &DrConnection) -> Self {
        RefConnection {
            min: c.qos().min(),
            max: c.qos().max(),
            increment: c.qos().increment(),
            primary: c.primary().links().to_vec(),
        }
    }
}

/// Independent mirror of the network's observable state.
#[derive(Debug, Clone)]
pub struct ReferenceModel {
    capacity: Vec<Bandwidth>,
    link_up: Vec<bool>,
    conns: BTreeMap<ConnectionId, RefConnection>,
    dropped: u64,
    epoch: u64,
}

impl ReferenceModel {
    /// Mirrors a freshly constructed (empty, all-links-up) network.
    pub fn new(net: &Network) -> Self {
        let links: Vec<LinkId> = net.graph().links().map(|l| l.id()).collect();
        Self {
            capacity: links
                .iter()
                .map(|&l| net.link_usage(l).capacity())
                .collect(),
            link_up: links.iter().map(|&l| net.link_usage(l).is_up()).collect(),
            conns: net
                .connections()
                .map(|c| (c.id(), RefConnection::of(c)))
                .collect(),
            dropped: net.dropped_total(),
            epoch: net.topology_epoch(),
        }
    }

    /// Live connection ids, in id order.
    pub(crate) fn live_ids(&self) -> Vec<ConnectionId> {
        self.conns.keys().copied().collect()
    }

    /// Links currently believed up, in id order.
    pub fn up_links(&self) -> Vec<LinkId> {
        self.link_up
            .iter()
            .enumerate()
            .filter(|&(_, &up)| up)
            .map(|(i, _)| LinkId(i))
            .collect()
    }

    /// Mirrors one applied operation from what the shared transition
    /// ([`MemberOp::apply`]) answered.
    ///
    /// # Errors
    ///
    /// `op`'s operand was picked from a legal candidate list, so any
    /// outcome but its own `Ok` (or an admission rejection) is a fault of
    /// the network's, described in the message.
    pub(crate) fn observe(
        &mut self,
        net: &Network,
        op: MemberOp,
        outcome: &ApplyOutcome,
    ) -> Result<(), String> {
        match (op, outcome) {
            // The committed primary route is learned from the network.
            (_, ApplyOutcome::Establish(Ok(id))) => {
                let c = net.connection(*id).expect("establish returned this id");
                let prev = self.conns.insert(*id, RefConnection::of(c));
                assert!(prev.is_none(), "{id} established twice");
            }
            (_, ApplyOutcome::Establish(Err(_))) => {}
            (MemberOp::Release { id }, ApplyOutcome::Release(Ok(_))) => {
                let removed = self.conns.remove(&id);
                assert!(removed.is_some(), "{id} released but never tracked");
            }
            (
                _,
                ApplyOutcome::FailLink(Ok(report))
                | ApplyOutcome::FailNode(Ok(report))
                | ApplyOutcome::FailSrlg(Ok(report)),
            ) => self.fail(net, report),
            (MemberOp::RepairLink { link }, ApplyOutcome::RepairLink(Ok(_))) => {
                self.repair_link(link);
            }
            // The outcome lists connections, the books are kept per link:
            // every member of the group this model holds down came back.
            (MemberOp::RepairSrlg { group }, ApplyOutcome::RepairSrlg(Ok(_))) => {
                for &link in net.srlg_links(group).unwrap_or_default() {
                    if !self.link_up[link.index()] {
                        self.repair_link(link);
                    }
                }
            }
            (op, outcome) => return Err(format!("{op:?} answered {outcome:?}")),
        }
        Ok(())
    }

    /// A failure event: its links go down (one epoch bump each), dropped
    /// connections leave the books, and activated connections switch to
    /// the backup route the network reports.
    fn fail(&mut self, net: &Network, report: &FailureReport) {
        for &link in &report.links {
            assert!(self.link_up[link.index()], "{link} failed while down");
            self.link_up[link.index()] = false;
            self.epoch += 1;
        }
        for id in &report.dropped {
            let removed = self.conns.remove(id);
            assert!(removed.is_some(), "{id} dropped but never tracked");
            self.dropped += 1;
        }
        for id in &report.activated {
            let c = net.connection(*id).expect("activated connection is live");
            self.conns
                .get_mut(id)
                .expect("activated connection is tracked")
                .primary = c.primary().links().to_vec();
        }
    }

    /// A repair: one epoch bump, link back up. (Backup re-establishment
    /// does not touch any quantity the reference tracks.)
    fn repair_link(&mut self, link: LinkId) {
        let idx = link.index();
        assert!(!self.link_up[idx], "{link} repaired while up");
        self.link_up[idx] = true;
        self.epoch += 1;
    }

    /// Compares the mirrored books against the network, returning one
    /// message per divergence (empty = consistent).
    pub(crate) fn compare(&self, net: &Network) -> Vec<String> {
        let mut diffs = Vec::new();

        // Live-connection sets must agree.
        let net_ids: Vec<ConnectionId> = net.connections().map(|c| c.id()).collect();
        let ref_ids = self.live_ids();
        if net_ids != ref_ids {
            diffs.push(format!(
                "live set diverged: network has {} connections, reference {} \
                 (network {:?}, reference {:?})",
                net_ids.len(),
                ref_ids.len(),
                net_ids,
                ref_ids,
            ));
        }

        // Per-link liveness and independently summed primary minima.
        let mut min_sums = vec![Bandwidth::ZERO; self.link_up.len()];
        for rc in self.conns.values() {
            for &l in &rc.primary {
                min_sums[l.index()] += rc.min;
            }
        }
        for (i, &up) in self.link_up.iter().enumerate() {
            let link = LinkId(i);
            let usage = net.link_usage(link);
            if usage.is_up() != up {
                diffs.push(format!(
                    "{link} liveness diverged: network {}, reference {}",
                    usage.is_up(),
                    up
                ));
            }
            if usage.primary_min_sum() != min_sums[i] {
                diffs.push(format!(
                    "{link} min sum diverged: network {}, reference {}",
                    usage.primary_min_sum(),
                    min_sums[i]
                ));
            }
            if min_sums[i] > self.capacity[i] {
                diffs.push(format!(
                    "{link} oversubscribed: minima {} exceed capacity {}",
                    min_sums[i], self.capacity[i]
                ));
            }
        }

        // Per-connection route agreement, QoS range, Δ-grid membership, and
        // every committed path on links the mirror holds up.
        for (id, rc) in &self.conns {
            let Some(c) = net.connection(*id) else {
                continue; // already reported via the live-set diff
            };
            if c.primary().links() != rc.primary.as_slice() {
                diffs.push(format!("{id} primary route diverged"));
            }
            let bw = c.bandwidth();
            if bw < rc.min || bw > rc.max {
                diffs.push(format!(
                    "{id} bandwidth {bw} outside [{}, {}]",
                    rc.min, rc.max
                ));
            } else if rc.increment > Bandwidth::ZERO
                && (bw.as_kbps() - rc.min.as_kbps()) % rc.increment.as_kbps() != 0
            {
                diffs.push(format!(
                    "{id} bandwidth {bw} off the Δ-grid (min {}, Δ {})",
                    rc.min, rc.increment
                ));
            }
            for &l in &rc.primary {
                if !self.link_up[l.index()] {
                    diffs.push(format!("{id} primary crosses down link {l}"));
                }
            }
            for (i, b) in c.backups().iter().enumerate() {
                for &l in b.links() {
                    if !self.link_up[l.index()] {
                        diffs.push(format!("{id} backup #{i} crosses down link {l}"));
                    }
                }
            }
        }

        // Global counters.
        if net.dropped_total() != self.dropped {
            diffs.push(format!(
                "dropped_total diverged: network {}, reference {}",
                net.dropped_total(),
                self.dropped
            ));
        }
        if net.topology_epoch() != self.epoch {
            diffs.push(format!(
                "topology_epoch diverged: network {}, reference {}",
                net.topology_epoch(),
                self.epoch
            ));
        }
        diffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drqos_core::network::{EstablishRequest, Network, NetworkConfig};
    use drqos_core::qos::ElasticQos;
    use drqos_topology::{regular, NodeId};

    fn net() -> Network {
        Network::new(regular::ring(6).unwrap(), NetworkConfig::default())
    }

    /// Applies `op` the way the harness does and shows the model.
    fn step(net: &mut Network, model: &mut ReferenceModel, op: MemberOp) {
        let outcome = op.apply(net);
        model.observe(net, op, &outcome).expect("a legal operand");
    }

    fn establish(net: &mut Network, model: &mut ReferenceModel) -> ConnectionId {
        let req = EstablishRequest {
            src: NodeId(0),
            dst: NodeId(3),
            qos: ElasticQos::paper_video(100),
        };
        let op = MemberOp::Establish { req };
        let outcome = op.apply(net);
        model.observe(net, op, &outcome).unwrap();
        let ApplyOutcome::Establish(Ok(id)) = outcome else {
            panic!("an empty ring admits: {outcome:?}");
        };
        id
    }

    #[test]
    fn mirrors_establish_release_and_failure() {
        let mut net = net();
        let mut model = ReferenceModel::new(&net);
        assert!(model.compare(&net).is_empty());

        let a = establish(&mut net, &mut model);
        assert!(model.compare(&net).is_empty());

        let link = net.connection(a).unwrap().primary().links()[0];
        step(&mut net, &mut model, MemberOp::FailLink { link });
        assert!(model.compare(&net).is_empty());

        step(&mut net, &mut model, MemberOp::RepairLink { link });
        assert!(model.compare(&net).is_empty());

        step(&mut net, &mut model, MemberOp::Release { id: a });
        assert!(model.compare(&net).is_empty());

        // A fresh network reads as the epoch rolled back.
        let fresh = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
        let diffs = model.compare(&fresh);
        assert!(
            diffs.iter().any(|d| d.contains("topology_epoch diverged")),
            "{diffs:?}"
        );

        // The same link again: an illegal operand is named, not mirrored.
        let op = MemberOp::RepairLink { link };
        let outcome = op.apply(&mut net);
        let refused = model.observe(&net, op, &outcome);
        assert!(refused.unwrap_err().contains("RepairLink"));
        assert!(model.compare(&net).is_empty());
    }

    #[test]
    fn detects_a_lost_release() {
        let mut net = net();
        let mut model = ReferenceModel::new(&net);
        let a = establish(&mut net, &mut model);
        // The network releases but the reference is not told — exactly the
        // desynchronization the fuzzer's injected fault produces.
        net.release(a).unwrap();
        let diffs = model.compare(&net);
        assert!(
            diffs.iter().any(|d| d.contains("live set diverged")),
            "{diffs:?}"
        );
        assert!(
            diffs.iter().any(|d| d.contains("min sum diverged")),
            "{diffs:?}"
        );
    }

    #[test]
    fn a_backup_on_a_link_the_reference_holds_down_is_reported() {
        let mut net = net();
        let mut model = ReferenceModel::new(&net);
        let a = establish(&mut net, &mut model);
        let link = net.connection(a).unwrap().backups()[0].links()[0];
        // The failure reaches the reference but not the network, which
        // still registers the backup across the link the mirror holds down.
        let op = MemberOp::FailLink { link };
        let outcome = op.apply(&mut net.clone());
        model.observe(&net, op, &outcome).unwrap();
        let diffs = model.compare(&net);
        let crossing = format!("{a} backup #0 crosses down link {link}");
        assert!(diffs.contains(&crossing), "{diffs:?}");
    }
}
