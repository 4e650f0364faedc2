//! Integration tests for the failure/recovery path: backup activation,
//! multiplexing safety, drops, and repair across the full stack.

use drqos_core::channel::ConnectionId;
use drqos_core::error::NetworkError;
use drqos_core::qos::Bandwidth;
use drqos_tests::loaded_network;
use drqos_topology::{LinkId, NodeId};
use std::collections::BTreeSet;

#[test]
fn single_failure_never_strands_backed_up_connections() {
    let (mut net, _) = loaded_network(50, 120, 10);
    net.validate();
    let with_backup: BTreeSet<ConnectionId> = net
        .connections()
        .filter(|c| {
            let disjoint = |b| c.primary().is_link_disjoint(b);
            c.has_backup() && c.backups().iter().all(disjoint)
        })
        .map(|c| c.id())
        .collect();
    // Fail one link; every fully-backed-up connection must survive.
    let link = net.up_links().next().expect("links exist");
    let report = net.fail_link(link).expect("link is up");
    for id in &with_backup {
        assert!(
            net.connection(*id).is_some(),
            "{id} had a disjoint backup but vanished"
        );
    }
    for id in &report.dropped {
        assert!(
            !with_backup.contains(id),
            "{id} dropped despite disjoint backup"
        );
    }
    net.validate();
}

#[test]
fn activation_burst_fits_in_reserved_bandwidth() {
    // The multiplexed reservation must cover the worst single-failure
    // activation burst: after any single failure, no link's *allocated*
    // bandwidth (minima + extras) may exceed capacity.
    let (mut net, mut rng) = loaded_network(50, 150, 11);
    let up: Vec<_> = net.up_links().collect();
    let link = up[rng.range_usize(up.len())];
    net.fail_link(link).expect("link is up");
    for l in net.graph().links() {
        let u = net.link_usage(l.id());
        assert!(
            u.primary_min_sum() + u.extra_sum() <= u.capacity(),
            "allocation burst exceeded capacity on {}",
            l.id()
        );
    }
    net.validate();
}

#[test]
fn repeated_fail_repair_cycles_preserve_invariants() {
    let (mut net, mut rng) = loaded_network(40, 80, 12);
    for _ in 0..12 {
        let up: Vec<_> = net.up_links().collect();
        if up.is_empty() {
            break;
        }
        let link = up[rng.range_usize(up.len())];
        net.fail_link(link).expect("link is up");
        net.validate();
        net.repair_link(link).expect("link is down");
        net.validate();
    }
}

#[test]
fn concurrent_failures_then_repairs() {
    let (mut net, mut rng) = loaded_network(40, 60, 13);
    let mut down = Vec::new();
    for _ in 0..4 {
        let up: Vec<_> = net.up_links().collect();
        let link = up[rng.range_usize(up.len())];
        net.fail_link(link).expect("link is up");
        down.push(link);
        net.validate();
    }
    for link in down {
        net.repair_link(link).expect("still down");
        net.validate();
    }
    // After full repair, connections may regain backups.
    let backed = net.connections().filter(|c| c.has_backup()).count();
    assert!(backed > 0);
}

#[test]
fn failover_retains_minimum_bandwidth() {
    let (mut net, _) = loaded_network(50, 100, 14);
    let link = net.up_links().next().expect("links exist");
    let report = net.fail_link(link).expect("link is up");
    for id in &report.activated {
        let c = net.connection(*id).expect("activated connections survive");
        assert!(c.bandwidth() >= Bandwidth::kbps(100));
        assert_eq!(c.failovers(), 1);
        // The new primary must avoid the dead link.
        assert!(!c.primary().crosses(link));
    }
}

#[test]
fn repair_restores_up_links_and_never_resurrects_connections() {
    // Property, across seeds: failing a link and repairing it restores
    // the exact up-link set, and connections released or dropped while
    // the link was down never come back.
    for seed in [21u64, 22, 23, 24] {
        let (mut net, mut rng) = loaded_network(40, 60, seed);
        let before: BTreeSet<_> = net.up_links().collect();
        let up: Vec<_> = net.up_links().collect();
        let link = up[rng.range_usize(up.len())];

        let report = net.fail_link(link).expect("link is up");
        let mut gone: BTreeSet<ConnectionId> = report.dropped.iter().copied().collect();
        // Release one survivor while the link is down.
        let survivor = net.connections().map(|c| c.id()).next();
        if let Some(id) = survivor {
            net.release(id).expect("live id");
            gone.insert(id);
        }

        net.repair_link(link).expect("link is down");
        let after: BTreeSet<_> = net.up_links().collect();
        assert_eq!(before, after, "seed {seed}: repair must restore up_links");
        for id in &gone {
            assert!(
                net.connection(*id).is_none(),
                "seed {seed}: {id} resurrected by repair"
            );
        }
        net.validate();
    }
}

#[test]
fn fail_node_rejects_unknown_and_fully_downed_nodes() {
    let (mut net, _) = loaded_network(40, 30, 25);
    let n = net.graph().node_count();
    assert_eq!(
        net.fail_node(NodeId(n + 7)),
        Err(NetworkError::UnknownNode(NodeId(n + 7)))
    );
    // Down every link adjacent to node 0, then failing it again is an
    // error rather than a silent no-op.
    let adjacent: Vec<_> = net
        .graph()
        .neighbors(NodeId(0))
        .iter()
        .map(|&(_, l)| l)
        .collect();
    assert!(!adjacent.is_empty());
    let epoch_before_outage = net.topology_epoch();
    net.fail_node(NodeId(0)).expect("node has up links");
    assert_eq!(
        net.fail_node(NodeId(0)),
        Err(NetworkError::NodeAlreadyDown(NodeId(0)))
    );
    // Failed calls must not bump the topology epoch further.
    assert_eq!(
        net.topology_epoch(),
        epoch_before_outage + adjacent.len() as u64
    );
    net.validate();
}

#[test]
fn overlapping_node_and_srlg_events_never_double_count_drops() {
    // Regression: a node outage followed by an SRLG firing on a group
    // that *partially* overlaps the downed links must only fail the
    // members the outage missed, and every dropped connection must be
    // counted exactly once — live + dropped stays conserved.
    for seed in [31u64, 32, 33, 34] {
        let (mut net, _) = loaded_network(40, 80, seed);
        let live_before = net.len() as u64;
        let dropped_before = net.dropped_total();

        let adjacent: BTreeSet<LinkId> = net
            .graph()
            .neighbors(NodeId(0))
            .iter()
            .map(|&(_, l)| l)
            .collect();
        let outside: Vec<LinkId> = net
            .up_links()
            .filter(|l| !adjacent.contains(l))
            .take(2)
            .collect();
        assert_eq!(outside.len(), 2, "seed {seed}: graph too small");
        // Two links the outage will down, two it won't: partial overlap.
        let mut members: Vec<LinkId> = adjacent.iter().copied().take(2).collect();
        members.extend(&outside);
        let g = net.register_srlg(members).expect("valid group");

        let node_drops = net
            .fail_node(NodeId(0))
            .expect("node has up links")
            .dropped
            .len();

        let srlg_report = net.fail_srlg(g).expect("group still has up members");
        // Only the non-overlapping members fire — the two links the
        // outage already downed are skipped, not re-failed.
        assert_eq!(srlg_report.links, outside, "seed {seed}");
        let srlg_drops = srlg_report.dropped.len();

        // The counter moved by exactly the per-report sums (no double
        // count), and every established connection is still accounted
        // for: alive or dropped, never both, never twice.
        assert_eq!(
            net.dropped_total() - dropped_before,
            (node_drops + srlg_drops) as u64,
            "seed {seed}"
        );
        assert_eq!(
            net.len() as u64 + (net.dropped_total() - dropped_before),
            live_before,
            "seed {seed}: drop conservation violated"
        );
        net.validate();
    }
}

#[test]
fn drops_are_counted_once() {
    let (mut net, _) = loaded_network(40, 80, 15);
    let before = net.dropped_total();
    let mut dropped_reports = 0;
    let links: Vec<_> = net.up_links().take(6).collect();
    for link in links {
        dropped_reports += net.fail_link(link).expect("link is up").dropped.len() as u64;
    }
    assert_eq!(net.dropped_total() - before, dropped_reports);
}
