//! Golden-trace recording and byte-exact verification.
//!
//! A [`TraceRecorder`] wraps a [`Network`], applies every operation as a
//! [`MemberOp`] and logs its outcome plus periodic state snapshots into a
//! hand-rolled line-oriented text format (no external crates — the build
//! is offline). Canonical scenarios live
//! in [`scenarios`]; their traces are blessed into `tests/golden/` and
//! compared byte-exact on every run, so behavioural drift introduced by a
//! refactor fails CI with a first-differing-line diff.
//!
//! Workflow:
//!
//! * normal run — [`verify_golden`] reads `<dir>/<name>.txt` and compares.
//! * `DRQOS_BLESS=1` — the trace is (re)written instead; commit the file.
//!
//! Traces contain only simulation-determined values (no wall clock, no
//! thread count, no floats), so they are stable across machines, worker
//! counts, and debug/release builds.

use drqos_cluster::{ApplyOutcome, MemberOp};
use drqos_core::channel::ConnectionId;
use drqos_core::network::{EstablishRequest, FailureReport, Network};
use drqos_core::qos::ElasticQos;
use drqos_topology::paths::Path;
use drqos_topology::{LinkId, NodeId};
use std::fmt::Write as _;
use std::path::Path as FsPath;

/// Records a line-oriented operation trace while driving a network.
pub struct TraceRecorder {
    net: Network,
    qos: ElasticQos,
    lines: Vec<String>,
}

fn fmt_path(path: &Path) -> String {
    path.nodes()
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join("-")
}

/// A failure report's line, after `head`, the event that caused it.
fn fail_line(head: String, report: &FailureReport) -> String {
    format!(
        "{head} activated={} dropped={} lost_backup={} retreated={}",
        fmt_ids(&report.activated),
        fmt_ids(&report.dropped),
        fmt_ids(&report.lost_backup),
        fmt_ids(&report.retreated)
    )
}

fn fmt_ids(ids: &[ConnectionId]) -> String {
    let inner = ids
        .iter()
        .map(|id| id.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!("[{inner}]")
}

impl TraceRecorder {
    /// Starts a trace over `net`, using `qos` for every establish.
    pub fn new(name: &str, net: Network, qos: ElasticQos) -> Self {
        let mut rec = TraceRecorder {
            net,
            qos,
            lines: Vec::new(),
        };
        rec.lines.push(format!(
            "# drqos golden trace: {name} (nodes={} links={})",
            rec.net.graph().node_count(),
            rec.net.graph().link_count()
        ));
        rec
    }

    /// The network under the recorder.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Applies `op` through the shared transition ([`MemberOp::apply`])
    /// and records its outcome as one line. The scenarios only ever pick
    /// legal targets, so any other error is a broken trace.
    fn record(&mut self, op: MemberOp) -> ApplyOutcome {
        let outcome = op.apply(&mut self.net);
        let line = match (op, &outcome) {
            (MemberOp::Establish { req }, ApplyOutcome::Establish(Ok(id))) => {
                let c = self.net.connection(*id).expect("just established");
                format!(
                    "establish {id} {}->{} bw={} primary={} backups={}",
                    req.src,
                    req.dst,
                    c.bandwidth().as_kbps(),
                    fmt_path(c.primary()),
                    c.backup_count()
                )
            }
            (MemberOp::Establish { req }, ApplyOutcome::Establish(Err(e))) => {
                format!("reject {}->{} ({e})", req.src, req.dst)
            }
            (MemberOp::Release { id }, ApplyOutcome::Release(Ok(Some(held)))) => {
                format!("release {id} freed={held}")
            }
            (MemberOp::FailLink { link }, ApplyOutcome::FailLink(Ok(report))) => {
                fail_line(format!("fail {link}"), report)
            }
            (MemberOp::FailNode { node }, ApplyOutcome::FailNode(Ok(report))) => {
                let links: Vec<String> = report.links.iter().map(|l| l.to_string()).collect();
                fail_line(
                    format!("fail_node {node} links=[{}]", links.join(",")),
                    report,
                )
            }
            (MemberOp::RepairLink { link }, ApplyOutcome::RepairLink(Ok(regained))) => {
                format!("repair {link} regained={}", fmt_ids(regained))
            }
            (op, outcome) => panic!("trace ops pick legal targets: {op:?} gave {outcome:?}"),
        };
        self.lines.push(line);
        outcome
    }

    /// Attempts an establish, recording the outcome.
    pub fn establish(&mut self, src: usize, dst: usize) -> Option<ConnectionId> {
        let (src, dst, qos) = (NodeId(src), NodeId(dst), self.qos);
        match self.record(MemberOp::Establish {
            req: EstablishRequest { src, dst, qos },
        }) {
            ApplyOutcome::Establish(Ok(id)) => Some(id),
            _ => None,
        }
    }

    /// Releases a connection, recording the bandwidth it held.
    pub fn release(&mut self, id: ConnectionId) {
        self.record(MemberOp::Release { id });
    }

    /// Fails a link, recording the full failure report.
    pub fn fail_link(&mut self, link: LinkId) {
        self.record(MemberOp::FailLink { link });
    }

    /// Fails a node, recording the links it took down and the report.
    pub fn fail_node(&mut self, node: usize) {
        self.record(MemberOp::FailNode { node: NodeId(node) });
    }

    /// Repairs a link, recording which connections regained backups.
    pub fn repair_link(&mut self, link: LinkId) {
        self.record(MemberOp::RepairLink { link });
    }

    /// Records a state snapshot line (counts and totals only — no
    /// floats, so the trace is byte-stable).
    pub fn state(&mut self) {
        self.lines.push(format!(
            "state conns={} bw={} dropped={} epoch={}",
            self.net.len(),
            self.net.total_primary_bandwidth().as_kbps(),
            self.net.dropped_total(),
            self.net.topology_epoch()
        ));
    }

    /// Validates the final network and returns the trace text.
    pub fn finish(mut self) -> String {
        self.net.validate();
        self.state();
        let mut out = String::new();
        for line in &self.lines {
            writeln!(out, "{line}").expect("writing to String cannot fail");
        }
        out
    }
}

/// Compares `content` against `<dir>/<name>.txt` byte-exact, or rewrites
/// the file when `DRQOS_BLESS=1` is set.
///
/// # Errors
///
/// Returns a message naming the first differing line (or the missing
/// file, or the I/O failure in bless mode).
pub fn verify_golden(dir: &FsPath, name: &str, content: &str) -> Result<(), String> {
    let path = dir.join(format!("{name}.txt"));
    if drqos_core::env::bless() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        std::fs::write(&path, content).map_err(|e| format!("blessing {}: {e}", path.display()))?;
        return Ok(());
    }
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "missing golden trace {} ({e}); run once with DRQOS_BLESS=1 to create it",
            path.display()
        )
    })?;
    if expected == content {
        return Ok(());
    }
    // Byte inequality: locate the first differing line for the report.
    let mut exp_lines = expected.lines();
    let mut got_lines = content.lines();
    let mut lineno = 1usize;
    loop {
        match (exp_lines.next(), got_lines.next()) {
            (Some(e), Some(g)) if e == g => lineno += 1,
            (e, g) => {
                return Err(format!(
                    "golden trace {} diverged at line {lineno}:\n  expected: {}\n  actual:   {}\n\
                     (re-bless with DRQOS_BLESS=1 if the change is intentional)",
                    path.display(),
                    e.unwrap_or("<end of file>"),
                    g.unwrap_or("<end of file>")
                ));
            }
        }
    }
}

/// The canonical scenarios blessed into `tests/golden/`.
pub mod scenarios {
    use super::TraceRecorder;
    use drqos_core::network::{Network, NetworkConfig};
    use drqos_core::qos::{Bandwidth, ElasticQos};
    use drqos_topology::regular;

    /// `ring_failover`: a 6-ring where a primary-link failure activates
    /// the backup, the link is repaired, and everything is torn down.
    pub(crate) fn ring_failover() -> (&'static str, String) {
        let net = Network::new(regular::ring(6).unwrap(), NetworkConfig::default());
        let mut rec = TraceRecorder::new("ring_failover", net, ElasticQos::paper_video(100));
        let a = rec.establish(0, 3).expect("empty ring admits");
        let b = rec.establish(1, 4).expect("10 Mbps ring admits two");
        rec.state();
        let link = rec.network().connection(a).unwrap().primary().links()[0];
        rec.fail_link(link);
        rec.state();
        rec.repair_link(link);
        rec.release(a);
        rec.release(b);
        ("ring_failover", rec.finish())
    }

    /// `contention_retreat`: a capacity-starved ring where arrivals force
    /// retreats and a departure lets survivors grow back.
    pub(crate) fn contention_retreat() -> (&'static str, String) {
        let net = Network::new(
            regular::ring(6).unwrap(),
            NetworkConfig {
                capacity: Bandwidth::kbps(800),
                ..NetworkConfig::default()
            },
        );
        let mut rec = TraceRecorder::new("contention_retreat", net, ElasticQos::paper_video(100));
        let a = rec.establish(0, 2).expect("first fits");
        let b = rec.establish(1, 3).expect("second fits after retreats");
        rec.establish(0, 3); // may be rejected: also part of the contract
        rec.state();
        rec.release(b);
        rec.state();
        rec.release(a);
        ("contention_retreat", rec.finish())
    }

    /// `node_outage`: a torus node failure downs four links at once,
    /// then two of them are repaired.
    pub(crate) fn node_outage() -> (&'static str, String) {
        let net = Network::new(regular::torus(4, 4).unwrap(), NetworkConfig::default());
        let mut rec = TraceRecorder::new("node_outage", net, ElasticQos::paper_video(50));
        rec.establish(0, 10).expect("empty torus admits");
        rec.establish(3, 12).expect("empty torus admits");
        rec.establish(1, 14).expect("empty torus admits");
        rec.state();
        rec.fail_node(5);
        rec.state();
        // Repair the first two downed links (id order — deterministic).
        let down: Vec<_> = rec
            .network()
            .graph()
            .links()
            .map(|l| l.id())
            .filter(|&l| !rec.network().link_usage(l).is_up())
            .take(2)
            .collect();
        for l in down {
            rec.repair_link(l);
        }
        ("node_outage", rec.finish())
    }

    /// All canonical scenarios, for the test harness and the fuzz binary.
    pub fn all() -> Vec<(&'static str, String)> {
        vec![ring_failover(), contention_retreat(), node_outage()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        for _ in 0..2 {
            let (_, a) = scenarios::ring_failover();
            let (_, b) = scenarios::ring_failover();
            assert_eq!(a, b);
        }
        let (_, t) = scenarios::node_outage();
        assert!(t.contains("fail_node n5 links=[l3,l8,l10,l11] activated="));
        assert!(t.lines().last().unwrap().starts_with("state "));
    }

    #[test]
    fn verify_reports_first_diverging_line() {
        let dir = std::env::temp_dir().join("drqos-golden-selftest");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("case.txt"), "alpha\nbeta\n").unwrap();
        assert!(verify_golden(&dir, "case", "alpha\nbeta\n").is_ok());
        let err = verify_golden(&dir, "case", "alpha\ngamma\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("beta") && err.contains("gamma"), "{err}");
        let missing = verify_golden(&dir, "absent", "x").unwrap_err();
        assert!(missing.contains("DRQOS_BLESS"), "{missing}");
    }
}
