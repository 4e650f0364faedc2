//! The six workloads and their seeded op streams.
//!
//! A [`Script`] is a closed-loop client: it decides its next command from
//! its seed and the replies it has seen (an id can only be released after
//! the daemon handed it out), never from a clock, so one seed replays the
//! same commands against any [`Exec`] that answers like the daemon does.

use drqos_bench::runner::derive_seed;
use drqos_core::qos::{Bandwidth, ElasticQos};
use drqos_core::workload::Workload;
use drqos_service::protocol::payload_field;
use drqos_sim::rng::Rng;
use std::collections::VecDeque;
use std::io;

/// Seed of the evaluation graph; part of the workload, not of `--seed`.
pub const GRAPH_SEED: u64 = 2001;
/// Elastic QoS range of every request, Kbps.
pub const BMIN: u64 = 100;
/// See [`BMIN`].
pub const BMAX: u64 = 500;
/// ESTABLISH attempts a churn cycle may spend getting back to `P`.
pub const REFILL_ATTEMPTS: usize = 4;
/// Requests per `burst16` batch.
pub const BURST: usize = 16;
/// Hot pairs `short_calls` draws once from its seed.
pub const HOT_PAIRS: usize = 256;
/// `failover` injects a fault every this many cycles.
pub const FAULT_EVERY: u64 = 10;
/// Links `failover` keeps down at most.
pub const MAX_DOWN: usize = 2;
/// Window length the op counts below are sized for, seconds.
pub const NOMINAL_SECONDS: u64 = 6;

/// The kinds of request a latency is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ESTABLISH` (for `burst16`, one whole batch).
    Establish,
    /// `RELEASE`.
    Release,
    /// `FAIL-LINK`.
    Fail,
    /// `REPAIR-LINK`.
    Repair,
}

impl Kind {
    /// All kinds, in the order latency tables index them.
    pub const ALL: [Kind; 4] = [Kind::Establish, Kind::Release, Kind::Fail, Kind::Repair];

    /// The kind of a command line, by its verb; `None` for the verbs no
    /// script sends (`SNAPSHOT`, `SHUTDOWN`), which are not timed.
    pub fn of(line: &str) -> Option<Kind> {
        match line.split_ascii_whitespace().next()? {
            "ESTABLISH" => Some(Kind::Establish),
            "RELEASE" => Some(Kind::Release),
            "FAIL-LINK" => Some(Kind::Fail),
            "REPAIR-LINK" => Some(Kind::Repair),
            _ => None,
        }
    }

    /// Dense index into per-kind tables.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Whatever answers a command line with a reply line: a connection to a
/// daemon, an in-process engine, the timing recorder around either, or
/// the traced layer replica.
pub trait Exec {
    /// Executes one command and returns its reply line.
    ///
    /// # Errors
    ///
    /// Transport failures; a reply of any kind is not an error.
    fn exec(&mut self, line: &str) -> io::Result<String>;

    /// Executes one drained batch of `ESTABLISH` lines (engine boundary
    /// only) and returns the replies in input order.
    ///
    /// # Errors
    ///
    /// `Unsupported` unless the executor sits at the engine boundary.
    fn exec_batch(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let _ = lines;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "batches are driven at the engine boundary only",
        ))
    }
}

/// The topology a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `paper_graph(100, GRAPH_SEED)`: 100 nodes, 354 links.
    Paper,
    /// `torus(6, 6)`.
    Torus6,
}

/// How a workload reaches the admission engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `drqosd` over loopback TCP, binary frames.
    DaemonBinary,
    /// `drqosd` over loopback TCP, text lines.
    DaemonText,
    /// Coordinator + 3 member daemons; one client alternating over the
    /// first two members.
    Cluster3,
    /// No socket: `Engine::handle_line` / `handle_server_batch`.
    EngineBatch,
}

/// What one step of the script does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Release one held id, establish back up to `P`.
    Churn,
    /// [`Shape::Churn`] plus a link fault every [`FAULT_EVERY`] cycles.
    Failover,
    /// Establish a hot pair and release it at once.
    ShortCalls,
    /// Release [`BURST`] ids singly, establish [`BURST`] in one batch.
    Burst,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// See [`Topology`].
    pub topology: Topology,
    /// See [`Transport`].
    pub transport: Transport,
    /// See [`Shape`].
    pub shape: Shape,
    /// Increment Δ, Kbps.
    pub delta: u64,
    /// Live connections each client holds.
    pub p: usize,
    /// Client threads (= client-driven scripts).
    pub clients: usize,
    /// Steps per client in a [`NOMINAL_SECONDS`] window.
    pub steps: usize,
}

/// The six workloads. Step counts put the timed window at 6–9 s on one
/// CPU of the VM the repository is grown on and give at least 10 000
/// establish samples wherever one request is one sample; `burst16` has
/// 1 200 batches (a 99th percentile needs 1 000).
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "paper_churn",
        topology: Topology::Paper,
        transport: Transport::DaemonBinary,
        shape: Shape::Churn,
        delta: 50,
        p: 1000,
        clients: 1,
        steps: 12_000,
    },
    Spec {
        name: "short_calls",
        topology: Topology::Paper,
        transport: Transport::DaemonBinary,
        shape: Shape::ShortCalls,
        delta: 50,
        p: 1000,
        clients: 1,
        steps: 28_000,
    },
    Spec {
        name: "failover",
        topology: Topology::Paper,
        transport: Transport::DaemonBinary,
        shape: Shape::Failover,
        delta: 50,
        p: 1000,
        clients: 1,
        steps: 12_000,
    },
    Spec {
        name: "wire_small",
        topology: Topology::Torus6,
        transport: Transport::DaemonText,
        shape: Shape::Churn,
        delta: 100,
        p: 12,
        clients: 2,
        steps: 48_000,
    },
    Spec {
        name: "cluster3",
        topology: Topology::Paper,
        transport: Transport::Cluster3,
        shape: Shape::Churn,
        delta: 50,
        p: 250,
        clients: 1,
        steps: 10_000,
    },
    Spec {
        name: "burst16",
        topology: Topology::Paper,
        transport: Transport::EngineBatch,
        shape: Shape::Burst,
        delta: 50,
        p: 1000,
        clients: 1,
        steps: 1_200,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Whether one client drives the daemon, so the reply transcript is a
    /// pure function of the seed.
    pub fn deterministic(&self) -> bool {
        self.clients == 1
    }

    /// The `--quick` variant: a fifth of the live connections and a
    /// fiftieth of the steps. Smoke only; its numbers mean nothing.
    pub fn quick(&self) -> Spec {
        Spec {
            p: (self.p / 5).max(12),
            steps: (self.steps / 50).max(20),
            ..*self
        }
    }

    /// Steps for a window sized for `seconds` instead of the nominal.
    pub fn steps_for(&self, seconds: u64) -> usize {
        let scaled = self.steps as u64 * seconds.max(1) / NOMINAL_SECONDS;
        usize::try_from(scaled).unwrap_or(usize::MAX).max(10)
    }
}

/// One closed-loop client's op stream.
#[derive(Debug)]
pub struct Script {
    spec: Spec,
    rng: Rng,
    workload: Workload,
    nodes: usize,
    links: usize,
    held: Vec<u64>,
    hot: Vec<(usize, usize)>,
    down: VecDeque<usize>,
    steps_done: u64,
}

impl Script {
    /// The script of client `client` of `spec` under `seed`, for a
    /// topology of `nodes` nodes and `links` links.
    ///
    /// # Panics
    ///
    /// Panics if the fixed QoS range is invalid (it is not).
    pub fn new(spec: &Spec, seed: u64, client: usize, nodes: usize, links: usize) -> Self {
        let qos = ElasticQos::new(
            Bandwidth::kbps(BMIN),
            Bandwidth::kbps(BMAX),
            Bandwidth::kbps(spec.delta),
            1.0,
        )
        .expect("the fixed QoS range is valid");
        let workload = Workload::new(qos);
        let mut rng = Rng::seed_from_u64(derive_seed(seed, client as u64));
        let hot = if spec.shape == Shape::ShortCalls {
            (0..HOT_PAIRS)
                .map(|_| {
                    let r = workload.request(&mut rng, nodes);
                    (r.src.index(), r.dst.index())
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            spec: *spec,
            rng,
            workload,
            nodes,
            links,
            held: Vec::new(),
            hot,
            down: VecDeque::new(),
            steps_done: 0,
        }
    }

    /// Ids this client believes it holds.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Steps taken since set-up.
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    fn establish_line(&self, src: usize, dst: usize) -> String {
        format!("ESTABLISH {src} {dst} {BMIN} {BMAX} {}", self.spec.delta)
    }

    fn fresh_line(&mut self) -> String {
        let r = self.workload.request(&mut self.rng, self.nodes);
        self.establish_line(r.src.index(), r.dst.index())
    }

    /// Establishes one fresh random request; keeps its id when admitted.
    fn establish(&mut self, x: &mut impl Exec) -> io::Result<()> {
        let line = self.fresh_line();
        let reply = x.exec(&line)?;
        self.held.extend(admitted_id(&reply));
        Ok(())
    }

    fn release_random(&mut self, x: &mut impl Exec) -> io::Result<()> {
        if self.held.is_empty() {
            return Ok(());
        }
        let id = self.held.swap_remove(self.rng.range_usize(self.held.len()));
        x.exec(&format!("RELEASE {id}"))?;
        Ok(())
    }

    /// One churn cycle: release one uniformly chosen held id, then
    /// establish fresh requests until `P` are held again.
    fn churn(&mut self, x: &mut impl Exec) -> io::Result<()> {
        self.release_random(x)?;
        for _ in 0..REFILL_ATTEMPTS {
            if self.held.len() >= self.spec.p {
                break;
            }
            self.establish(x)?;
        }
        Ok(())
    }

    /// Set-up traffic: warm to `P` live connections, then `2·P` churn
    /// cycles so timing starts from the steady mix, not from the cheaper
    /// state straight after warm-up.
    ///
    /// # Errors
    ///
    /// Transport failures, or a network too small to hold `P`.
    pub fn set_up(&mut self, x: &mut impl Exec) -> io::Result<()> {
        let mut attempts = 0;
        while self.held.len() < self.spec.p {
            if attempts >= REFILL_ATTEMPTS * self.spec.p {
                return Err(io::Error::other(format!(
                    "{}: warm-up reached {} of {} connections",
                    self.spec.name,
                    self.held.len(),
                    self.spec.p
                )));
            }
            self.establish(x)?;
            attempts += 1;
        }
        for _ in 0..2 * self.spec.p {
            self.churn(x)?;
        }
        Ok(())
    }

    /// One timed step of the workload's shape.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn step(&mut self, x: &mut impl Exec) -> io::Result<()> {
        self.steps_done += 1;
        match self.spec.shape {
            Shape::Churn => self.churn(x),
            Shape::Failover => {
                if self.steps_done.is_multiple_of(FAULT_EVERY) {
                    self.fault(x)?;
                }
                self.churn(x)
            }
            Shape::ShortCalls => {
                let (src, dst) = self
                    .hot
                    .get(self.rng.range_usize(HOT_PAIRS))
                    .copied()
                    .unwrap_or((0, 1));
                let reply = x.exec(&self.establish_line(src, dst))?;
                if let Some(id) = admitted_id(&reply) {
                    x.exec(&format!("RELEASE {id}"))?;
                }
                Ok(())
            }
            Shape::Burst => {
                // Release down to P − BURST, so an all-admitted batch
                // lands back on P exactly.
                let floor = self.spec.p.saturating_sub(BURST);
                while self.held.len() > floor {
                    self.release_random(x)?;
                }
                let lines: Vec<String> = (0..BURST).map(|_| self.fresh_line()).collect();
                for reply in x.exec_batch(&lines)? {
                    self.held.extend(admitted_id(&reply));
                }
                Ok(())
            }
        }
    }

    /// Repairs the oldest failed link once [`MAX_DOWN`] are down, then
    /// fails a seeded random up link.
    fn fault(&mut self, x: &mut impl Exec) -> io::Result<()> {
        if self.down.len() >= MAX_DOWN {
            if let Some(link) = self.down.pop_front() {
                x.exec(&format!("REPAIR-LINK {link}"))?;
            }
        }
        let link = loop {
            let l = self.rng.range_usize(self.links);
            if !self.down.contains(&l) {
                break l;
            }
        };
        self.down.push_back(link);
        x.exec(&format!("FAIL-LINK {link}"))?;
        Ok(())
    }
}

/// The connection id of an `OK id=..` establish reply.
pub fn admitted_id(reply: &str) -> Option<u64> {
    payload_field(reply.strip_prefix("OK ")?, "id")
}
