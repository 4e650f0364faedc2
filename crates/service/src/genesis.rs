//! The genesis network of a daemon: the flags and environment that fix
//! it, and the one function that builds it.
//!
//! `drqosd` and both `drqos-clusterd` roles boot through here. Replicas
//! of a federation never transfer state — each replays the oplog from its
//! own genesis network — so coordinator and members must build the *same*
//! network: the same topology flags, the same `--seed`, and the same
//! `DRQOS_SRLG_COUNT` / `DRQOS_SRLG_SIZE`, which derive the shared-risk
//! groups `FAIL-SRLG` / `REPAIR-SRLG` name from that seed.

use drqos_core::network::{Network, NetworkConfig};
use drqos_core::qos::Bandwidth;
use drqos_topology::regular;

/// What fixes a daemon's genesis network (beside the environment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genesis {
    /// `ring` or `torus`.
    pub topology: String,
    /// Nodes of a ring.
    pub nodes: usize,
    /// Rows of a torus.
    pub rows: usize,
    /// Columns of a torus.
    pub cols: usize,
    /// Capacity of every link, in Kbps.
    pub capacity_kbps: u64,
    /// Seed of the shared-risk groups.
    pub seed: u64,
}

impl Default for Genesis {
    /// A 6x6 torus at 10 Mbps per link, seed 1.
    fn default() -> Self {
        Self {
            topology: "torus".to_string(),
            nodes: 12,
            rows: 6,
            cols: 6,
            capacity_kbps: 10_000,
            seed: 1,
        }
    }
}

/// Parses the value of `flag`.
fn parsed<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag}"))
}

impl Genesis {
    /// The genesis flags, for a usage line.
    pub const USAGE: &'static str = "[--topology ring|torus] [--nodes N] [--rows R] [--cols C] \
                                     [--capacity KBPS] [--seed N]";

    /// Takes `flag` if it is a genesis flag, drawing its value from
    /// `value`; `Ok(false)` leaves it to the caller.
    ///
    /// # Errors
    ///
    /// Whatever `value` fails with, or `bad <flag>` for a value that does
    /// not parse.
    pub fn take_flag(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--topology" => self.topology = value(flag)?,
            "--nodes" => self.nodes = parsed(flag, value(flag)?)?,
            "--rows" => self.rows = parsed(flag, value(flag)?)?,
            "--cols" => self.cols = parsed(flag, value(flag)?)?,
            "--capacity" => self.capacity_kbps = parsed(flag, value(flag)?)?,
            "--seed" => self.seed = parsed(flag, value(flag)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the network, registering the seeded shared-risk groups the
    /// environment asks for; `who` prefixes the line that reports them.
    ///
    /// # Errors
    ///
    /// An unknown topology name, or dimensions the topology rejects.
    pub fn build(&self, who: &str) -> Result<Network, String> {
        let graph = match self.topology.as_str() {
            "ring" => regular::ring(self.nodes).map_err(|e| e.to_string())?,
            "torus" => regular::torus(self.rows, self.cols).map_err(|e| e.to_string())?,
            other => return Err(format!("unknown topology {other} (ring|torus)")),
        };
        let config = NetworkConfig {
            capacity: Bandwidth::kbps(self.capacity_kbps),
            ..NetworkConfig::default()
        };
        let mut net = Network::new(graph, config);
        let srlg_count = drqos_core::env::srlg_count();
        if srlg_count > 0 {
            let size = drqos_core::env::srlg_size();
            let registered =
                drqos_core::register_seeded_srlgs(&mut net, srlg_count, size, self.seed);
            eprintln!(
                "{who}: registered {registered} shared-risk groups (seed {})",
                self.seed
            );
        }
        Ok(net)
    }

    /// The topology by name and size, for a boot line.
    pub fn describe(&self) -> String {
        match self.topology.as_str() {
            "ring" => format!("ring ({} nodes)", self.nodes),
            name => format!("{name} ({}x{})", self.rows, self.cols),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `line`'s words through `take_flag`; returns what it left.
    fn taken(line: &str) -> Result<(Genesis, Vec<String>), String> {
        let (mut genesis, mut left) = (Genesis::default(), Vec::new());
        let mut it = line.split_whitespace();
        while let Some(flag) = it.next() {
            let mut value = |flag: &str| {
                let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                Ok(v.to_string())
            };
            if !genesis.take_flag(flag, &mut value)? {
                left.push(flag.to_string());
            }
        }
        Ok((genesis, left))
    }

    #[test]
    fn takes_its_own_flags_and_leaves_the_rest() {
        let line = "--port --topology ring --nodes 9 --capacity 800 --seed 7";
        let (genesis, left) = taken(line).unwrap();
        assert_eq!(left, ["--port"]);
        let want = Genesis {
            topology: "ring".to_string(),
            nodes: 9,
            capacity_kbps: 800,
            seed: 7,
            ..Genesis::default()
        };
        assert_eq!(genesis, want);
        assert_eq!(genesis.describe(), "ring (9 nodes)");
        let net = genesis.build("test").unwrap();
        assert_eq!(net.graph().node_count(), 9);
        assert_eq!(net.config().capacity, Bandwidth::kbps(800));
    }

    #[test]
    fn a_bad_or_missing_value_and_an_unknown_topology_are_errors() {
        assert_eq!(taken("--rows six").unwrap_err(), "bad --rows");
        assert_eq!(taken("--seed").unwrap_err(), "--seed needs a value");
        let (genesis, _) = taken("--topology mesh").unwrap();
        assert!(genesis.build("test").unwrap_err().contains("mesh"));
        assert_eq!(Genesis::default().describe(), "torus (6x6)");
    }
}
