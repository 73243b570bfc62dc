//! Bringing a workload's server up: index build, file write, load, server
//! start and warm-up — the steps `setup_s` times — plus the process
//! counters read from outside the program.

use crate::corpus::{Corpus, Pair};
use crate::wire::Conn;
use lshe_cluster::{shard_of, ClusterConfig, ClusterHandle};
use lshe_serve::container::IndexContainer;
use lshe_serve::engine::Engine;
use lshe_serve::server::{start, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Equi-depth partitions of the canonical index (the CLI default).
pub const PARTITIONS: usize = 32;
/// Shards of the cluster topology.
pub const SHARDS: usize = 4;

/// How a workload serves the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Packed v2 file, served in place through mmap (read-only).
    Mapped,
    /// v1 heap file: the mutable path, with leveled maintenance.
    Heap,
    /// Packed shards behind an in-process coordinator.
    Cluster,
}

/// A running topology.
pub struct Served {
    /// Where clients send requests.
    pub addr: SocketAddr,
    /// The served engine (single-server layouts) — what `Snapshot::search`
    /// checks run against.
    pub engine: Option<Arc<Engine>>,
    /// Direct shard addresses (cluster layout only).
    pub shard_addrs: Vec<SocketAddr>,
    servers: Vec<ServerHandle>,
    cluster: Option<ClusterHandle>,
    dir: PathBuf,
}

/// What one setup cost, by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Whole setup, warm-up included.
    pub total_s: f64,
    /// `IndexContainer::build` (and the split, for the cluster).
    pub build_s: f64,
    /// Writing the workload's file format.
    pub persist_s: f64,
    /// `Engine::load` on the written file(s).
    pub open_ms: f64,
}

/// The counters sampled before the final load; see [`Counters`].
pub struct Setup {
    /// The running topology.
    pub served: Served,
    /// Step costs.
    pub times: SetupTimes,
    /// Process counters sampled just before `Engine::load`.
    pub before_load: Counters,
}

/// Builds, writes, loads, starts and warms one topology in `dir`.
///
/// # Errors
/// A message naming the failed step.
pub fn setup(
    layout: Layout,
    corpus: &Corpus,
    dir: &Path,
    warmup: &[Pair],
) -> Result<Setup, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let container = IndexContainer::build(&corpus.catalog, PARTITIONS, true);
    let parts = match layout {
        Layout::Cluster => container.split_with(SHARDS, shard_of)?,
        Layout::Mapped | Layout::Heap => vec![container],
    };
    let t1 = Instant::now();
    let mut paths = Vec::new();
    for (s, part) in parts.iter().enumerate() {
        let path = dir.join(format!("index{s}.lshe"));
        match layout {
            Layout::Heap => std::fs::write(&path, part.to_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?,
            Layout::Mapped | Layout::Cluster => part.pack_v2(&path)?,
        }
        paths.push(path);
    }
    drop(parts);
    let t2 = Instant::now();
    let before_load = Counters::read()?;
    let engines = paths
        .iter()
        .map(|p| {
            Engine::load(p, 1)
                .map(Arc::new)
                .map_err(|e| format!("load {}: {e}", p.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let t3 = Instant::now();
    let mut servers = Vec::new();
    for (s, engine) in engines.iter().enumerate() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            shard_id: (layout == Layout::Cluster).then_some(s as u64),
            ..ServerConfig::default()
        };
        servers.push(start(Arc::clone(engine), &config).map_err(|e| format!("start server: {e}"))?);
    }
    let shard_addrs: Vec<SocketAddr> = servers.iter().map(ServerHandle::addr).collect();
    let (addr, cluster, engine) = if layout == Layout::Cluster {
        let cluster = lshe_cluster::start(ClusterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: shard_addrs.clone(),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            hedge_after: Duration::from_secs(10),
            probe_interval: Duration::from_secs(60),
        })?;
        (cluster.addr(), Some(cluster), None)
    } else {
        (shard_addrs[0], None, engines.into_iter().next())
    };
    let served = Served {
        addr,
        engine,
        shard_addrs: if layout == Layout::Cluster {
            shard_addrs
        } else {
            Vec::new()
        },
        servers,
        cluster,
        dir: dir.to_owned(),
    };
    warm(&served, corpus, warmup)?;
    let t4 = Instant::now();
    Ok(Setup {
        served,
        times: SetupTimes {
            total_s: (t4 - t0).as_secs_f64(),
            build_s: (t1 - t0).as_secs_f64(),
            persist_s: (t2 - t1).as_secs_f64(),
            open_ms: (t3 - t2).as_secs_f64() * 1e3,
        },
        before_load,
    })
}

/// The untimed warm-up pass (charged to set-up): every warm-up request
/// once, each of which must succeed.
fn warm(served: &Served, corpus: &Corpus, warmup: &[Pair]) -> Result<(), String> {
    let mut conn = Conn::connect(served.addr).map_err(|e| format!("connect: {e}"))?;
    for &pair in warmup {
        match conn.request("POST", "/query", &corpus.body(pair)) {
            Ok((200, _)) => {}
            Ok((status, body)) => return Err(format!("warm-up query answered {status}: {body}")),
            Err(e) => return Err(format!("warm-up query: {e}")),
        }
    }
    Ok(())
}

impl Served {
    /// Addresses of every server process: the shards of a cluster, or the
    /// one server.
    #[must_use]
    pub fn server_addrs(&self) -> Vec<SocketAddr> {
        if self.shard_addrs.is_empty() {
            vec![self.addr]
        } else {
            self.shard_addrs.clone()
        }
    }

    /// Stops every server and thread, then removes the files.
    pub fn teardown(self) {
        if let Some(cluster) = self.cluster {
            cluster.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
        drop(self.engine);
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Process counters read from `/proc/self`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Bytes this process caused to be sent to storage (`write_bytes`).
    pub write_bytes: u64,
    /// Resident set size, in KiB (`VmRSS`).
    pub rss_kb: u64,
    /// The file-backed part of it — mapped index pages and program text
    /// — in KiB (`RssFile`).
    pub rss_file_kb: u64,
    /// CPU time of every thread, user plus system, in clock ticks.
    pub cpu_ticks: u64,
    /// Machine-wide CPU ticks, and those stolen by the hypervisor
    /// (`/proc/stat`), for context: a figure measured while a neighbour
    /// held the cores reads slow.
    pub host_ticks: u64,
    /// See `host_ticks`.
    pub steal_ticks: u64,
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`).
pub const TICKS_PER_SECOND: f64 = 100.0;

impl Counters {
    /// Reads every counter.
    ///
    /// # Errors
    /// When `/proc/self` lacks them (a non-Linux host).
    pub fn read() -> Result<Self, String> {
        let io =
            std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("/proc/self/status: {e}"))?;
        let host = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        let cpu: Vec<u64> = host
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        Ok(Self {
            host_ticks: cpu.iter().sum(),
            steal_ticks: cpu.get(7).copied().unwrap_or(0),
            write_bytes: field(&io, "write_bytes:").ok_or("no write_bytes in /proc/self/io")?,
            rss_kb: field(&status, "VmRSS:").ok_or("no VmRSS in /proc/self/status")?,
            rss_file_kb: field(&status, "RssFile:").ok_or("no RssFile in /proc/self/status")?,
            cpu_ticks: process_cpu_ticks()?,
        })
    }
}

/// CPU time of every thread of this process so far, in clock ticks.
///
/// # Errors
/// When `/proc/self/stat` cannot be read or parsed.
pub fn process_cpu_ticks() -> Result<u64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    cpu_ticks(&stat).ok_or_else(|| "no utime/stime in /proc/self/stat".to_owned())
}

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// `utime + stime` from a `/proc/<pid>/stat` line (fields 14 and 15; the
/// command name in field 2 may hold spaces, so count from its `)`).
fn cpu_ticks(stat: &str) -> Option<u64> {
    let mut rest = stat[stat.rfind(')')? + 1..].split_whitespace().skip(11);
    Some(rest.next()?.parse::<u64>().ok()? + rest.next()?.parse::<u64>().ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_the_command_name() {
        let stat = "42 (a b) S 1 42 42 0 -1 4194304 100 0 0 0 250 31 0 0 20 0 5 0 1 2 3";
        assert_eq!(cpu_ticks(stat), Some(281));
        assert_eq!(cpu_ticks("garbage"), None);
    }

    #[test]
    fn proc_fields_parse() {
        assert_eq!(
            field("rchar: 5\nwrite_bytes: 8388608\n", "write_bytes:"),
            Some(8_388_608)
        );
        assert_eq!(
            field("VmPeak:\t  100 kB\nVmRSS:\t   2048 kB\n", "VmRSS:"),
            Some(2048)
        );
        assert_eq!(field("", "VmRSS:"), None);
    }

    #[test]
    fn counters_see_a_written_and_synced_file() {
        let dir = std::path::PathBuf::from(format!(".perfbench-test-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let before = Counters::read().expect("counters");
        let path = dir.join("f");
        let file = std::fs::File::create(&path).expect("create");
        std::io::Write::write_all(&mut &file, &vec![7u8; 1 << 20]).expect("write");
        file.sync_all().expect("sync");
        let after = Counters::read().expect("counters");
        std::fs::remove_dir_all(&dir).ok();
        assert!(after.write_bytes - before.write_bytes >= 1 << 20);
        assert!(after.rss_kb > 0);
    }
}
