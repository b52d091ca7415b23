//! The system under test in a process of its own, so its CPU
//! (`/proc/<pid>/stat`) and peak RSS (`VmHWM`) are read apart from the
//! load generator.
//!
//! The benchmark re-executes its own binary as `serve`: the child spawns
//! a `NetServer` on loopback with default `ServerConfig`, prints its
//! ports, and serves until its stdin closes; it then prints its
//! `ServerStats` and exits.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::Ordering;

use mhhea_net::server::{NetServer, ServerConfig, ServerStats};

use crate::gen;
use crate::Workload;

/// The configuration each workload serves with: defaults, plus only what
/// the workload needs.
fn config(workload: Workload, seed: u64) -> ServerConfig {
    let cfg = ServerConfig::new(gen::keyring(seed));
    match workload {
        Workload::TcpChurn => cfg.with_ephemeral_keys(),
        Workload::UdpChunks => cfg.with_dgram(),
        Workload::TcpMux | Workload::ContainerV2 => cfg,
    }
}

fn stats_lines(s: &ServerStats) -> Vec<(&'static str, u64)> {
    let r = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    vec![
        ("frames_received", r(&s.frames_received)),
        ("frames_sent", r(&s.frames_sent)),
        ("streams_opened", r(&s.streams_opened)),
        ("streams_evicted", r(&s.streams_evicted)),
        ("streams_resumed", r(&s.streams_resumed)),
        ("streams_rekeyed", r(&s.streams_rekeyed)),
        ("kex_completed", r(&s.kex_completed)),
        ("protocol_errors", r(&s.protocol_errors)),
        ("connections_opened", r(&s.connections_opened)),
        ("dgram_packets_received", r(&s.dgram_packets_received)),
        ("dgram_packets_sent", r(&s.dgram_packets_sent)),
        ("dgram_chunks", r(&s.dgram_chunks)),
        ("dgram_rejected", r(&s.dgram_rejected)),
    ]
}

/// Body of the `serve` child.
pub fn serve(workload: Workload, seed: u64) -> std::io::Result<()> {
    let handle = NetServer::spawn("127.0.0.1:0", config(workload, seed))?;
    let udp = handle.dgram_addr().map_or(0, |a| a.port());
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {} {udp}", handle.addr().port())?;
    out.flush()?;
    // Serve until the parent closes our stdin.
    std::io::stdin().read_to_end(&mut Vec::new())?;
    for (name, v) in stats_lines(handle.stats()) {
        writeln!(out, "stat {name} {v}")?;
    }
    handle.stop();
    writeln!(out, "end")?;
    out.flush()
}

/// The parent's view of a running `serve` child.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub pid: String,
    pub tcp: SocketAddr,
    pub udp: Option<SocketAddr>,
    reaped: bool,
}

impl ServerProc {
    pub fn spawn(workload: Workload, seed: u64) -> std::io::Result<ServerProc> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(["serve", "--workload", workload.name(), "--seed"])
            .arg(seed.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let ports: Vec<u16> = line
            .strip_prefix("ready ")
            .map(|r| {
                r.split_whitespace()
                    .filter_map(|p| p.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let pid = child.id().to_string();
        let mut proc = ServerProc {
            child,
            stdin,
            stdout,
            pid,
            tcp: ([127, 0, 0, 1], 0).into(),
            udp: None,
            reaped: false,
        };
        let [tcp, udp] = ports[..] else {
            return Err(std::io::Error::other(format!(
                "server child did not report ready: {line:?}"
            )));
        };
        proc.tcp = ([127, 0, 0, 1], tcp).into();
        proc.udp = (udp != 0).then(|| ([127, 0, 0, 1], udp).into());
        Ok(proc)
    }

    /// Closes the child's stdin, collects the `ServerStats` it prints on
    /// the way out, and waits for it to exit.
    pub fn stop(mut self) -> std::io::Result<BTreeMap<String, u64>> {
        drop(self.stdin.take());
        let mut stats = BTreeMap::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                break;
            }
            let mut f = line.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some("stat"), Some(name), Some(v)) => {
                    stats.insert(name.to_string(), v.parse().unwrap_or(0));
                }
                (Some("end"), ..) => break,
                _ => {}
            }
        }
        let status = self.child.wait()?;
        self.reaped = true;
        if !status.success() {
            return Err(std::io::Error::other(format!("server child {status}")));
        }
        Ok(stats)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
