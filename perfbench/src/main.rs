//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <tcp_mux|tcp_churn|udp_chunks|container_v2>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded closed-loop workload against the real stack — the
//! server in a child process of its own, the load from this one (at most
//! 2 threads, at most 2 connections, loopback only) — checks every output
//! byte-exact, and prints one JSON object as the last line of stdout:
//! with `--trace 0` the gated end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a traced run and the tracing overhead. `report`
//! lines before it record the run environment (nproc, host steal share,
//! load-generator CPU, seed, op count, latency tail) and the end-to-end
//! metrics that are reported but not gated. See `DESIGN.md`.

mod container_v2;
mod gen;
mod ladder;
mod measure;
mod server;
mod tcp_churn;
mod tcp_mux;
mod trace;
mod udp_chunks;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TcpMux,
    TcpChurn,
    UdpChunks,
    ContainerV2,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::TcpMux,
        Workload::TcpChurn,
        Workload::UdpChunks,
        Workload::ContainerV2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpMux => "tcp_mux",
            Workload::TcpChurn => "tcp_churn",
            Workload::UdpChunks => "udp_chunks",
            Workload::ContainerV2 => "container_v2",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Paths that never lose data: any failed op there is a defect.
    fn lossless(self) -> bool {
        self != Workload::UdpChunks
    }
}

/// What a closed loop did. An op is one `Data` request on `tcp_mux`, one
/// request of any kind on `tcp_churn`, one chunk on `udp_chunks`, one
/// `seal_v2`/`open_v2` call on `container_v2`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Ops completed and verified.
    pub completed: u64,
    /// Replies whose bytes differ from the generated plaintext.
    pub mismatched: u64,
    /// Ops the server refused.
    pub refused: u64,
    /// Datagram chunks that never came back.
    pub missing: u64,
    /// Plaintext bytes sealed plus opened.
    pub bytes: u64,
    /// Per request, µs from send to reply.
    pub latencies_us: Vec<f64>,
}

impl Outcome {
    /// Records a verified op whose request took `latency`.
    pub fn ok(&mut self, bytes: usize, latency: Duration) {
        self.completed += 1;
        self.bytes += bytes as u64;
        self.latencies_us.push(latency.as_secs_f64() * 1e6);
    }

    pub fn merge(&mut self, o: Outcome) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.mismatched += o.mismatched;
        self.refused += o.refused;
        self.missing += o.missing;
        self.bytes += o.bytes;
        self.latencies_us.extend(o.latencies_us);
    }

    /// Ops that did not complete, and whether every output checked out.
    fn failures(&self, w: Workload) -> (u64, bool) {
        let failed = self.attempted - self.completed;
        (
            failed,
            self.mismatched == 0 && (!w.lossless() || failed == 0),
        )
    }
}

enum Bench {
    Mux(tcp_mux::Bench),
    Churn(tcp_churn::Bench),
    Udp(udp_chunks::Bench),
    Container(container_v2::Bench),
}

impl Bench {
    fn setup(w: Workload, seed: u64, tr: &mut Tracer) -> io::Result<Bench> {
        Ok(match w {
            Workload::TcpMux => Bench::Mux(tcp_mux::setup(seed, tr)?),
            Workload::TcpChurn => Bench::Churn(tcp_churn::setup(seed, tr)?),
            Workload::UdpChunks => Bench::Udp(udp_chunks::setup(seed, tr)?),
            Workload::ContainerV2 => Bench::Container(container_v2::setup(seed, tr)?),
        })
    }

    /// The process whose CPU and memory are the system under test's.
    fn sut_pid(&self) -> String {
        match self {
            Bench::Mux(b) => b.server.pid.clone(),
            Bench::Churn(b) => b.server.pid.clone(),
            Bench::Udp(b) => b.server.pid.clone(),
            Bench::Container(_) => "self".into(),
        }
    }

    fn run(&mut self, seconds: f64, tr: &mut Tracer) -> io::Result<Outcome> {
        match self {
            Bench::Mux(b) => b.run(seconds, tr),
            Bench::Churn(b) => b.run(seconds, tr),
            Bench::Udp(b) => b.run(seconds, tr),
            Bench::Container(b) => b.run(seconds, tr),
        }
    }

    /// Stops the server (if any) and returns its `ServerStats`.
    fn finish(self) -> io::Result<BTreeMap<String, u64>> {
        match self {
            Bench::Mux(b) => b.finish(),
            Bench::Churn(b) => b.finish(),
            Bench::Udp(b) => b.finish(),
            Bench::Container(_) => Ok(BTreeMap::new()),
        }
    }
}

/// Every end-to-end metric, by name, with its unit. The first four are
/// gated; wall-clock goodput and p50 followed host steal by more than a
/// tenth from run to run on this class of host, so they are reported in
/// the run report instead (see `DESIGN.md`).
const END_TO_END: [(&str, &str); 6] = [
    ("cpu_us_per_op", "us"),
    ("success_ratio", "ratio"),
    ("rss_mib", "MiB"),
    ("setup_s", "s"),
    ("goodput_mib_s", "MiB/s"),
    ("req_p50_us", "us"),
];
const GATED: usize = 4;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One measured closed-loop run.
struct Measured {
    setup_s: Vec<f64>,
    outcome: Outcome,
    wall_s: f64,
    sut_cpu_s: f64,
    loadgen_cpu_s: f64,
    steal_share: f64,
    rss_kib: u64,
    stats: BTreeMap<String, u64>,
}

/// Sets the workload up `setups` times (keeping the last), then runs its
/// closed loop for `seconds` while sampling CPU and host steal.
fn measure_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    tr: &mut Tracer,
) -> io::Result<Measured> {
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..setups {
        if let Some(old) = bench.take() {
            Bench::finish(old)?;
        }
        let t0 = Instant::now();
        bench = Some(Bench::setup(w, seed, tr)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let pid = bench.sut_pid();
    let (steal0, total0) = measure::host_ticks();
    let (sut0, gen0) = (measure::process_cpu_s(&pid), measure::process_cpu_s("self"));
    let t0 = Instant::now();
    let outcome = bench.run(seconds, tr)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (sut1, gen1) = (measure::process_cpu_s(&pid), measure::process_cpu_s("self"));
    let (steal1, total1) = measure::host_ticks();
    let rss_kib = measure::status_kib(&pid, "VmHWM");
    let stats = bench.finish()?;
    Ok(Measured {
        setup_s,
        outcome,
        wall_s,
        sut_cpu_s: sut1 - sut0,
        loadgen_cpu_s: gen1 - gen0,
        steal_share: (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
        rss_kib,
        stats,
    })
}

impl Measured {
    /// The values of [`END_TO_END`], in order.
    fn end_to_end(&self) -> [f64; 6] {
        let o = &self.outcome;
        [
            self.sut_cpu_s * 1e6 / o.completed.max(1) as f64,
            o.completed as f64 / o.attempted.max(1) as f64,
            self.rss_kib as f64 / 1024.0,
            measure::median(&self.setup_s),
            o.bytes as f64 / self.wall_s / f64::from(1 << 20),
            if o.latencies_us.is_empty() {
                f64::NAN
            } else {
                measure::median(&o.latencies_us)
            },
        ]
    }

    fn report(&self, w: Workload, seed: u64, phase: &str) -> String {
        let o = &self.outcome;
        let mut s = format!(
            "{{\"report\": {{\"workload\": \"{}\", \"phase\": \"{phase}\", \"seed\": {seed}, \
             \"nproc\": {}, \"wall_s\": {}, \"ops_attempted\": {}, \"ops_completed\": {}, \
             \"mismatched\": {}, \"refused\": {}, \"missing\": {}, \"steal_share\": {}, \
             \"sut_cpu_s\": {}, \"loadgen_cpu_s\": {}, \"setup_runs_s\": {:?}",
            w.name(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            self.wall_s,
            o.attempted,
            o.completed,
            o.mismatched,
            o.refused,
            o.missing,
            self.steal_share,
            self.sut_cpu_s,
            self.loadgen_cpu_s,
            self.setup_s,
        );
        if let Some(l) = measure::latency(o.latencies_us.clone()) {
            let _ = write!(
                s,
                ", \"req_tail_pct\": {}, \"req_tail_us\": {}, \"req_samples\": {}",
                l.tail_pct, l.tail, l.samples
            );
        }
        let values = self.end_to_end();
        let _ = write!(s, ", \"end_to_end\": {{{}}}", metrics_json(&named(&values)));
        let stats: Vec<String> = self
            .stats
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = write!(s, ", \"server_stats\": {{{}}}}}}}", stats.join(", "));
        s
    }
}

fn named(values: &[f64; 6]) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), &v)| (n, u, v))
        .collect()
}

/// The per-layer metrics a traced run reports, with their units; the
/// last six are the tracing overhead of each end-to-end metric: the
/// share by which the traced value is worse than the untraced one.
const PER_LAYER: [(&str, &str); 40] = [
    ("lfsr.source_new_us", "us"),
    ("block.span_table_new_us", "us"),
    ("session.setup_us", "us"),
    ("session.encrypt_ns_per_byte", "ns/B"),
    ("session.decrypt_ns_per_byte", "ns/B"),
    ("lanes.seal_ns_per_byte", "ns/B"),
    ("lanes.open_ns_per_byte", "ns/B"),
    ("gateway.open_us", "us"),
    ("gateway.submit_batch_us", "us"),
    ("gateway.submit_batch_ns_per_byte", "ns/B"),
    ("gateway.seal_chunk_us", "us"),
    ("gateway.open_chunk_us", "us"),
    ("gateway.rekey_us", "us"),
    ("gateway.evict_us", "us"),
    ("gateway.restore_us", "us"),
    ("gateway.snapshot_bytes", "B"),
    ("pipeline.map_dispatch_us", "us"),
    ("container.seal_ns_per_byte", "ns/B"),
    ("container.open_ns_per_byte", "ns/B"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("crc.ns_per_byte", "ns/B"),
    ("client.send_us", "us"),
    ("client.wait_us", "us"),
    ("client.decode_us", "us"),
    ("client.kex_open_us", "us"),
    ("dgram.exchange_us", "us"),
    ("dgram.wait_us", "us"),
    ("dgram.missing_ratio", "ratio"),
    ("server.frames_per_op", "count"),
    ("server.dgram_rejected_per_op", "count"),
    ("server.streams_resumed", "count"),
    ("mem.kib_per_live_stream", "KiB"),
    ("mem.kib_per_parked_stream", "KiB"),
    ("trace.overhead.cpu_us_per_op", "ratio"),
    ("trace.overhead.success_ratio", "ratio"),
    ("trace.overhead.rss_mib", "ratio"),
    ("trace.overhead.setup_s", "ratio"),
    ("trace.overhead.goodput_mib_s", "ratio"),
    ("trace.overhead.req_p50_us", "ratio"),
];

/// `"name": {"value": v, "unit": u}` entries; a value that could not be
/// measured (no samples) is `null`.
fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            assert!(measure::valid_metric_name(name), "bad metric name {name}");
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    body.join(", ")
}

/// The last line of a run, and whether every output checked out.
struct RunResult {
    line: String,
    correct: bool,
}

impl RunResult {
    fn new(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> RunResult {
        for (name, _, v) in metrics {
            assert!(v.is_finite(), "metric {name} is not a number: {v}");
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics_json(metrics)
        );
        RunResult { line, correct }
    }
}

fn untraced(w: Workload, seed: u64, seconds: f64) -> io::Result<RunResult> {
    let mut tr = Tracer::new(false, Instant::now());
    let m = measure_run(w, seed, seconds, SETUPS, &mut tr)?;
    println!("{}", m.report(w, seed, "untraced"));
    let (failed, correct) = m.outcome.failures(w);
    let metrics = named(&m.end_to_end());
    Ok(RunResult::new(
        correct,
        m.outcome.attempted,
        failed,
        &metrics[..GATED],
    ))
}

/// What a traced closed loop left behind: spans, outcome, `ServerStats`.
type Traced = (Tracer, Outcome, BTreeMap<String, u64>);

/// A short traced closed loop of another workload, for client layers the
/// measured workload never calls.
fn probe(w: Workload, seed: u64, epoch: Instant) -> io::Result<Traced> {
    let mut tr = Tracer::new(true, epoch);
    let mut b = Bench::setup(w, seed, &mut tr)?;
    let o = b.run(0.5, &mut tr)?;
    let stats = b.finish()?;
    Ok((tr, o, stats))
}

/// KiB of RSS per (live, parked) stream, from a fresh child process so
/// earlier allocations cannot hide the growth.
fn mem_probe(seed: u64) -> io::Result<(f64, f64)> {
    let out = Command::new(std::env::current_exe()?)
        .args(["mem-probe", "--seed", &seed.to_string()])
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let v: Vec<f64> = text
        .trim()
        .strip_prefix("mem ")
        .map(|r| {
            r.split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    match v[..] {
        [live, parked] if out.status.success() => Ok((live, parked)),
        _ => Err(io::Error::other(format!("mem probe failed: {text:?}"))),
    }
}

/// The traced run: the workload untraced and then traced for half the
/// time each (the difference is the tracing overhead), then the layer
/// ladder on the workload's inputs, short probes for client layers the
/// workload never calls, and the memory probe.
fn traced(w: Workload, seed: u64, seconds: f64) -> io::Result<RunResult> {
    let epoch = Instant::now();
    let u = measure_run(w, seed, seconds / 2.0, 1, &mut Tracer::new(false, epoch))?;
    println!("{}", u.report(w, seed, "untraced"));
    let mut tr = Tracer::new(true, epoch);
    let t = measure_run(w, seed, seconds / 2.0, 1, &mut tr)?;
    println!("{}", t.report(w, seed, "traced"));

    let mut ladder_failures = 0;
    let mut layer = ladder::run(&ladder::inputs(w, seed), &mut tr, &mut ladder_failures);

    let churn = match tr.mean_us("client.kex_open") {
        None => Some(probe(Workload::TcpChurn, seed, epoch)?),
        Some(_) => None,
    };
    let udp = match tr.mean_us("dgram.exchange") {
        None => Some(probe(Workload::UdpChunks, seed, epoch)?),
        Some(_) => None,
    };
    let client = match (&churn, tr.mean_us("client.wait")) {
        (Some((probe_tr, ..)), None) => probe_tr,
        _ => &tr,
    };
    let kex = churn.as_ref().map_or(&tr, |c| &c.0);
    let (dgram, dgram_out, dgram_stats) = match &udp {
        Some((d, o, s)) => (d, o, s),
        None => (&tr, &t.outcome, &t.stats),
    };
    for (metric, from, span) in [
        ("client.send_us", client, "client.send"),
        ("client.wait_us", client, "client.wait"),
        ("client.decode_us", client, "client.decode"),
        ("client.kex_open_us", kex, "client.kex_open"),
        ("dgram.exchange_us", dgram, "dgram.exchange"),
        ("dgram.wait_us", dgram, "dgram.wait"),
    ] {
        let v = from
            .mean_us(span)
            .ok_or_else(|| io::Error::other(format!("no {span} spans")))?;
        layer.insert(metric, v);
    }
    layer.insert(
        "dgram.missing_ratio",
        dgram_out.missing as f64 / dgram_out.attempted.max(1) as f64,
    );

    let stat = |k: &str| t.stats.get(k).copied().unwrap_or(0) as f64;
    let ops = t.outcome.completed.max(1) as f64;
    let frames = stat("frames_received")
        + stat("frames_sent")
        + stat("dgram_packets_received")
        + stat("dgram_packets_sent");
    layer.insert("server.frames_per_op", frames / ops);
    let rejected = dgram_stats.get("dgram_rejected").copied().unwrap_or(0) as f64;
    let dgram_ops = dgram_out.completed.max(1) as f64;
    layer.insert("server.dgram_rejected_per_op", rejected / dgram_ops);
    layer.insert("server.streams_resumed", stat("streams_resumed"));
    let (live, parked) = mem_probe(seed)?;
    layer.insert("mem.kib_per_live_stream", live);
    layer.insert("mem.kib_per_parked_stream", parked);

    let (ue, te) = (u.end_to_end(), t.end_to_end());
    let mut rows = Vec::new();
    for (i, &(name, _)) in END_TO_END.iter().enumerate() {
        // How much worse the traced value is, whichever way is better.
        let higher_is_better = matches!(name, "success_ratio" | "goodput_mib_s");
        let change = if higher_is_better {
            ue[i] / te[i] - 1.0
        } else {
            te[i] / ue[i] - 1.0
        };
        layer.insert(PER_LAYER[PER_LAYER.len() - 6 + i].0, change);
        rows.push(format!(
            "\"{name}\": {{\"untraced\": {}, \"traced\": {}, \"change\": {change}}}",
            ue[i], te[i]
        ));
    }
    println!("{{\"tracing_overhead\": {{{}}}}}", rows.join(", "));

    let rows: Vec<String> = tr
        .summary()
        .into_iter()
        .map(|(name, (n, total, own))| {
            format!(
                "\"{name}\": {{\"count\": {n}, \"total_us\": {total}, \"self_us\": {own}, \
                 \"self_mean_us\": {}}}",
                own / n as f64
            )
        })
        .collect();
    println!(
        "{{\"self_time\": {{{}}}, \"spans_dropped\": {}}}",
        rows.join(", "),
        tr.dropped
    );
    tr.write_tsv(&PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{seed}.tsv",
        w.name()
    )))?;

    let (uf, uc) = u.outcome.failures(w);
    let (tf, tc) = t.outcome.failures(w);
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(n, unit)| (n, unit, layer[n]))
        .collect();
    Ok(RunResult::new(
        uc && tc && ladder_failures == 0,
        u.outcome.attempted + t.outcome.attempted,
        uf + tf + ladder_failures,
        &metrics,
    ))
}

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    let mode = match it.peek().map(String::as_str) {
        Some("serve" | "mem-probe") => it.next().expect("peeked"),
        _ => "run".into(),
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s >= 1).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if mode == "run" && (seconds.is_none() || trace.is_none()) {
        return Err("--seconds and --trace are required".into());
    }
    if mode != "mem-probe" && workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(Args {
        mode,
        workload: workload.unwrap_or(Workload::TcpMux),
        seed,
        seconds: seconds.unwrap_or(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds as f64);
    let result = match args.mode.as_str() {
        "serve" => {
            return server::serve(w, seed).map_or_else(
                |e| {
                    eprintln!("perfbench serve: {e}");
                    ExitCode::from(3)
                },
                |()| ExitCode::SUCCESS,
            )
        }
        "mem-probe" => {
            ladder::mem_probe(seed);
            return ExitCode::SUCCESS;
        }
        _ if args.trace => traced(w, seed, seconds),
        _ => untraced(w, seed, seconds),
    };
    match result {
        Ok(r) => {
            println!("{}", r.line);
            if r.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: outputs did not check out");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name());
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed here are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn metrics_match_the_benchmark_declaration() {
        let decl = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END[..GATED].iter().chain(&PER_LAYER) {
            assert!(measure::valid_metric_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(decl.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        for (name, _) in &END_TO_END[GATED..] {
            assert!(
                !decl.contains(&format!("\"{name}\"")),
                "{name} is not gated"
            );
        }
        // `udp_chunks` stays runnable and feeds the datagram layers of
        // every traced run, but is not a declared workload (DESIGN.md).
        let declared: Vec<Workload> = Workload::ALL
            .into_iter()
            .filter(|w| decl.contains(&format!("\"name\": \"{}\"", w.name())))
            .collect();
        assert_eq!(
            declared,
            [Workload::TcpMux, Workload::TcpChurn, Workload::ContainerV2]
        );
    }
}
