//! `udp_chunks` — MHNP-D: a few TCP-opened streams attached to the
//! datagram path by token, one exchange in flight. Each exchange seals a
//! seeded message of 1–8 chunks (64–1024 B each) and opens the delivered
//! chunks back, checking every byte. Each chunk builds a one-shot session
//! server-side, so per-packet setup, the replay window and per-chunk
//! syscalls dominate; loss shows in `success_ratio`.

use std::io;
use std::time::{Duration, Instant};

use mhhea_net::client::NetClient;
use mhhea_net::dgram::{DgramClient, DGRAM_MAX_CHUNK_BYTES};
use mhhea_net::frame::Hello;

use crate::gen::{self, Rng};
use crate::server::ServerProc;
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, Workload};

const STREAMS: usize = 4;
const MESSAGES: usize = 512;
/// At most 8 chunks in flight: their replies (≤ 16 KiB each) fit the
/// loopback socket buffers, so the path itself drops nothing.
const MAX_CHUNKS: usize = 8;

pub struct Inputs {
    /// (stream id, key id, LFSR seed).
    pub streams: Vec<(u64, u32, u16)>,
    pub messages: Vec<Vec<u8>>,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, "udp_chunks");
    let streams = (0..STREAMS)
        .map(|i| (rng.next_u64() | 1, i as u32 + 1, rng.seed16()))
        .collect();
    let chunks = rng.stratified(MESSAGES, |q| gen::uniform(q, 1, MAX_CHUNKS));
    let last = rng.stratified(MESSAGES, |q| gen::uniform(q, 64, DGRAM_MAX_CHUNK_BYTES));
    let messages = chunks
        .iter()
        .zip(&last)
        .map(|(&n, &last)| rng.bytes((n - 1) * DGRAM_MAX_CHUNK_BYTES + last))
        .collect();
    Inputs { streams, messages }
}

pub struct Bench {
    pub server: ServerProc,
    inputs: Inputs,
    /// Holds the streams open on TCP while the datagram path serves them.
    tcp: NetClient,
    dgram: DgramClient,
    next: usize,
    /// Per stream, the chunk index the client assigns next: indices count
    /// up from 0 after attach, one per sealed chunk.
    next_index: [u32; STREAMS],
}

pub fn setup(seed: u64, tr: &mut Tracer) -> io::Result<Bench> {
    let inputs = inputs(seed);
    let server = ServerProc::spawn(Workload::UdpChunks, seed)?;
    let udp = server
        .udp
        .ok_or_else(|| io::Error::other("no datagram port"))?;
    let mut tcp = NetClient::connect(server.tcp).map_err(io::Error::other)?;
    let mut dgram = DgramClient::connect(udp).map_err(io::Error::other)?;
    for &(id, key_id, lfsr_seed) in &inputs.streams {
        let span = tr.begin("tcp.hello", SpanId::NONE, 0);
        let token = tcp
            .open_stream(id, Hello::new(key_id, lfsr_seed))
            .map_err(io::Error::other)?;
        tr.end(span);
        let span = tr.begin("dgram.attach", SpanId::NONE, 0);
        dgram.attach(id, token).map_err(io::Error::other)?;
        tr.end(span);
    }
    Ok(Bench {
        server,
        inputs,
        tcp,
        dgram,
        next: 0,
        next_index: [0; STREAMS],
    })
}

impl Bench {
    pub fn run(&mut self, seconds: f64, tr: &mut Tracer) -> io::Result<Outcome> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut out = Outcome::default();
        while Instant::now() < deadline {
            let n = self.next;
            self.next += 1;
            let (stream, ..) = self.inputs.streams[n % STREAMS];
            let first = self.next_index[n % STREAMS];
            let message = &self.inputs.messages[n % MESSAGES];
            let chunks: Vec<&[u8]> = message.chunks(DGRAM_MAX_CHUNK_BYTES).collect();
            self.next_index[n % STREAMS] += chunks.len() as u32;
            out.attempted += chunks.len() as u64;
            let root = tr.begin("dgram.exchange", SpanId::NONE, n as u64);

            let span = tr.begin("dgram.wait", root, n as u64);
            let start = Instant::now();
            let sealed = self.dgram.seal(stream, message).map_err(io::Error::other)?;
            out.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            tr.end(span);

            let span = tr.begin("dgram.wait", root, n as u64);
            let start = Instant::now();
            let opened = self
                .dgram
                .open(stream, &sealed.delivered)
                .map_err(io::Error::other)?;
            out.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            tr.end(span);

            let span = tr.begin("dgram.verify", root, n as u64);
            out.missing += (sealed.missing.len() + opened.missing.len()) as u64;
            out.refused += (sealed.rejected.len() + opened.rejected.len()) as u64;
            for chunk in &opened.delivered {
                let k = chunk.index.wrapping_sub(first) as usize;
                if chunks.get(k) == Some(&chunk.plain.as_slice()) {
                    out.completed += 1;
                    out.bytes += 2 * chunk.plain.len() as u64;
                } else {
                    out.mismatched += 1;
                }
            }
            tr.end(span);
            tr.end(root);
        }
        Ok(out)
    }

    pub fn finish(self) -> io::Result<std::collections::BTreeMap<String, u64>> {
        drop(self.tcp);
        self.server.stop()
    }
}
