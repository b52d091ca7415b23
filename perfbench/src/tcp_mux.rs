//! `tcp_mux` — steady-state serving: 2 connections carry 4096 long-lived
//! streams over 4 pre-shared key ids, each connection keeping a deep
//! pipelined window. Every stream alternates a seal of a seeded message
//! (64 B–16 KiB, log-uniform) with an open of the ciphertext that seal
//! returned, and the opened bytes are checked against the message.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mhhea_net::frame::{self, flags, FrameKind, Hello};

use crate::gen::{self, Rng};
use crate::server::ServerProc;
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, Workload};

const STREAMS: usize = 4096;
const CONNECTIONS: usize = 2;
const MESSAGES_PER_CONN: usize = 1024;
/// Most requests one connection keeps in flight.
pub const WINDOW: usize = 256;
/// Bound on request bytes plus worst-case reply bytes in flight per
/// connection. It stays below the server's default 4 MiB
/// `write_buf_limit`, so the server never stops reading a connection to
/// let its replies drain.
const INFLIGHT_BYTES: usize = 3 << 20;

/// The generated inputs of one seed.
pub struct Inputs {
    /// Per connection: (stream id, key id, LFSR seed) of its streams.
    pub streams: Vec<Vec<(u64, u32, u16)>>,
    /// Per connection: the messages its seals cycle through.
    pub messages: Vec<Vec<Vec<u8>>>,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, "tcp_mux");
    let mut key_ids: Vec<u32> = (0..STREAMS).map(|i| (i % 4) as u32 + 1).collect();
    rng.shuffle(&mut key_ids);
    let mut streams = vec![Vec::new(); CONNECTIONS];
    for (i, key_id) in key_ids.into_iter().enumerate() {
        // Distinct ids: the index keeps them unique, the draw spreads them.
        let id = (rng.next_u64() & !0xFFFF) | i as u64;
        streams[i % CONNECTIONS].push((id, key_id, rng.seed16()));
    }
    let messages = (0..CONNECTIONS)
        .map(|_| {
            let sizes = rng.stratified(MESSAGES_PER_CONN, |q| gen::log_size(q, 64, 16 << 10));
            sizes.into_iter().map(|len| rng.bytes(len)).collect()
        })
        .collect();
    Inputs { streams, messages }
}

pub struct Bench {
    pub server: ServerProc,
    inputs: Inputs,
    conns: Vec<TcpStream>,
}

pub fn setup(seed: u64, tr: &mut Tracer) -> io::Result<Bench> {
    let inputs = inputs(seed);
    let server = ServerProc::spawn(Workload::TcpMux, seed)?;
    let mut conns = Vec::new();
    for streams in &inputs.streams {
        let mut sock = TcpStream::connect(server.tcp)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(Duration::from_secs(30)))?;
        // Open the streams pipelined: all Hellos in one write, then the
        // acks, so set-up measures session construction, not round trips.
        let span = tr.begin("tcp.hello_batch", SpanId::NONE, 0);
        let mut out = Vec::new();
        for &(id, key_id, lfsr_seed) in streams {
            let hello = Hello::new(key_id, lfsr_seed).encode();
            frame::encode_raw(&mut out, FrameKind::Hello, 0, id, 0, &hello);
        }
        sock.write_all(&out)?;
        let mut reader = FrameReader::default();
        for &(id, ..) in streams {
            let f = reader.next_blocking(&mut sock)?;
            if f.kind != FrameKind::HelloAck || f.stream != id {
                return Err(io::Error::other(format!("stream {id} not opened: {f:?}")));
            }
        }
        tr.end(span);
        conns.push(sock);
    }
    Ok(Bench {
        server,
        inputs,
        conns,
    })
}

impl Bench {
    pub fn run(&mut self, seconds: f64, tr: &mut Tracer) -> io::Result<Outcome> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let epoch_tr = tr.on();
        let results: Vec<io::Result<(Outcome, Tracer)>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&self.inputs.streams)
                .zip(&self.inputs.messages)
                .map(|((sock, streams), messages)| {
                    let mut local = Tracer::new(epoch_tr, tr.epoch());
                    s.spawn(move || {
                        drive(sock, streams, messages, deadline, &mut local).map(|o| (o, local))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        });
        let mut total = Outcome::default();
        for r in results {
            let (o, local) = r?;
            total.merge(o);
            tr.absorb(local);
        }
        Ok(total)
    }

    pub fn finish(self) -> io::Result<std::collections::BTreeMap<String, u64>> {
        drop(self.conns);
        self.server.stop()
    }
}

/// Incremental frame parser over a byte buffer.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    fn next_frame(&mut self) -> io::Result<Option<frame::Frame>> {
        match frame::decode(&self.buf[self.pos..]) {
            Ok(Some((f, used))) => {
                self.pos += used;
                Ok(Some(f))
            }
            Ok(None) => {
                if self.pos > 0 {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                Ok(None)
            }
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Reads what the socket has; `Ok(false)` when it would block.
    fn fill(&mut self, sock: &mut TcpStream) -> io::Result<bool> {
        let mut scratch = [0u8; 64 << 10];
        match sock.read(&mut scratch) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.buf.extend_from_slice(&scratch[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e),
        }
    }

    fn next_blocking(&mut self, sock: &mut TcpStream) -> io::Result<frame::Frame> {
        loop {
            if let Some(f) = self.next_frame()? {
                return Ok(f);
            }
            self.fill(sock)?;
        }
    }
}

#[derive(Clone, Copy)]
enum Pending {
    Seal { msg: usize },
    Open { msg: usize },
}

impl Pending {
    /// Request bytes plus worst-case reply bytes, for a request carrying
    /// `payload` bytes: a sealed reply can carry 16 bytes per plaintext
    /// byte (one 16-bit block per bit at span width 1).
    fn cost(self, payload: usize, messages: &[Vec<u8>]) -> usize {
        2 * frame::HEADER_LEN
            + payload
            + match self {
                Pending::Seal { .. } => 4 + 16 * payload,
                Pending::Open { msg } => messages[msg].len(),
            }
    }
}

struct Slot {
    id: u64,
    seq: u64,
    /// The request in flight, when it was queued, and its root span.
    pending: Option<(Pending, Instant, SpanId)>,
    /// The last seal reply payload (`bit_len ∥ blocks`), to open next.
    sealed: Option<(usize, Vec<u8>)>,
}

/// One connection's closed loop: keep the window full until the
/// deadline, then drain every request still in flight.
fn drive(
    sock: &mut TcpStream,
    streams: &[(u64, u32, u16)],
    messages: &[Vec<u8>],
    deadline: Instant,
    tr: &mut Tracer,
) -> io::Result<Outcome> {
    sock.set_nonblocking(true)?;
    let mut slots: Vec<Slot> = streams
        .iter()
        .map(|&(id, ..)| Slot {
            id,
            seq: 0,
            pending: None,
            sealed: None,
        })
        .collect();
    let index: HashMap<u64, usize> = slots.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut idle: VecDeque<usize> = (0..slots.len()).collect();
    let mut reader = FrameReader::default();
    let (mut wbuf, mut wpos) = (Vec::<u8>::new(), 0usize);
    let (mut inflight, mut inflight_bytes, mut next_msg) = (0usize, 0usize, 0usize);
    let mut out = Outcome::default();
    let mut req_id = 0u64;
    let mut stopping = false;
    loop {
        let mut progress = false;
        if !stopping && Instant::now() >= deadline {
            stopping = true;
        }
        while !stopping && inflight < WINDOW {
            let Some(&i) = idle.front() else { break };
            let slot = &mut slots[i];
            let (pending, payload, dir) = match &slot.sealed {
                Some((msg, blocks)) => (Pending::Open { msg: *msg }, blocks, flags::DIR_OPEN),
                None => {
                    let msg = next_msg % messages.len();
                    (Pending::Seal { msg }, &messages[msg], 0)
                }
            };
            let cost = pending.cost(payload.len(), messages);
            if inflight > 0 && inflight_bytes + cost > INFLIGHT_BYTES {
                break;
            }
            idle.pop_front();
            if matches!(pending, Pending::Seal { .. }) {
                next_msg += 1;
            }
            req_id += 1;
            let root = tr.begin("tcp.request", SpanId::NONE, req_id);
            let send = tr.begin("client.send", root, req_id);
            frame::encode_raw(&mut wbuf, FrameKind::Data, dir, slot.id, slot.seq, payload);
            tr.end(send);
            slot.seq += 1;
            slot.pending = Some((pending, Instant::now(), root));
            inflight += 1;
            inflight_bytes += cost;
            out.attempted += 1;
        }
        if wpos < wbuf.len() {
            let span = tr.begin("client.write", SpanId::NONE, 0);
            match sock.write(&wbuf[wpos..]) {
                Ok(n) => {
                    wpos += n;
                    progress |= n > 0;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            tr.end(span);
            if wpos == wbuf.len() {
                wbuf.clear();
                wpos = 0;
            }
        }
        if inflight > 0 {
            progress |= reader.fill(sock)?;
        }
        while let Some(f) = reader.next_frame()? {
            progress = true;
            let Some(&i) = index.get(&f.stream) else {
                return Err(io::Error::other(format!("reply for unknown stream: {f:?}")));
            };
            let slot = &mut slots[i];
            let Some((pending, sent, root)) = slot.pending.take() else {
                return Err(io::Error::other("reply with nothing pending"));
            };
            let now = Instant::now();
            tr.record("client.wait", root, 0, sent, now);
            let decode = tr.begin("client.decode", root, 0);
            inflight -= 1;
            if f.kind != FrameKind::Reply || f.seq != slot.seq - 1 {
                out.refused += 1;
                return Err(io::Error::other(format!("request refused: {f:?}")));
            }
            match pending {
                Pending::Seal { msg } => {
                    let m = &messages[msg];
                    inflight_bytes -= pending.cost(m.len(), messages);
                    let bits = (8 * m.len() as u32).to_le_bytes();
                    if f.payload.get(..4) == Some(&bits[..]) && f.payload.len() % 2 == 0 {
                        out.ok(m.len(), now - sent);
                        slot.sealed = Some((msg, f.payload));
                    } else {
                        out.mismatched += 1;
                    }
                }
                Pending::Open { msg } => {
                    let m = &messages[msg];
                    let blocks = slot.sealed.take().map_or(0, |(_, b)| b.len());
                    inflight_bytes -= pending.cost(blocks, messages);
                    if f.payload == *m {
                        out.ok(m.len(), now - sent);
                    } else {
                        out.mismatched += 1;
                    }
                }
            }
            tr.end(decode);
            tr.end(root);
            idle.push_back(i);
        }
        if stopping && inflight == 0 {
            break;
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    sock.set_nonblocking(false)?;
    Ok(out)
}
