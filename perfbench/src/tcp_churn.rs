//! `tcp_churn` — the stream lifecycle at light load: one request in
//! flight on one connection at a time. Each session opens (`Hello`, or
//! MHKX every 8th session), runs a few small seal/open round trips and
//! one `Rekey`; every 4th session drops its connection so the stream
//! parks, then `Resume`s it on a fresh connection and checks the cipher
//! stream continued; every session ends with `Bye`, so server state
//! returns to baseline and `rss_mib` does not scale with run speed.

use std::io;
use std::time::{Duration, Instant};

use mhhea_net::client::NetClient;
use mhhea_net::frame::{
    decode_error, decode_rekey_ack, decode_resumed_ack, encode_rekey, flags, join_seq, ErrorCode,
    Frame, FrameKind, Hello,
};

use crate::gen::{self, Rng};
use crate::server::ServerProc;
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, Workload};

const PLANS: usize = 512;

/// One session's generated inputs.
pub struct Plan {
    pub key_id: u32,
    pub lfsr_seed: u16,
    pub kex: bool,
    pub park: bool,
    /// Messages sealed and opened back, 64–512 B each.
    pub messages: Vec<Vec<u8>>,
}

pub struct Inputs {
    pub id_base: u64,
    pub plans: Vec<Plan>,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, "tcp_churn");
    let id_base = rng.next_u64() & !0xFFFF_FFFF;
    let key_ids = rng.stratified(PLANS, |q| gen::uniform(q, 1, 4) as u32);
    let counts = rng.stratified(PLANS, |q| gen::uniform(q, 2, 4));
    let mut sizes = rng
        .stratified(counts.iter().sum(), |q| gen::uniform(q, 64, 512))
        .into_iter();
    let plans = (0..PLANS)
        .map(|n| Plan {
            key_id: key_ids[n],
            lfsr_seed: rng.seed16(),
            kex: n % 8 == 0,
            park: n % 4 == 2,
            messages: (0..counts[n])
                .map(|_| rng.bytes(sizes.next().expect("one size per message")))
                .collect(),
        })
        .collect();
    Inputs { id_base, plans }
}

pub struct Bench {
    pub server: ServerProc,
    inputs: Inputs,
    client: NetClient,
    sessions: u64,
}

pub fn setup(seed: u64, _tr: &mut Tracer) -> io::Result<Bench> {
    let inputs = inputs(seed);
    let server = ServerProc::spawn(Workload::TcpChurn, seed)?;
    let client = NetClient::connect(server.tcp).map_err(io::Error::other)?;
    Ok(Bench {
        server,
        inputs,
        client,
        sessions: 0,
    })
}

/// One request/reply exchange with the send, the wait and the decode
/// each under its own span.
struct Conv<'a> {
    client: &'a mut NetClient,
    tr: &'a mut Tracer,
    out: &'a mut Outcome,
    req: u64,
}

impl Conv<'_> {
    fn call(&mut self, name: &'static str, frame: &Frame) -> io::Result<(Frame, Instant, SpanId)> {
        self.req += 1;
        let start = Instant::now();
        let root = self.tr.begin(name, SpanId::NONE, self.req);
        let send = self.tr.begin("client.send", root, self.req);
        self.client.send_frame(frame).map_err(io::Error::other)?;
        self.tr.end(send);
        let wait = self.tr.begin("client.wait", root, self.req);
        let reply = self.client.recv_frame().map_err(io::Error::other)?;
        self.tr.end(wait);
        Ok((reply, start, root))
    }

    /// Ends a request — one attempted op: checks the reply kind, times
    /// it, closes its spans.
    fn finish(
        &mut self,
        (reply, start, root): (Frame, Instant, SpanId),
        want: FrameKind,
        bytes: usize,
        check: impl FnOnce(&Frame) -> bool,
    ) -> io::Result<Frame> {
        self.out.attempted += 1;
        let decode = self.tr.begin("client.decode", root, self.req);
        let ok = reply.kind == want && check(&reply);
        self.tr.end(decode);
        self.tr.end(root);
        if reply.kind == FrameKind::Error {
            self.out.refused += 1;
            return Err(io::Error::other(format!("refused: {reply:?}")));
        }
        if !ok {
            self.out.mismatched += 1;
            return Err(io::Error::other(format!("unexpected reply: {reply:?}")));
        }
        self.out.ok(bytes, start.elapsed());
        Ok(reply)
    }

    /// Seals `m` and opens the ciphertext back, checking the bytes.
    fn round_trip(&mut self, stream: u64, seq: &mut u64, m: &[u8]) -> io::Result<()> {
        let f = Frame::new(FrameKind::Data, stream, *seq).with_payload(m.to_vec());
        let r = self.call("tcp.seal", &f)?;
        let sealed = self.finish(r, FrameKind::Reply, m.len(), |r| {
            r.payload.get(..4) == Some(&(8 * m.len() as u32).to_le_bytes()[..])
        })?;
        *seq += 1;
        let f = Frame::new(FrameKind::Data, stream, *seq)
            .with_flags(flags::DIR_OPEN)
            .with_payload(sealed.payload);
        let r = self.call("tcp.open", &f)?;
        self.finish(r, FrameKind::Reply, m.len(), |r| r.payload == m)?;
        *seq += 1;
        Ok(())
    }
}

impl Bench {
    pub fn run(&mut self, seconds: f64, tr: &mut Tracer) -> io::Result<Outcome> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut out = Outcome::default();
        let mut req = 0;
        while Instant::now() < deadline {
            let n = self.sessions;
            self.sessions += 1;
            let stream = self.inputs.id_base + n;
            self.session(stream, n as usize % PLANS, tr, &mut out, &mut req)?;
        }
        Ok(out)
    }

    fn session(
        &mut self,
        stream: u64,
        plan: usize,
        tr: &mut Tracer,
        out: &mut Outcome,
        req: &mut u64,
    ) -> io::Result<()> {
        let plan = &self.inputs.plans[plan];
        let mut c = Conv {
            client: &mut self.client,
            tr,
            out,
            req: *req,
        };
        if plan.kex {
            c.req += 1;
            c.out.attempted += 1;
            let start = Instant::now();
            let span = c.tr.begin("client.kex_open", SpanId::NONE, c.req);
            c.client.open_ephemeral(stream).map_err(io::Error::other)?;
            c.tr.end(span);
            c.out.ok(0, start.elapsed());
        } else {
            let hello = Hello::new(plan.key_id, plan.lfsr_seed).encode();
            let r = c.call(
                "tcp.hello",
                &Frame::new(FrameKind::Hello, stream, 0).with_payload(hello),
            )?;
            c.finish(r, FrameKind::HelloAck, 0, |r| r.payload.len() == 8)?;
        }
        let mut seq = 0;
        for m in &plan.messages {
            c.round_trip(stream, &mut seq, m)?;
        }
        let f = Frame::new(FrameKind::Rekey, stream, seq).with_payload(encode_rekey(1));
        let r = c.call("tcp.rekey", &f)?;
        let ack = c.finish(r, FrameKind::RekeyAck, 0, |r| {
            matches!(decode_rekey_ack(&r.payload), Ok((1, _)))
        })?;
        let token = decode_rekey_ack(&ack.payload).map_err(io::Error::other)?.1;
        if plan.park {
            // Dropping the connection parks the stream server-side.
            *c.client = NetClient::connect(self.server.tcp).map_err(io::Error::other)?;
            let resume =
                Frame::new(FrameKind::Resume, stream, 0).with_payload(token.to_le_bytes().to_vec());
            loop {
                let r = c.call("tcp.resume", &resume)?;
                // Until the server reaps the old connection it has no
                // snapshot to resume from; that answer is a retry, not a
                // refusal.
                let not_yet = r.0.kind == FrameKind::Error
                    && matches!(
                        decode_error(&r.0.payload).0,
                        Some(ErrorCode::NoSnapshot | ErrorCode::StreamExists)
                    );
                if not_yet {
                    c.tr.end(r.2);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                c.finish(r, FrameKind::HelloAck, 0, |r| {
                    r.flags & flags::RESUMED != 0
                        && matches!(decode_resumed_ack(&r.payload), Ok((t, 1)) if t == token)
                })?;
                break;
            }
            let mut seq = join_seq(1, 0);
            c.round_trip(stream, &mut seq, &plan.messages[0])?;
        }
        let r = c.call("tcp.bye", &Frame::new(FrameKind::Bye, stream, 0))?;
        c.finish(r, FrameKind::Bye, 0, |_| true)?;
        *req = c.req;
        Ok(())
    }

    pub fn finish(self) -> io::Result<std::collections::BTreeMap<String, u64>> {
        drop(self.client);
        self.server.stop()
    }
}
