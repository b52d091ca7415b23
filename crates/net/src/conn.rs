//! The per-connection state machine — the bottom layer of the server.
//!
//! A [`Conn`] owns everything that belongs to exactly one connection:
//! the receive buffer and incremental frame parsing, the per-stream
//! sequence expectations (validated here, including the epoch split and
//! the rekey synchronisation point), the write buffer with backpressure
//! accounting, and the close/half-close grace machinery.
//!
//! What a `Conn` deliberately does **not** know about is the loop that
//! drives it: it is generic over any non-blocking [`Read`] + [`Write`]
//! byte stream and has no notion of readiness loops, reactors, accept
//! sharding, or the shared stream registry. The reactor layer
//! ([`crate::reactor`]) calls `read_tick` / `parse_tick` / `flush_tick`
//! and routes anything connection-transcending (handshakes, the gateway
//! batch, eviction) through shared state it owns. That decoupling is
//! what lets N reactor threads drive disjoint connection sets over one
//! gateway — and what a future datagram transport would reuse with a
//! different driver.
//!
//! Reply framing is zero-copy per frame: payloads are encoded into a
//! per-connection scratch buffer (or borrowed outright) and appended to
//! the write buffer via [`frame::encode_raw`], so the reply path
//! performs no per-frame allocations once the buffers are warm.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use mhhea::gateway::{StreamId, StreamOp};

use crate::frame::{
    self, decode_blocks, decode_rekey, encode_error, flags, split_seq, ErrorCode, Frame, FrameKind,
    HEADER_LEN, MAX_ERROR_DETAIL_BYTES,
};
use crate::server::{ServerStats, MAX_MESSAGE_BYTES};

/// stream id → next expected `Data`/`Rekey` sequence number, for the
/// streams a connection owns.
pub(crate) type StreamTable = HashMap<u64, u64>;

/// stream id → the half-done MHKX exchange parked between `KeyEx`
/// phase 1 and phase 2 on this connection.
pub(crate) type KexTable = HashMap<u64, PendingKex>;

/// Most simultaneous half-open MHKX exchanges one connection may park.
/// Each entry is a few dozen bytes, but phase 2 may never arrive — the
/// cap keeps a handshake-spraying client from growing server memory.
pub(crate) const MAX_PENDING_KEX: usize = 16;

/// Everything the server keeps between `KeyEx` phase 1 and phase 2 —
/// deliberately *not* the ephemeral secret, which is dropped as soon as
/// the shared secret is derived (forward secrecy): a phase-1 frame
/// costs the server one DH plus this struct, never a live secret.
pub(crate) struct PendingKex {
    /// The client tag that must arrive in phase 2 (constant-time
    /// compared).
    pub expected_tag: [u8; frame::KEX_TAG_LEN],
    /// Derived key-pair schedule bytes for `Key::from_bytes`.
    pub key_bytes: [u8; 16],
    /// Derived LFSR master seed (nonzero).
    pub seed: u16,
    /// Cipher variant the stream will run.
    pub algorithm: mhhea::Algorithm,
    /// Buffering profile the stream will run.
    pub profile: mhhea::Profile,
    /// Target epoch: 0 = fresh open, > 0 = fresh-DH rotation.
    pub epoch: u32,
}

/// How a submitted op's output travels back to the client.
pub(crate) enum ReplyShape {
    /// A seal: `Reply` carrying `bit_len ∥ blocks`.
    Seal {
        /// The plaintext bit length to prefix the blocks with.
        bit_len: u32,
    },
    /// An open: `Reply` carrying plaintext, flagged [`flags::DIR_OPEN`].
    Open,
    /// A rotation: `RekeyAck` carrying the epoch and a fresh resume
    /// token; accepting it also restamps the stream's expected sequence.
    Rekey,
}

/// What a parsed `Data`/`Rekey` frame turned into: either a slot in this
/// tick's gateway batch, or an immediate failure that still must be
/// answered *in request order*.
pub(crate) struct DataTicket {
    /// Index of the owning connection in the reactor's table.
    pub conn: usize,
    pub stream: u64,
    pub seq: u64,
    pub outcome: TicketOutcome,
}

pub(crate) enum TicketOutcome {
    /// The next unclaimed slot of this tick's batch (tickets and batch
    /// entries are pushed in the same order), with how the result must be
    /// framed back.
    Submitted { shape: ReplyShape },
    /// Rejected before touching any cipher state.
    Rejected { code: ErrorCode, detail: String },
}

/// The per-tick accumulators a connection's parse phase feeds: the
/// reactor's shared gateway batch, the ordered ticket list, deferred
/// goodbye frames, and the set of streams with a rotation in flight.
pub(crate) struct TickSink<'a> {
    pub batch: &'a mut Vec<(StreamId, StreamOp)>,
    pub tickets: &'a mut Vec<DataTicket>,
    pub goodbyes: &'a mut Vec<(usize, Frame)>,
    pub rekey_pending: &'a mut HashSet<u64>,
    pub stats: &'a ServerStats,
}

/// What the control layer decided about a `Hello`/`Resume`/`Bye` (or a
/// protocol-violating kind): the reply to queue, and whether the
/// connection must be hung up.
pub(crate) struct ControlAction {
    pub reply: Frame,
    pub hang_up: bool,
}

/// One live connection. Generic over the byte stream so the state
/// machine carries no socket (or loop) assumptions; the server
/// instantiates it with a non-blocking `TcpStream`.
pub(crate) struct Conn<S> {
    sock: S,
    /// Unparsed received bytes (a frame may span many reads).
    rbuf: Vec<u8>,
    /// Bytes queued for the socket; `wpos..` is still unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Streams owned by this connection, with their sequence
    /// expectations. Ownership is the cross-connection isolation
    /// boundary: no other connection (on any reactor) can address them.
    pub(crate) streams: StreamTable,
    /// Half-open MHKX exchanges (between `KeyEx` phases), keyed by
    /// stream id. Connection-scoped like `streams`: an exchange begun
    /// here can only be completed here, so a phase-2 frame replayed on
    /// another connection finds nothing.
    pub(crate) kex: KexTable,
    /// Reusable payload-encode scratch for the reply path.
    payload_scratch: Vec<u8>,
    /// Flush what is queued, then close (set after a protocol violation).
    closing: bool,
    /// The peer half-closed (EOF on read). Frames already received are
    /// still parsed and answered; the connection dies once every queued
    /// reply flushes.
    eof: bool,
    /// When `closing`/`eof` was first observed — a peer that never drains
    /// the remaining frames is torn down once the close grace elapses.
    closing_since: Option<Instant>,
    /// Tear down at the end of the tick.
    pub(crate) dead: bool,
}

impl<S: Read + Write> Conn<S> {
    pub(crate) fn new(sock: S) -> Conn<S> {
        Conn {
            sock,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            streams: HashMap::new(),
            kex: HashMap::new(),
            payload_scratch: Vec::new(),
            closing: false,
            eof: false,
            closing_since: None,
            dead: false,
        }
    }

    /// Bytes queued for the socket but not yet written — the
    /// backpressure measure.
    pub(crate) fn queued(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Marks the connection for teardown after its queued frames flush
    /// (or the close grace expires). Pending unparsed input is discarded —
    /// framing is already lost.
    pub(crate) fn start_closing(&mut self) {
        self.closing = true;
        self.closing_since.get_or_insert_with(Instant::now);
        self.rbuf.clear();
    }

    /// Promotes an aged-out closing/half-closed connection to dead: a
    /// peer that never drains the remaining frames must not linger
    /// forever (`flush_tick` only kills it once the write buffer empties).
    pub(crate) fn expire_grace(&mut self, grace: Duration) {
        if (self.closing || self.eof) && !self.dead {
            let expired = self
                .closing_since
                .is_none_or(|since| since.elapsed() >= grace);
            if expired {
                self.dead = true;
            }
        }
    }

    /// Drains the socket into the receive buffer, honouring the read
    /// budget and write-side backpressure (`write_buf_limit`). Returns
    /// whether bytes moved.
    pub(crate) fn read_tick(
        &mut self,
        scratch: &mut [u8],
        read_budget: usize,
        write_buf_limit: usize,
    ) -> bool {
        if self.dead || self.eof {
            return false;
        }
        if self.closing {
            // No longer parsing, but keep draining-and-discarding (within
            // the tick's read budget) so a peer that hangs up is noticed
            // now rather than only when the close grace expires.
            let mut budget = read_budget;
            while budget > 0 {
                let want = scratch.len().min(budget);
                // lint: allow(panic-path, reason = "`want` is clamped to scratch.len() on the previous line")
                match self.sock.read(&mut scratch[..want]) {
                    Ok(0) => {
                        self.dead = true;
                        break;
                    }
                    Ok(n) => budget -= n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            return false;
        }
        if self.queued() >= write_buf_limit {
            // Backpressure: a client that stops reading replies stops
            // being read from, instead of growing server memory.
            return false;
        }
        let mut moved = false;
        let mut budget = read_budget;
        while budget > 0 {
            let want = scratch.len().min(budget);
            // lint: allow(panic-path, reason = "`want` is clamped to scratch.len() on the previous line")
            match self.sock.read(&mut scratch[..want]) {
                Ok(0) => {
                    // Half-close, not death: frames already in rbuf (even
                    // ones received in this very tick) are still parsed
                    // and answered before the connection is torn down.
                    self.eof = true;
                    self.closing_since.get_or_insert_with(Instant::now);
                    break;
                }
                Ok(n) => {
                    // lint: allow(panic-path, reason = "a conforming Read returns n ≤ the slice it was handed")
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    moved = true;
                    budget -= n;
                    if n < want {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        moved
    }

    /// Parses complete frames in arrival order. `Data`/`Rekey` frames are
    /// validated against this connection's sequence expectations and join
    /// the tick's batch via `sink`; control frames are dispatched to
    /// `control` — but only while no data frame from this connection is
    /// already queued, otherwise the control frame waits a tick so
    /// replies never overtake each other.
    ///
    /// `idx` is this connection's index in the reactor's table, stamped
    /// into tickets and goodbyes so the reply phase can route back.
    pub(crate) fn parse_tick(
        &mut self,
        idx: usize,
        sink: &mut TickSink<'_>,
        control: &mut dyn FnMut(&mut StreamTable, &mut KexTable, &Frame) -> ControlAction,
    ) -> bool {
        if self.closing || self.dead {
            return false;
        }
        let mut consumed = 0;
        let mut data_queued = false;
        let mut handled = false;
        loop {
            // lint: allow(panic-path, reason = "decode reports `used` ≤ the slice it parsed, so `consumed` never passes rbuf.len()")
            let frame = match frame::decode(&self.rbuf[consumed..]) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    consumed += used;
                    frame
                }
                Err(e) => {
                    // Framing is lost: answer once (deferred behind this
                    // tick's replies so it cannot overtake them), then
                    // hang up. Other connections (and their streams) are
                    // untouched.
                    ServerStats::bump(&sink.stats.protocol_errors);
                    sink.goodbyes.push((
                        idx,
                        Frame::new(FrameKind::Error, 0, 0)
                            .with_payload(encode_error(ErrorCode::Protocol, &e.to_string())),
                    ));
                    self.start_closing();
                    return true;
                }
            };
            if frame.kind == FrameKind::Data || frame.kind == FrameKind::Rekey {
                ServerStats::bump(&sink.stats.frames_received);
                handled = true;
                data_queued = true;
                let stream = frame.stream;
                let seq = frame.seq;
                match self.validate_data(frame, sink.rekey_pending) {
                    Ok((op, shape)) => {
                        sink.tickets.push(DataTicket {
                            conn: idx,
                            stream,
                            seq,
                            outcome: TicketOutcome::Submitted { shape },
                        });
                        sink.batch.push((StreamId(stream), op));
                    }
                    Err((code, detail)) => sink.tickets.push(DataTicket {
                        conn: idx,
                        stream,
                        seq,
                        outcome: TicketOutcome::Rejected { code, detail },
                    }),
                }
            } else {
                if data_queued {
                    // Preserve order: this control frame executes only
                    // after the queued data work ran. Rewind and retry
                    // next tick (not counted as received yet).
                    consumed -= HEADER_LEN + frame.payload.len();
                    break;
                }
                ServerStats::bump(&sink.stats.frames_received);
                handled = true;
                let action = control(&mut self.streams, &mut self.kex, &frame);
                self.push_frame(&action.reply);
                ServerStats::bump(&sink.stats.frames_sent);
                if action.hang_up {
                    // The control layer hung up (server-only kind) —
                    // nothing left to parse or drain on this connection.
                    self.start_closing();
                    return true;
                }
            }
        }
        self.rbuf.drain(..consumed);
        handled
    }

    /// Validates a `Data`/`Rekey` frame (ownership, epoch, sequence,
    /// payload shape) against this connection's stream table and either
    /// returns the gateway op to enqueue or the rejection to answer.
    /// Rejections never touch cipher state, so the stream survives them.
    fn validate_data(
        &mut self,
        frame: Frame,
        rekey_pending: &mut HashSet<u64>,
    ) -> Result<(StreamOp, ReplyShape), (ErrorCode, String)> {
        let stream = frame.stream;
        let seq = frame.seq;
        let Some(&expected) = self.streams.get(&stream) else {
            return Err((
                ErrorCode::UnknownStream,
                format!("stream {stream} is not open on this connection"),
            ));
        };
        if self.kex.contains_key(&stream) {
            // An MHKX rotation for this stream is between phase 1 and
            // phase 2: like the classic rekey synchronisation point, the
            // sequence space is about to be restamped, so data is
            // rejected without consuming anything until the exchange
            // completes (or fails and is discarded).
            return Err((
                ErrorCode::BadSequence,
                "a key exchange is in flight on this stream; finish it first".to_string(),
            ));
        }
        if rekey_pending.contains(&stream) {
            // A rotation for this stream is queued but not yet acked: the
            // sequence space this frame would be validated against is
            // about to be restamped, and the gateway would execute the
            // frame *after* the rotation whatever its stamp claims. Rekey
            // is a synchronisation point — reject without consuming
            // anything; the client resends after the ack.
            return Err((
                ErrorCode::BadSequence,
                "a rekey is in flight on this stream; wait for the ack".to_string(),
            ));
        }
        let (cur_epoch, cur_counter) = split_seq(expected);
        let (frame_epoch, frame_counter) = split_seq(seq);
        if frame_epoch < cur_epoch {
            // A replay from before a rotation. The dedicated code lets
            // clients and monitors tell "stale capture" from an ordinary
            // sequencing bug; either way no cipher state is touched and
            // the sequence number is not consumed.
            return Err((
                ErrorCode::StaleEpoch,
                format!(
                    "frame stamped with retired epoch {frame_epoch}; stream is at epoch {cur_epoch}"
                ),
            ));
        }
        if seq != expected {
            return Err((
                ErrorCode::BadSequence,
                format!(
                    "expected epoch {cur_epoch} counter {cur_counter}, \
                     got epoch {frame_epoch} counter {frame_counter}"
                ),
            ));
        }
        if cur_counter == u32::MAX && frame.kind != FrameKind::Rekey {
            // Accepting a Data frame here would roll the counter into the
            // epoch bits. Practically unreachable (2³² messages in one
            // epoch), but never silently — and `Rekey` is deliberately
            // exempt: rotating to a fresh epoch is the escape hatch this
            // error advises, so it must still be accepted.
            return Err((
                ErrorCode::Protocol,
                "per-epoch sequence space exhausted; rekey the stream".to_string(),
            ));
        }
        let (op, shape) = if frame.kind == FrameKind::Rekey {
            match decode_rekey(&frame.payload) {
                Ok(epoch) if epoch > cur_epoch => (StreamOp::Rekey { epoch }, ReplyShape::Rekey),
                Ok(epoch) => {
                    return Err((
                        ErrorCode::StaleEpoch,
                        format!(
                            "rekey to epoch {epoch} is not newer than current epoch {cur_epoch}"
                        ),
                    ));
                }
                Err(e) => return Err((ErrorCode::Protocol, e.to_string())),
            }
        } else if frame.flags & flags::DIR_OPEN != 0 {
            match decode_blocks(&frame.payload) {
                Ok((bit_len, blocks)) => (
                    StreamOp::Decrypt {
                        blocks,
                        bit_len: bit_len as usize,
                    },
                    ReplyShape::Open,
                ),
                Err(e) => return Err((ErrorCode::Protocol, e.to_string())),
            }
        } else {
            if frame.payload.len() > MAX_MESSAGE_BYTES {
                // The sealed reply could exceed MAX_PAYLOAD (worst-case
                // key expansion is 16×) — reject before the cipher runs
                // rather than panic framing an unsendable reply.
                return Err((
                    ErrorCode::MessageTooLarge,
                    format!(
                        "message of {} bytes exceeds the {MAX_MESSAGE_BYTES}-byte seal cap",
                        frame.payload.len()
                    ),
                ));
            }
            // lint: allow(truncating-cast, reason = "payload.len() ≤ MAX_MESSAGE_BYTES (checked above), so len*8 fits u32")
            let bit_len = (frame.payload.len() * 8) as u32;
            (
                StreamOp::Encrypt(frame.payload),
                ReplyShape::Seal { bit_len },
            )
        };
        // Consume the sequence number in the *current* epoch; a
        // successful rekey additionally restamps it to the new epoch's
        // counter 0 when the ack is built. An accepted Rekey also blocks
        // every further frame on the stream until that restamp
        // (`rekey_pending`), so nothing can be validated against the old
        // epoch but executed after the rotation. At counter u32::MAX only
        // a Rekey can get here — skip the bump (it would roll into the
        // epoch bits); the pending guard covers the gap until the ack.
        if matches!(shape, ReplyShape::Rekey) {
            rekey_pending.insert(stream);
        }
        if cur_counter != u32::MAX {
            // `expected` was read out of this entry above, so the lookup
            // cannot miss; `if let` keeps that assumption panic-free.
            if let Some(next) = self.streams.get_mut(&stream) {
                *next = expected + 1;
            }
        }
        Ok((op, shape))
    }

    /// Appends an already-built frame to the write buffer (handshake and
    /// goodbye path — not per-message hot).
    pub(crate) fn push_frame(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.wbuf);
    }

    /// Appends a seal-direction `Reply` (`bit_len ∥ blocks`), encoding
    /// the payload through the connection's reusable scratch buffer —
    /// no per-frame allocation.
    pub(crate) fn push_seal_reply(&mut self, stream: u64, seq: u64, bit_len: u32, blocks: &[u16]) {
        self.payload_scratch.clear();
        self.payload_scratch
            .extend_from_slice(&bit_len.to_le_bytes());
        for b in blocks {
            self.payload_scratch.extend_from_slice(&b.to_le_bytes());
        }
        frame::encode_raw(
            &mut self.wbuf,
            FrameKind::Reply,
            0,
            stream,
            seq,
            &self.payload_scratch,
        );
    }

    /// Appends an open-direction `Reply`, borrowing the recovered
    /// plaintext straight into the frame encoder.
    pub(crate) fn push_open_reply(&mut self, stream: u64, seq: u64, plain: &[u8]) {
        frame::encode_raw(
            &mut self.wbuf,
            FrameKind::Reply,
            flags::DIR_OPEN,
            stream,
            seq,
            plain,
        );
    }

    /// Appends a `RekeyAck` (`epoch ∥ fresh token`) through the scratch
    /// buffer.
    pub(crate) fn push_rekey_ack(&mut self, stream: u64, seq: u64, epoch: u32, token: u64) {
        self.payload_scratch.clear();
        self.payload_scratch.extend_from_slice(&epoch.to_le_bytes());
        self.payload_scratch.extend_from_slice(&token.to_le_bytes());
        frame::encode_raw(
            &mut self.wbuf,
            FrameKind::RekeyAck,
            0,
            stream,
            seq,
            &self.payload_scratch,
        );
    }

    /// Appends an `Error` frame (`code ∥ truncated detail`) through the
    /// scratch buffer.
    pub(crate) fn push_error(&mut self, stream: u64, seq: u64, code: ErrorCode, detail: &str) {
        self.payload_scratch.clear();
        // lint: allow(truncating-cast, reason = "ErrorCode is repr(u8); the discriminant is the wire byte")
        self.payload_scratch.push(code as u8);
        // lint: allow(panic-path, reason = "slice end is detail.len().min(cap), never past the end")
        let detail = &detail.as_bytes()[..detail.len().min(MAX_ERROR_DETAIL_BYTES)];
        self.payload_scratch.extend_from_slice(detail);
        frame::encode_raw(
            &mut self.wbuf,
            FrameKind::Error,
            0,
            stream,
            seq,
            &self.payload_scratch,
        );
    }

    /// Writes as much of the queued bytes as the socket takes. Returns
    /// whether bytes moved; promotes fully-drained closing/half-closed
    /// connections to dead.
    pub(crate) fn flush_tick(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut moved = false;
        while self.wpos < self.wbuf.len() {
            // lint: allow(panic-path, reason = "the loop condition keeps wpos < wbuf.len()")
            match self.sock.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if moved && (self.closing || self.eof) {
            // close_grace is an *idle* timeout, not an absolute deadline:
            // a half-closed peer actively draining a large reply backlog
            // must not be torn down mid-drain.
            self.closing_since = Some(Instant::now());
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.closing || (self.eof && self.rbuf.is_empty()) {
                // Goodbye (or the half-closed peer's last replies) fully
                // flushed and nothing left to parse — nothing more will
                // ever arrive or leave. (An eof conn with leftover bytes
                // gets one more tick to parse them — e.g. a control frame
                // deferred behind data — or ages out via close_grace if
                // they are a forever-partial frame.)
                self.dead = true;
            }
        } else if self.wpos > (64 << 10) {
            // Reclaim flushed prefix without waiting for full drain.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        moved
    }
}
