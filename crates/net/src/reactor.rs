//! The reactor layer: N readiness loops over disjoint connection sets,
//! one shared stream world.
//!
//! A [`Reactor`] owns a set of connections outright — their sockets,
//! buffers, and stream tables are touched by exactly one thread, so the
//! per-connection state machine ([`crate::conn`]) needs no locks. What
//! connections *share* lives in [`Shared`]:
//!
//! - the [`StreamMux`] — internally sharded, every method `&self`, so
//!   reactors call [`StreamMux::submit_batch`] concurrently, each on its
//!   own thread, and their batches interleave safely op by op under the
//!   shard locks;
//! - the [`Registry`] (one mutex): parked eviction snapshots and the
//!   resume-token table. It is touched only on handshakes, rekeys, and
//!   teardown — never per data frame — so the lock is cold;
//! - the atomic [`ServerStats`].
//!
//! That split is what makes evict-on-A / resume-on-B work: a stream is
//! *located* nowhere but the mux and registry, so the connection that
//! resumes it does not care which reactor parked it.
//!
//! Lock ordering: the registry mutex is always taken **before** any mux
//! shard lock (handshakes and eviction hold it across their mux call),
//! and no code path takes them in the other order. Holding the registry
//! across the mux call is what makes park/resume/open atomic from every
//! other reactor's point of view — e.g. a `Hello` can never squeeze in
//! between "evict removed the stream from the mux" and "the snapshot is
//! parked".

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

use mhhea::gateway::{GatewayError, StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::{Key, KeyRing};
use mhhea_kex::{derive_session, tags_equal, transcript, EphemeralSecret};

use crate::conn::{
    Conn, ControlAction, DataTicket, KexTable, PendingKex, ReplyShape, StreamTable, TickSink,
    TicketOutcome, MAX_PENDING_KEX,
};
use crate::frame::{
    algorithm_wire_tag, decode_key_ex, encode_error, encode_key_ex_ack_done,
    encode_key_ex_ack_init, encode_resumed_ack, flags, join_seq, profile_wire_tag, split_seq,
    ErrorCode, Frame, FrameKind, Hello, KeyExInit, KeyExPayload, KEX_TAG_LEN,
};
use crate::server::{ServerConfig, ServerStats};

/// Cross-reactor stream bookkeeping, guarded by one mutex in [`Shared`].
pub(crate) struct Registry {
    /// stream id → parked `MHSS` snapshot, waiting for a `Resume` (from
    /// any connection on any reactor).
    snapshots: HashMap<u64, Vec<u8>>,
    /// stream id → resume token, for every live *and* parked stream. A
    /// `Resume` must present the token its `HelloAck` handed out; stream
    /// ids are guessable, tokens are not.
    tokens: HashMap<u64, u64>,
    token_counter: u64,
}

impl Registry {
    /// A fresh resume token: a keyed hash of a counter. Unpredictable to
    /// peers (the SipHash key never leaves the process), collision-free
    /// in practice, and free of any RNG dependency.
    fn fresh_token(&mut self, rand: &RandomState) -> u64 {
        let mut hasher = rand.build_hasher();
        hasher.write_u64(self.token_counter);
        self.token_counter += 1;
        hasher.finish()
    }
}

/// Everything the reactors (and the acceptor) share. One instance per
/// server, behind an `Arc`.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) mux: StreamMux,
    pub(crate) stats: Arc<ServerStats>,
    // lock-order: registry < mux_shard
    pub(crate) registry: Mutex<Registry>,
    /// Keyed-hash state for resume-token minting (shared so tokens stay
    /// unique across reactors; the counter lives in the registry).
    token_rand: RandomState,
}

impl Shared {
    pub(crate) fn new(cfg: ServerConfig, stats: Arc<ServerStats>) -> Shared {
        Shared {
            mux: StreamMux::with_shards(cfg.shards),
            stats,
            registry: Mutex::new(Registry {
                snapshots: HashMap::new(),
                tokens: HashMap::new(),
                token_counter: 0,
            }),
            token_rand: RandomState::new(),
            cfg,
        }
    }

    /// The registry lock. Poisoning is recovered rather than propagated:
    /// every critical section is a handful of `HashMap` operations with no
    /// multi-step invariant, so the state is coherent even if some earlier
    /// holder panicked — and one panicked reactor thread must not take the
    /// other reactors' handshake path down with it.
    pub(crate) fn registry(&self) -> MutexGuard<'_, Registry> {
        match self.registry.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Parked snapshots right now (for `Debug` output).
    pub(crate) fn parked(&self) -> usize {
        self.registry().snapshots.len()
    }

    /// Whether the registry still holds a resume token for `stream` —
    /// i.e. whether the stream can ever legally return (both TCP resume
    /// and datagram attach require the token). The datagram driver uses
    /// this to decide when per-stream replay state is safe to drop.
    pub(crate) fn has_token(&self, stream: u64) -> bool {
        self.registry().tokens.contains_key(&stream)
    }

    /// Handshake and teardown frames, answered inline by the owning
    /// reactor against the shared registry/mux.
    pub(crate) fn handle_control(
        &self,
        streams: &mut StreamTable,
        kex: &mut KexTable,
        frame: &Frame,
    ) -> ControlAction {
        let stream = frame.stream;
        match frame.kind {
            FrameKind::Hello => ControlAction {
                reply: self.open_stream(streams, frame),
                hang_up: false,
            },
            FrameKind::KeyEx => ControlAction {
                reply: self.key_ex(streams, kex, frame),
                hang_up: false,
            },
            FrameKind::Resume => ControlAction {
                reply: self.resume_stream(streams, frame),
                hang_up: false,
            },
            FrameKind::Bye => {
                let reply = if streams.remove(&stream).is_some() {
                    let mut reg = self.registry();
                    let _ = self.mux.close(StreamId(stream));
                    reg.tokens.remove(&stream);
                    Frame::new(FrameKind::Bye, stream, frame.seq)
                } else {
                    Frame::new(FrameKind::Error, stream, frame.seq).with_payload(encode_error(
                        ErrorCode::UnknownStream,
                        "bye for a stream this connection does not own",
                    ))
                };
                ControlAction {
                    reply,
                    hang_up: false,
                }
            }
            // Server-emitted kinds arriving at the server are protocol
            // violations a conforming client never produces.
            FrameKind::HelloAck
            | FrameKind::Reply
            | FrameKind::Error
            | FrameKind::RekeyAck
            | FrameKind::KeyExAck => {
                ServerStats::bump(&self.stats.protocol_errors);
                ControlAction {
                    reply: Frame::new(FrameKind::Error, 0, 0).with_payload(encode_error(
                        ErrorCode::Protocol,
                        "client sent a server-only frame kind",
                    )),
                    hang_up: true,
                }
            }
            // Datagram-path kinds never travel over TCP: MHNP-D shares
            // the kind space for the analyzer's sake, not the transport.
            // A client mixing them into a stream is confused or hostile.
            FrameKind::DgramResume
            | FrameKind::DgramAck
            | FrameKind::DgramData
            | FrameKind::DgramReply => {
                ServerStats::bump(&self.stats.protocol_errors);
                ControlAction {
                    reply: Frame::new(FrameKind::Error, stream, frame.seq).with_payload(
                        encode_error(
                            ErrorCode::Protocol,
                            "datagram-path frame kind on the stream transport",
                        ),
                    ),
                    hang_up: true,
                }
            }
            // `Data`/`Rekey` frames are routed through `validate_data`
            // before this point; landing here is a dispatch bug. Answer it
            // as a protocol error and hang up instead of panicking the
            // reactor thread (debug builds still assert).
            FrameKind::Data | FrameKind::Rekey => {
                debug_assert!(false, "data and rekey frames go through validate_data");
                ServerStats::bump(&self.stats.protocol_errors);
                ControlAction {
                    reply: Frame::new(FrameKind::Error, stream, frame.seq).with_payload(
                        encode_error(ErrorCode::Protocol, "data frame routed to control path"),
                    ),
                    hang_up: true,
                }
            }
        }
    }

    fn open_stream(&self, streams: &mut StreamTable, frame: &Frame) -> Frame {
        let stream = frame.stream;
        let fail = |code: ErrorCode, detail: &str| {
            Frame::new(FrameKind::Error, stream, 0).with_payload(encode_error(code, detail))
        };
        let hello = match Hello::decode(&frame.payload) {
            Ok(h) => h,
            Err(e) => return fail(ErrorCode::BadHandshake, &e.to_string()),
        };
        let Some(epoch_keys) = self.cfg.keyring.get(&hello.key_id) else {
            return fail(
                ErrorCode::UnknownKeyId,
                &format!("key id {} not in keyring", hello.key_id),
            );
        };
        // The registry is held across the parked-check *and* the mux open
        // so no other reactor can park or resume this id in between.
        let mut reg = self.registry();
        // A parked id is still occupied: letting an unauthenticated Hello
        // supersede the snapshot would destroy another client's only copy
        // of its stream state (the token check bypassed by destruction).
        // Reclaim it with Resume + token, or discard it with Resume + Bye.
        if reg.snapshots.contains_key(&stream) {
            return fail(
                ErrorCode::StreamExists,
                "stream id parked awaiting resume (present its resume token)",
            );
        }
        // Streams are the one per-client allocation a handshake loop could
        // otherwise grow without bound.
        if self.mux.len() >= self.cfg.max_streams {
            return fail(ErrorCode::ServerBusy, "server at stream capacity");
        }
        // Every served stream gets a ring of the id's epoch keys with the
        // handshake seed as master, so `Rekey` works out of the box. Each
        // epoch reseeds the LFSR via the chunk_seed derivation; whether a
        // rotation also *changes the key* depends on how the id was
        // configured (ServerConfig::with_epoch_keys vs a single key).
        // Epoch 0 runs the handshake seed itself, so a stream that never
        // rekeys seals exactly as it did before epochs existed.
        let ring = match KeyRing::new(epoch_keys.clone(), hello.seed) {
            Ok(ring) => ring,
            Err(e) => return fail(ErrorCode::BadHandshake, &e.to_string()),
        };
        let config = StreamConfig::new(ring.key(0).clone())
            .with_algorithm(hello.algorithm)
            .with_profile(hello.profile)
            .with_ring(ring);
        match self.mux.open(StreamId(stream), config) {
            Ok(()) => {
                let token = reg.fresh_token(&self.token_rand);
                reg.tokens.insert(stream, token);
                streams.insert(stream, 0);
                ServerStats::bump(&self.stats.streams_opened);
                Frame::new(FrameKind::HelloAck, stream, 0)
                    .with_payload(token.to_le_bytes().to_vec())
            }
            Err(GatewayError::StreamExists(_)) => {
                fail(ErrorCode::StreamExists, "stream id already open")
            }
            Err(e) => fail(ErrorCode::BadHandshake, &e.to_string()),
        }
    }

    /// An MHKX `KeyEx` frame — either handshake phase (see
    /// `docs/PROTOCOL.md` §5.1). Every failure is a clean `Error` reply;
    /// nothing in the exchange is connection-fatal.
    fn key_ex(&self, streams: &mut StreamTable, kex: &mut KexTable, frame: &Frame) -> Frame {
        let stream = frame.stream;
        let fail = |code: ErrorCode, detail: &str| {
            Frame::new(FrameKind::Error, stream, 0).with_payload(encode_error(code, detail))
        };
        if !self.cfg.ephemeral {
            return fail(
                ErrorCode::BadHandshake,
                "ephemeral key agreement is not enabled on this server",
            );
        }
        match decode_key_ex(&frame.payload) {
            Ok(KeyExPayload::Init(init)) => self.key_ex_init(streams, kex, stream, init),
            Ok(KeyExPayload::Confirm(tag)) => self.key_ex_confirm(streams, kex, stream, &tag),
            Err(e) => fail(ErrorCode::BadHandshake, &e.to_string()),
        }
    }

    /// MHKX phase 1: derive session material from the client's ephemeral
    /// public key and park it until the client confirms. The server's
    /// ephemeral secret drops at the end of this function — after that,
    /// nothing held anywhere can reconstruct the shared secret (forward
    /// secrecy); only the derived session material survives.
    fn key_ex_init(
        &self,
        streams: &mut StreamTable,
        kex: &mut KexTable,
        stream: u64,
        init: KeyExInit,
    ) -> Frame {
        let fail = |code: ErrorCode, detail: &str| {
            Frame::new(FrameKind::Error, stream, 0).with_payload(encode_error(code, detail))
        };
        // Pre-checks mirror the Hello/Rekey paths so a handshake doomed to
        // fail in phase 2 is refused before any derivation work. They are
        // re-checked at phase 2 — the world can change in between.
        if init.epoch == 0 {
            if streams.contains_key(&stream) {
                return fail(ErrorCode::StreamExists, "stream id already open");
            }
            if self.registry().snapshots.contains_key(&stream) {
                return fail(
                    ErrorCode::StreamExists,
                    "stream id parked awaiting resume (present its resume token)",
                );
            }
            if self.mux.len() >= self.cfg.max_streams {
                return fail(ErrorCode::ServerBusy, "server at stream capacity");
            }
        } else {
            let Some(&expected) = streams.get(&stream) else {
                return fail(
                    ErrorCode::UnknownStream,
                    "key-ex rekey targets a stream this connection does not own",
                );
            };
            let (current, _) = split_seq(expected);
            if init.epoch <= current {
                return fail(
                    ErrorCode::StaleEpoch,
                    &format!("epoch {} is not newer than current {current}", init.epoch),
                );
            }
        }
        // A retry for the same stream replaces its pending entry; only
        // exchanges on *distinct* streams count against the cap.
        if kex.len() >= MAX_PENDING_KEX && !kex.contains_key(&stream) {
            return fail(
                ErrorCode::ServerBusy,
                "too many key exchanges in flight on this connection",
            );
        }
        let secret = EphemeralSecret::generate();
        let server_pub = secret.public_key();
        let Ok(shared) = secret.diffie_hellman(&init.public_key) else {
            ServerStats::bump(&self.stats.kex_rejected);
            return fail(
                ErrorCode::KeyConfirmFailed,
                "client public key is a low-order point",
            );
        };
        let t = transcript(
            stream,
            init.epoch,
            algorithm_wire_tag(init.algorithm),
            profile_wire_tag(init.profile),
            &init.public_key,
            &server_pub,
        );
        let material = derive_session(&shared, &t);
        kex.insert(
            stream,
            PendingKex {
                expected_tag: material.tag_client,
                key_bytes: material.key_bytes,
                seed: material.seed,
                algorithm: init.algorithm,
                profile: init.profile,
                epoch: init.epoch,
            },
        );
        Frame::new(FrameKind::KeyExAck, stream, 0)
            .with_payload(encode_key_ex_ack_init(&server_pub, &material.tag_server))
    }

    /// MHKX phase 2: verify the client's confirmation tag, then — and
    /// only then — allocate the stream (epoch 0) or rotate it (epoch >
    /// 0). A failed tag leaves **no** session state behind: the pending
    /// entry is consumed, the mux and registry are untouched.
    fn key_ex_confirm(
        &self,
        streams: &mut StreamTable,
        kex: &mut KexTable,
        stream: u64,
        tag: &[u8; KEX_TAG_LEN],
    ) -> Frame {
        let fail = |code: ErrorCode, detail: &str| {
            Frame::new(FrameKind::Error, stream, 0).with_payload(encode_error(code, detail))
        };
        let Some(pending) = kex.remove(&stream) else {
            return fail(
                ErrorCode::BadHandshake,
                "no key exchange in flight on this stream",
            );
        };
        if !tags_equal(tag, &pending.expected_tag) {
            ServerStats::bump(&self.stats.kex_rejected);
            return fail(
                ErrorCode::KeyConfirmFailed,
                "key-confirmation tag mismatch; no session was created",
            );
        }
        let key = match Key::from_bytes(&pending.key_bytes) {
            Ok(key) => key,
            // Unreachable for KDF output (16 bytes always pack), kept
            // total for the serving path.
            Err(e) => return fail(ErrorCode::Engine, &e.to_string()),
        };
        if pending.epoch == 0 {
            // Same atomicity as open_stream: registry held across the
            // parked-check and the mux open.
            let mut reg = self.registry();
            if reg.snapshots.contains_key(&stream) {
                return fail(
                    ErrorCode::StreamExists,
                    "stream id parked awaiting resume (present its resume token)",
                );
            }
            if self.mux.len() >= self.cfg.max_streams {
                return fail(ErrorCode::ServerBusy, "server at stream capacity");
            }
            let ring = match KeyRing::single(key, pending.seed) {
                Ok(ring) => ring,
                // Unreachable: the KDF never derives a zero seed.
                Err(e) => return fail(ErrorCode::Engine, &e.to_string()),
            };
            let config = StreamConfig::new(ring.key(0).clone())
                .with_algorithm(pending.algorithm)
                .with_profile(pending.profile)
                .with_ring(ring);
            match self.mux.open(StreamId(stream), config) {
                Ok(()) => {
                    let token = reg.fresh_token(&self.token_rand);
                    reg.tokens.insert(stream, token);
                    streams.insert(stream, 0);
                    ServerStats::bump(&self.stats.streams_opened);
                    ServerStats::bump(&self.stats.kex_completed);
                    Frame::new(FrameKind::KeyExAck, stream, 0)
                        .with_payload(encode_key_ex_ack_done(token))
                }
                Err(GatewayError::StreamExists(_)) => {
                    fail(ErrorCode::StreamExists, "stream id already open")
                }
                Err(e) => fail(ErrorCode::BadHandshake, &e.to_string()),
            }
        } else {
            if !streams.contains_key(&stream) {
                return fail(
                    ErrorCode::UnknownStream,
                    "key-ex rekey targets a stream this connection does not own",
                );
            }
            match self
                .mux
                .rekey_with(StreamId(stream), pending.epoch, key, pending.seed)
            {
                Ok(epoch) => {
                    // Same post-rotation bookkeeping as the RekeyAck path:
                    // retire the old resume token, restart the sequence
                    // space at (new epoch, counter 0).
                    let token = {
                        let mut reg = self.registry();
                        let token = reg.fresh_token(&self.token_rand);
                        reg.tokens.insert(stream, token);
                        token
                    };
                    streams.insert(stream, join_seq(epoch, 0));
                    ServerStats::bump(&self.stats.streams_rekeyed);
                    ServerStats::bump(&self.stats.kex_completed);
                    Frame::new(FrameKind::KeyExAck, stream, 0)
                        .with_payload(encode_key_ex_ack_done(token))
                }
                Err(GatewayError::StaleEpoch { current, requested }) => fail(
                    ErrorCode::StaleEpoch,
                    &format!("epoch {requested} is not newer than current {current}"),
                ),
                Err(e) => fail(ErrorCode::Engine, &e.to_string()),
            }
        }
    }

    fn resume_stream(&self, streams: &mut StreamTable, frame: &Frame) -> Frame {
        let stream = frame.stream;
        let fail = |code: ErrorCode, detail: &str| {
            Frame::new(FrameKind::Error, stream, 0).with_payload(encode_error(code, detail))
        };
        let Ok(token_bytes) = <[u8; 8]>::try_from(frame.payload.as_slice()) else {
            return fail(
                ErrorCode::BadHandshake,
                "resume payload must be the 8-byte resume token",
            );
        };
        let token = u64::from_le_bytes(token_bytes);
        // Held across the restore, so the un-parked snapshot is never
        // observable as "neither parked nor live" by another reactor.
        let mut reg = self.registry();
        // One uniform answer for "no snapshot" and "wrong token": probing
        // ids must not reveal which streams are parked. (A resume racing
        // the eviction that parks the snapshot also lands here — clients
        // retry; the eviction is asynchronous by design.)
        if reg.tokens.get(&stream) != Some(&token) {
            return fail(ErrorCode::NoSnapshot, "no snapshot parked for this stream");
        }
        let Some(snapshot) = reg.snapshots.remove(&stream) else {
            return fail(ErrorCode::NoSnapshot, "no snapshot parked for this stream");
        };
        match self.mux.restore(&snapshot) {
            Ok(id) => {
                debug_assert_eq!(id.0, stream, "snapshot carries its own id");
                // The snapshot carries the key epoch; the new session's
                // sequence space starts at counter 0 *in that epoch*, and
                // the ack tells the client which epoch that is.
                let epoch = self.mux.epoch(id).unwrap_or(0);
                streams.insert(stream, join_seq(epoch, 0));
                ServerStats::bump(&self.stats.streams_resumed);
                Frame::new(FrameKind::HelloAck, stream, 0)
                    .with_flags(flags::RESUMED)
                    .with_payload(encode_resumed_ack(token, epoch))
            }
            Err(e) => {
                // Park it again: the snapshot is still the only copy of
                // the stream's state.
                reg.snapshots.insert(stream, snapshot);
                match e {
                    GatewayError::StreamExists(_) => {
                        fail(ErrorCode::StreamExists, "stream id already open")
                    }
                    other => fail(ErrorCode::Engine, &other.to_string()),
                }
            }
        }
    }

    /// Attaches a stream to the datagram path by resume token: the
    /// MHNP-D side of [`Shared::resume_stream`], called by the datagram
    /// driver for a `DgramResume` packet. Returns the stream's current
    /// key epoch on success, `None` on any refusal — the driver drops
    /// refusals silently (anti-amplification; see the dgram module
    /// docs), so there is no error to distinguish.
    ///
    /// Two shapes succeed, and the caller cannot tell which happened
    /// (that is the point — attach must be idempotent under packet
    /// duplication and retry):
    ///
    /// * the stream is **parked** (its TCP connection died and evicted
    ///   it): the snapshot is restored into the mux exactly as a TCP
    ///   `Resume` would, re-parked on restore failure;
    /// * the stream is **live** in the mux (its TCP connection is still
    ///   up, or a previous attach already restored it): it is attached in
    ///   place — no state moves, so a duplicated `DgramResume` is
    ///   harmless.
    ///
    /// Wrong token, unknown stream, and token-known-but-stream-gone all
    /// get the same uniform non-answer, mirroring the TCP resume path's
    /// refusal to let probers map which ids exist.
    pub(crate) fn dgram_attach(&self, stream: u64, token: u64) -> Option<u32> {
        // Held across the parked-check and the restore, same as TCP
        // resume: the snapshot must never be observable as "neither
        // parked nor live" by a racing reactor.
        let mut reg = self.registry();
        if reg.tokens.get(&stream) != Some(&token) {
            return None;
        }
        if let Some(snapshot) = reg.snapshots.remove(&stream) {
            match self.mux.restore(&snapshot) {
                Ok(id) => {
                    debug_assert_eq!(id.0, stream, "snapshot carries its own id");
                    ServerStats::bump(&self.stats.streams_resumed);
                    Some(self.mux.epoch(id).unwrap_or(0))
                }
                Err(e) => {
                    // Park it again: the snapshot is still the only copy
                    // of the stream's state.
                    reg.snapshots.insert(stream, snapshot);
                    match e {
                        GatewayError::StreamExists(_) => {
                            // The id came back to life between the parked
                            // check and the restore (a TCP resume raced
                            // us). It is live now — attach in place.
                            Some(self.mux.epoch(StreamId(stream)).unwrap_or(0))
                        }
                        _ => None,
                    }
                }
            }
        } else {
            // Token known but the stream may be neither parked nor live
            // (a teardown race): uniform non-answer, client retries.
            self.mux.epoch(StreamId(stream)).ok()
        }
    }
}

/// One readiness loop over a disjoint set of connections. The acceptor
/// feeds it sockets over `intake`; everything else it owns.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    intake: mpsc::Receiver<TcpStream>,
    conns: Vec<Conn<TcpStream>>,
    /// Scratch for socket reads, allocated once per reactor.
    scratch: Vec<u8>,
}

impl Reactor {
    pub(crate) fn new(shared: Arc<Shared>, intake: mpsc::Receiver<TcpStream>) -> Reactor {
        Reactor {
            shared,
            intake,
            conns: Vec::new(),
            scratch: vec![0; 64 << 10],
        }
    }

    /// Runs the loop until `shutdown` turns true (dedicated-thread mode).
    pub(crate) fn run(mut self, shutdown: &AtomicBool) {
        while !shutdown.load(Ordering::Relaxed) {
            if !self.step() {
                std::thread::sleep(self.shared.cfg.idle_sleep);
            }
        }
    }

    /// One intake-drain plus one tick. Returns whether anything happened
    /// (socket adopted, bytes moved, frames handled).
    pub(crate) fn step(&mut self) -> bool {
        let mut progress = false;
        while let Ok(sock) = self.intake.try_recv() {
            self.conns.push(Conn::new(sock));
            progress = true;
        }
        progress | self.tick()
    }

    /// One pass over this reactor's connections. Reads and parses every
    /// connection, funnelling its `Data`/`Rekey` frames into **one**
    /// [`StreamMux::submit_batch`] for the whole reactor tick, then
    /// frames results back in per-connection request order and flushes.
    fn tick(&mut self) -> bool {
        let Reactor {
            shared,
            conns,
            scratch,
            intake: _,
        } = self;
        let cfg = &shared.cfg;
        let mut progress = false;

        // Tickets remember per-conn request order; goodbye frames for
        // framing violations are deferred so they land *after* the
        // replies to valid frames parsed earlier in the same tick.
        // `rekey_pending` holds streams whose Rekey is queued but not yet
        // acked (see `Conn::validate_data`).
        let mut batch: Vec<(StreamId, StreamOp)> = Vec::new();
        let mut tickets: Vec<DataTicket> = Vec::new();
        let mut goodbyes: Vec<(usize, Frame)> = Vec::new();
        let mut rekey_pending: HashSet<u64> = HashSet::new();
        {
            let mut sink = TickSink {
                batch: &mut batch,
                tickets: &mut tickets,
                goodbyes: &mut goodbyes,
                rekey_pending: &mut rekey_pending,
                stats: &shared.stats,
            };
            let mut control = |streams: &mut StreamTable, kex: &mut KexTable, frame: &Frame| {
                shared.handle_control(streams, kex, frame)
            };
            for (idx, conn) in conns.iter_mut().enumerate() {
                progress |= conn.read_tick(scratch, cfg.read_budget, cfg.write_buf_limit);
                progress |= conn.parse_tick(idx, &mut sink, &mut control);
            }
        }

        // The tick's entire crypto workload: one submission, run on this
        // reactor's thread, per-stream errors confined to their slots. (A
        // tick can hold tickets but no batch when every frame was
        // rejected before touching cipher state.)
        if !tickets.is_empty() {
            // Results come back in batch order, which is the order the
            // submitted tickets were minted in, so each submitted ticket
            // takes the next one. They are moved into their reply frames —
            // block vectors are several times the plaintext size, so
            // cloning them here would dominate the reply path.
            let mut results = shared.mux.submit_batch(batch).into_iter();
            for ticket in tickets {
                // Tickets are minted with this tick's enumerate index, so
                // the lookup cannot miss; `get_mut` keeps a bookkeeping bug
                // from panicking the whole reactor.
                let Some(conn) = conns.get_mut(ticket.conn) else {
                    debug_assert!(false, "ticket for a connection this tick never saw");
                    continue;
                };
                match ticket.outcome {
                    TicketOutcome::Submitted { shape } => match (results.next(), shape) {
                        (Some(Ok(StreamOutput::Blocks(blocks))), ReplyShape::Seal { bit_len }) => {
                            conn.push_seal_reply(ticket.stream, ticket.seq, bit_len, &blocks);
                        }
                        (Some(Ok(StreamOutput::Plain(plain))), ReplyShape::Open) => {
                            conn.push_open_reply(ticket.stream, ticket.seq, &plain);
                        }
                        (Some(Ok(StreamOutput::Rekeyed { epoch })), ReplyShape::Rekey) => {
                            // The rotation took: retire the old resume
                            // token (a snapshot thief must not outlive a
                            // rekey), restart the sequence space in the
                            // new epoch, and hand both back in the ack.
                            let token = {
                                let mut reg = shared.registry();
                                let token = reg.fresh_token(&shared.token_rand);
                                reg.tokens.insert(ticket.stream, token);
                                token
                            };
                            conn.streams.insert(ticket.stream, join_seq(epoch, 0));
                            ServerStats::bump(&shared.stats.streams_rekeyed);
                            conn.push_rekey_ack(ticket.stream, ticket.seq, epoch, token);
                        }
                        (Some(Err(e)), _) => {
                            // The one machine-distinguishable failure: a
                            // rotation racing another rotation.
                            let code = match e {
                                GatewayError::StaleEpoch { .. } => ErrorCode::StaleEpoch,
                                _ => ErrorCode::Engine,
                            };
                            conn.push_error(ticket.stream, ticket.seq, code, &e.to_string());
                        }
                        (_, _) => {
                            // The gateway answered a seal with plaintext
                            // (or vice versa), or returned fewer results
                            // than it was given ops — an engine bug, not a
                            // client error, and not worth a thread.
                            debug_assert!(false, "one result per op, matching its direction");
                            conn.push_error(
                                ticket.stream,
                                ticket.seq,
                                ErrorCode::Engine,
                                "internal: reply shape mismatch",
                            );
                        }
                    },
                    TicketOutcome::Rejected { code, detail } => {
                        conn.push_error(ticket.stream, ticket.seq, code, &detail);
                    }
                }
                ServerStats::bump(&shared.stats.frames_sent);
            }
            progress = true;
        }

        // Goodbyes go out only now, behind every reply the connection is
        // still owed from this tick.
        for (idx, frame) in goodbyes {
            // Goodbye indices were minted by the same enumerate loop that
            // filled `conns`; a miss is a bookkeeping bug, and the peer is
            // being hung up on anyway.
            let Some(conn) = conns.get_mut(idx) else {
                debug_assert!(false, "goodbye for a connection this tick never saw");
                continue;
            };
            conn.push_frame(&frame);
            ServerStats::bump(&shared.stats.frames_sent);
            progress = true;
        }

        for conn in conns.iter_mut() {
            progress |= conn.flush_tick();
        }
        Self::reap_dead(shared, conns);
        progress
    }

    /// Tears down dead connections, parking each owned stream's snapshot
    /// for a future `Resume` — possibly arriving through a connection on
    /// a *different* reactor (or closing it when the store is full).
    fn reap_dead(shared: &Shared, conns: &mut Vec<Conn<TcpStream>>) {
        for conn in conns.iter_mut() {
            conn.expire_grace(shared.cfg.close_grace);
        }
        for conn in conns.iter_mut() {
            if !conn.dead {
                continue;
            }
            ServerStats::bump(&shared.stats.connections_closed);
            shared
                .stats
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
            let streams: Vec<u64> = conn.streams.drain().map(|(id, _)| id).collect();
            for id in streams {
                // Registry held across the evict: between "removed from
                // the mux" and "snapshot parked" no other reactor can
                // observe the stream as simply gone.
                let mut reg = shared.registry();
                if reg.snapshots.len() < shared.cfg.snapshot_capacity {
                    if let Ok(snap) = shared.mux.evict(StreamId(id)) {
                        reg.snapshots.insert(id, snap);
                        // The token survives with the snapshot: a Resume
                        // presenting it reclaims the stream.
                        ServerStats::bump(&shared.stats.streams_evicted);
                    }
                } else {
                    let _ = shared.mux.close(StreamId(id));
                    reg.tokens.remove(&id);
                }
            }
        }
        conns.retain(|c| !c.dead);
    }
}
