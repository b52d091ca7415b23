//! A sharded multi-stream gateway: thousands of concurrent cipher streams
//! in one table.
//!
//! The paper's MHHEA core sits on a live data-communication link; a
//! deployment serves *many* such links at once. [`StreamMux`] is that
//! layer in software: it owns one [`EncryptSession`]/[`DecryptSession`]
//! pair per [`StreamId`] and keeps them in a sharded session table (one
//! lock per shard, so independent streams rarely contend). Parallelism
//! comes from the callers: every method takes `&self`, so several threads
//! (the transport's reactors) drive one mux at once.
//!
//! Two layers of API:
//!
//! * [`StreamMux::encrypt`]/[`StreamMux::decrypt`] — one message on one
//!   stream, raw 16-bit blocks.
//! * [`StreamMux::submit_batch`] — many encrypts, decrypts and rekeys
//!   across many streams, run in batch order on the calling thread.
//!
//! Streams are evictable: [`StreamMux::evict`] serialises a stream's
//! entire resume state (key, cursors, LFSR state) into a snapshot byte
//! string and [`StreamMux::restore`] resumes it bit-exactly — the software
//! analogue of context-switching the FPGA core between channels.
//!
//! # Snapshot format
//!
//! Stream snapshot (little-endian; **contains key material** — protect it
//! like the key itself). Version 2 is emitted; version 1 — the same
//! layout truncated after the decrypt cursor plus the key pairs — is
//! still restored (as epoch 0 with no keyring):
//!
//! ```text
//! offset size field
//! 0      4    magic  "MHSS"
//! 4      1    version (2; v1 accepted on restore)
//! 5      1    algorithm (0 = HHEA, 1 = MHHEA)
//! 6      1    profile   (0 = streaming, 1 = hardware-faithful)
//! 7      1    current-key pair count P (1..=16)
//! 8      8    stream id
//! 16     2    LFSR state (nonzero)
//! 18     9    encrypt cursor (StreamCursor::to_bytes)
//! 27     9    decrypt cursor (StreamCursor::to_bytes)
//! ---- v1 continues: P key-pair bytes and ends ----
//! 36     4    key epoch (u32)
//! 40     2    keyring master seed (0 iff no keyring)
//! 42     1    keyring key count R (0 = no keyring)
//! 43     1    reserved (0)
//! 44     P    current key pairs, one byte each: left | right << 3
//! 44+P   —    R ring keys, each: 1-byte pair count Pᵢ ∥ Pᵢ pair bytes
//! ```
//!
//! Carrying the epoch and the ring is what lets an evicted stream resume
//! bit-exactly *across a key rotation* and keep rotating afterwards.
//!
//! # Examples
//!
//! ```
//! use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
//! use mhhea::Key;
//!
//! let key = Key::from_nibbles(&[(0, 3), (2, 5)])?;
//! let tx = StreamMux::new();
//! let rx = StreamMux::new();
//! for id in 0..4 {
//!     tx.open(StreamId(id), StreamConfig::new(key.clone()))?;
//!     rx.open(StreamId(id), StreamConfig::new(key.clone()))?;
//! }
//!
//! let messages: Vec<Vec<u8>> = (0..4).map(|id| format!("message on {id}").into_bytes()).collect();
//! let seals = (0..4).zip(&messages).map(|(id, m)| (StreamId(id), StreamOp::Encrypt(m.clone())));
//! let mut opens = Vec::new();
//! for ((id, m), sealed) in (0..4).zip(&messages).zip(tx.submit_batch(seals.collect())) {
//!     let StreamOutput::Blocks(blocks) = sealed? else { unreachable!("encrypts yield blocks") };
//!     opens.push((StreamId(id), StreamOp::Decrypt { blocks, bit_len: m.len() * 8 }));
//! }
//! for (opened, m) in rx.submit_batch(opens).into_iter().zip(&messages) {
//!     assert_eq!(opened?, StreamOutput::Plain(m.clone()));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::key::{KeyError, KeyRing, MAX_PAIRS};
use crate::pipeline::chunk_seed;
use crate::session::{CursorDecodeError, DecryptSession, EncryptSession, StreamCursor};
use crate::source::LfsrSource;
use crate::{Algorithm, Key, MhheaError, Profile};

/// Stream snapshot magic bytes.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MHSS";
/// Stream snapshot format version emitted by [`StreamMux::evict`] /
/// [`StreamMux::snapshot`] (v2: carries the key epoch and the keyring).
pub const SNAPSHOT_VERSION: u8 = 2;
/// The legacy snapshot version (no epoch, no keyring);
/// [`StreamMux::restore`] still accepts it.
pub const SNAPSHOT_VERSION_V1: u8 = 1;
/// Snapshot v1 header size (also the v1/v2 shared prefix: everything
/// through the decrypt cursor).
pub const SNAPSHOT_HEADER_LEN: usize = 36;
/// Snapshot v2 header size (v1 prefix + epoch, master seed, ring count).
pub const SNAPSHOT_V2_HEADER_LEN: usize = 44;

/// Default shard count for [`StreamMux::new`].
pub const DEFAULT_SHARDS: usize = 64;

/// Identifies one cipher stream within a [`StreamMux`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl core::fmt::Display for StreamId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// Per-stream cipher parameters handed to [`StreamMux::open`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The stream's key (both directions share it).
    pub key: Key,
    /// Cipher variant (default MHHEA).
    pub algorithm: Algorithm,
    /// Buffering profile (default streaming).
    pub profile: Profile,
    /// LFSR seed for the encrypt side's hiding vectors (nonzero; default
    /// `0xACE1`).
    pub seed: u16,
    /// Epoch-numbered key material enabling [`StreamMux::rekey`] /
    /// [`StreamOp::Rekey`] on this stream (default: none — the stream is
    /// pinned to `key` for its whole life and any rekey fails with
    /// [`GatewayError::NoKeyRing`]).
    pub ring: Option<KeyRing>,
}

impl StreamConfig {
    /// A config with the defaults (MHHEA, streaming profile, seed
    /// `0xACE1`, no keyring).
    pub fn new(key: Key) -> Self {
        StreamConfig {
            key,
            algorithm: Algorithm::Mhhea,
            profile: Profile::Streaming,
            seed: 0xACE1,
            ring: None,
        }
    }

    /// Selects the cipher variant.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the buffering profile.
    #[must_use]
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Selects the encrypt-side LFSR seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u16) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a [`KeyRing`] so the stream can rekey, **and** aligns the
    /// opening materials with the ring's epoch 0: `key` becomes
    /// [`KeyRing::key`]`(0)` and `seed` becomes [`KeyRing::seed`]`(0)`
    /// (the master seed), so the stream's pre-rotation behaviour is
    /// byte-identical to a plain `StreamConfig::new(ring.key(0))` with
    /// that seed.
    #[must_use]
    pub fn with_ring(mut self, ring: KeyRing) -> Self {
        self.key = ring.key(0).clone();
        self.seed = ring.seed(0);
        self.ring = Some(ring);
        self
    }
}

/// Errors decoding a stream snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotDecodeError {
    /// The snapshot does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Unsupported snapshot version.
    UnsupportedVersion(u8),
    /// The byte stream ended early.
    Truncated {
        /// Bytes needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// Unknown algorithm tag.
    UnknownAlgorithm(u8),
    /// Unknown profile tag.
    UnknownProfile(u8),
    /// Key pair count outside `1..=16`.
    BadPairCount(u8),
    /// The snapshotted LFSR state is zero (the lattice fixed point — a
    /// live stream can never reach it).
    ZeroLfsrState,
    /// A v2 snapshot carries a keyring whose master seed is zero.
    ZeroRingSeed,
    /// A cursor field failed to decode.
    Cursor(CursorDecodeError),
    /// A key pair byte failed validation.
    Key(KeyError),
}

impl core::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotDecodeError::BadMagic => write!(f, "not a stream snapshot"),
            SnapshotDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotDecodeError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            SnapshotDecodeError::UnknownAlgorithm(a) => write!(f, "unknown algorithm tag {a}"),
            SnapshotDecodeError::UnknownProfile(p) => write!(f, "unknown profile tag {p}"),
            SnapshotDecodeError::BadPairCount(n) => {
                write!(f, "key pair count {n} out of range (1..=16)")
            }
            SnapshotDecodeError::ZeroLfsrState => write!(f, "snapshotted LFSR state is zero"),
            SnapshotDecodeError::ZeroRingSeed => {
                write!(f, "snapshotted keyring master seed is zero")
            }
            SnapshotDecodeError::Cursor(e) => write!(f, "cursor field: {e}"),
            SnapshotDecodeError::Key(e) => write!(f, "key field: {e}"),
        }
    }
}

impl std::error::Error for SnapshotDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotDecodeError::Cursor(e) => Some(e),
            SnapshotDecodeError::Key(e) => Some(e),
            _ => None,
        }
    }
}

/// Errors from gateway operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GatewayError {
    /// [`StreamMux::open`]/[`StreamMux::restore`] hit an id already in the
    /// table.
    StreamExists(StreamId),
    /// The id is not in the table (never opened, closed, or evicted).
    UnknownStream(StreamId),
    /// An engine-level failure on the stream's session.
    Engine(MhheaError),
    /// A stream snapshot failed to decode.
    Snapshot(SnapshotDecodeError),
    /// [`StreamMux::evict_into`] could not write the snapshot to the
    /// caller's sink. The stream was **not** removed: it is still open and
    /// fully usable.
    SnapshotSink {
        /// The failed write's [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
    },
    /// A rekey was requested on a stream opened without a [`KeyRing`]
    /// (see [`StreamConfig::with_ring`]). The stream is untouched.
    NoKeyRing(StreamId),
    /// A rekey named an epoch that is not strictly newer than the
    /// stream's current one (a replayed or out-of-order rotation). The
    /// stream is untouched.
    StaleEpoch {
        /// The stream's current epoch.
        current: u32,
        /// The rejected epoch.
        requested: u32,
    },
}

impl core::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GatewayError::StreamExists(id) => write!(f, "stream {} already open", id.0),
            GatewayError::UnknownStream(id) => write!(f, "unknown stream {}", id.0),
            GatewayError::Engine(e) => write!(f, "engine failure: {e}"),
            GatewayError::Snapshot(e) => write!(f, "snapshot decode: {e}"),
            GatewayError::SnapshotSink { kind } => {
                write!(f, "snapshot sink write failed ({kind}); stream kept open")
            }
            GatewayError::NoKeyRing(id) => {
                write!(f, "stream {} was opened without a keyring", id.0)
            }
            GatewayError::StaleEpoch { current, requested } => write!(
                f,
                "rekey to epoch {requested} rejected: stream is already at epoch {current}"
            ),
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Engine(e) => Some(e),
            GatewayError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MhheaError> for GatewayError {
    fn from(e: MhheaError) -> Self {
        GatewayError::Engine(e)
    }
}

impl From<SnapshotDecodeError> for GatewayError {
    fn from(e: SnapshotDecodeError) -> Self {
        GatewayError::Snapshot(e)
    }
}

/// One unit of work in a [`StreamMux::submit_batch`] call: which half of
/// the duplex stream to drive, and with what.
///
/// A transport serving live connections sees encrypts and decrypts
/// interleaved in one tick; `submit_batch` runs the whole mixed tick in
/// one call without reordering operations on streams doing both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamOp {
    /// Encrypt the plaintext bytes on the stream's encrypt session.
    Encrypt(Vec<u8>),
    /// Decrypt cipher blocks on the stream's decrypt session.
    Decrypt {
        /// The message's cipher blocks.
        blocks: Vec<u16>,
        /// The message's plaintext bit length.
        bit_len: usize,
    },
    /// Rotate the stream (both directions, atomically) to a new
    /// [`KeyRing`] epoch. A batch runs strictly in order, so a batch
    /// mixing rekeys with encrypts and decrypts applies them to each
    /// stream *in batch order* — operations before the rekey run under
    /// the old epoch, operations after it under the new one — and a
    /// failed rekey is confined to its own slot.
    Rekey {
        /// The epoch to rotate to (must be strictly newer).
        epoch: u32,
    },
}

/// The output of one [`StreamOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamOutput {
    /// Cipher blocks produced by [`StreamOp::Encrypt`].
    Blocks(Vec<u16>),
    /// Plaintext bytes recovered by [`StreamOp::Decrypt`].
    Plain(Vec<u8>),
    /// Acknowledges a [`StreamOp::Rekey`]: the stream now runs `epoch`.
    Rekeyed {
        /// The epoch the stream rotated to.
        epoch: u32,
    },
}

/// One duplex stream: an encrypt endpoint, a decrypt endpoint tracking the
/// peer's encrypt side, and the ring it rekeys from. Key, algorithm,
/// profile and epoch are read from `enc`; both sessions always agree on
/// them.
#[derive(Debug)]
struct StreamState {
    enc: EncryptSession<LfsrSource>,
    dec: DecryptSession,
    /// Present iff the stream can rekey.
    ring: Option<KeyRing>,
}

impl StreamState {
    /// Runs one batch operation on this stream.
    fn apply(&mut self, id: StreamId, op: StreamOp) -> Result<StreamOutput, GatewayError> {
        match op {
            StreamOp::Encrypt(msg) => Ok(StreamOutput::Blocks(self.enc.encrypt(&msg)?)),
            StreamOp::Decrypt { blocks, bit_len } => {
                Ok(StreamOutput::Plain(self.dec.decrypt(&blocks, bit_len)?))
            }
            StreamOp::Rekey { epoch } => Ok(StreamOutput::Rekeyed {
                epoch: self.rekey(id, epoch)?,
            }),
        }
    }

    /// Rotates both sessions to `epoch` atomically: the epoch's key from
    /// the ring, a fresh LFSR reseed on the encrypt side, both cursors
    /// back at the stream origin.
    fn rekey(&mut self, id: StreamId, epoch: u32) -> Result<u32, GatewayError> {
        let ring = self.ring.as_ref().ok_or(GatewayError::NoKeyRing(id))?;
        let (key, seed) = (ring.key(epoch).clone(), ring.seed(epoch));
        self.rotate(key, seed, epoch)
    }

    /// Rotates both sessions to `epoch` with externally derived material
    /// (a fresh Diffie–Hellman exchange) instead of a ring lookup. The
    /// stream's ring is replaced by a single-entry ring holding exactly
    /// this key and seed, so snapshots of the stream stay restorable.
    fn rekey_with(&mut self, key: Key, seed: u16, epoch: u32) -> Result<u32, GatewayError> {
        let ring = KeyRing::single(key.clone(), seed);
        self.rotate(key, seed, epoch)?;
        // A single-key ring only rejects a zero master seed, which
        // `rotate` has just refused, so the ring is always present.
        self.ring = ring.ok();
        Ok(epoch)
    }

    /// Moves both sessions to `epoch` under `key` with a fresh LFSR from
    /// `seed`; on any error neither session moves.
    fn rotate(&mut self, key: Key, seed: u16, epoch: u32) -> Result<u32, GatewayError> {
        if epoch <= self.enc.epoch() {
            return Err(self.stale(epoch));
        }
        let source =
            LfsrSource::new(seed).map_err(|_| GatewayError::Engine(MhheaError::InvalidSeed))?;
        // The epoch check above already passed, so neither session-level
        // rekey can report a stale epoch; the two sessions always move
        // together.
        self.enc.rekey_with(key.clone(), source, epoch)?;
        self.dec.rekey_with(key, epoch)?;
        Ok(epoch)
    }

    /// The refusal of `requested` against the epoch in force.
    fn stale(&self, requested: u32) -> GatewayError {
        GatewayError::StaleEpoch {
            current: self.enc.epoch(),
            requested,
        }
    }
}

type Shard = Mutex<HashMap<u64, StreamState>>;

/// Locks a shard, recovering from poisoning. Every gateway operation
/// either completes or leaves its stream untouched, so the table behind a
/// poisoned lock is still consistent stream-by-stream; refusing service
/// on every stream in the shard forever would be strictly worse.
fn lock_shard(shard: &Shard) -> MutexGuard<'_, HashMap<u64, StreamState>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded table of concurrent cipher streams.
///
/// See the [module docs](crate::gateway) for the API tour and the
/// snapshot format. Every method takes `&self`, so one gateway can be
/// driven from many threads at once (borrowed, or shared in an `Arc`).
#[derive(Debug)]
pub struct StreamMux {
    // lock-order: mux_shard
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the count is a power of two.
    mask: u64,
}

impl Default for StreamMux {
    fn default() -> Self {
        StreamMux::new()
    }
}

impl StreamMux {
    /// A mux with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        StreamMux::with_shards(DEFAULT_SHARDS)
    }

    /// A mux with at least `shards` shards (rounded up to a power of two,
    /// minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shards: Box<[Shard]> = (0..count).map(|_| Mutex::new(HashMap::new())).collect();
        StreamMux {
            shards,
            mask: (count - 1) as u64,
        }
    }

    /// SplitMix64 avalanche so sequential ids spread across shards.
    fn shard_of(&self, id: StreamId) -> usize {
        let mut z = id.0 ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & self.mask) as usize
    }

    /// The shard holding `id`'s state.
    fn shard(&self, id: StreamId) -> &Shard {
        &self.shards[self.shard_of(id)] // lint: allow(panic-path, reason = "shard_of masks the index below shards.len(), a power of two")
    }

    /// Runs `f` on `id`'s state under its shard lock.
    fn with_stream<R>(
        &self,
        id: StreamId,
        f: impl FnOnce(&mut StreamState) -> Result<R, GatewayError>,
    ) -> Result<R, GatewayError> {
        let mut shard = lock_shard(self.shard(id));
        let state = shard
            .get_mut(&id.0)
            .ok_or(GatewayError::UnknownStream(id))?;
        f(state)
    }

    /// Number of shards in the session table.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of open streams (locks each shard briefly).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).len()).sum()
    }

    /// True when no streams are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `id` is an open stream.
    pub fn contains(&self, id: StreamId) -> bool {
        lock_shard(self.shard(id)).contains_key(&id.0)
    }

    /// Opens a fresh stream at the cipher-stream origin.
    ///
    /// # Errors
    ///
    /// [`GatewayError::StreamExists`] if `id` is already open;
    /// [`GatewayError::Engine`] ([`MhheaError::InvalidSeed`]) for a zero
    /// seed.
    pub fn open(&self, id: StreamId, config: StreamConfig) -> Result<(), GatewayError> {
        let source = LfsrSource::new(config.seed)
            .map_err(|_| GatewayError::Engine(MhheaError::InvalidSeed))?;
        let state = StreamState {
            dec: DecryptSession::with_options(config.key.clone(), config.algorithm, config.profile),
            enc: EncryptSession::with_options(config.key, source, config.algorithm, config.profile),
            ring: config.ring,
        };
        self.insert(id, state)
    }

    fn insert(&self, id: StreamId, state: StreamState) -> Result<(), GatewayError> {
        let mut shard = lock_shard(self.shard(id));
        if shard.contains_key(&id.0) {
            return Err(GatewayError::StreamExists(id));
        }
        shard.insert(id.0, state);
        Ok(())
    }

    /// Closes a stream, discarding its state.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`] if `id` is not open.
    pub fn close(&self, id: StreamId) -> Result<(), GatewayError> {
        lock_shard(self.shard(id))
            .remove(&id.0)
            .map(|_| ())
            .ok_or(GatewayError::UnknownStream(id))
    }

    /// Encrypts one message on one stream, advancing its cursor.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; engine failures as
    /// [`GatewayError::Engine`].
    pub fn encrypt(&self, id: StreamId, message: &[u8]) -> Result<Vec<u16>, GatewayError> {
        self.with_stream(id, |s| Ok(s.enc.encrypt(message)?))
    }

    /// Decrypts one message's blocks on one stream, advancing its cursor.
    ///
    /// # Errors
    ///
    /// See [`StreamMux::encrypt`]; additionally
    /// [`MhheaError::CiphertextTruncated`] (wrapped) when `blocks` carry
    /// fewer than `bit_len` bits.
    pub fn decrypt(
        &self,
        id: StreamId,
        blocks: &[u16],
        bit_len: usize,
    ) -> Result<Vec<u8>, GatewayError> {
        self.with_stream(id, |s| Ok(s.dec.decrypt(blocks, bit_len)?))
    }

    /// The stream's current encrypt-side cursor (for monitoring).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`].
    pub fn cursor(&self, id: StreamId) -> Result<StreamCursor, GatewayError> {
        self.with_stream(id, |s| Ok(s.enc.cursor()))
    }

    /// The stream's current key epoch (0 until the first rekey).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`].
    pub fn epoch(&self, id: StreamId) -> Result<u32, GatewayError> {
        self.with_stream(id, |s| Ok(s.enc.epoch()))
    }

    /// Rotates one stream (both directions, atomically) to a new
    /// [`KeyRing`] epoch: the epoch's key, a fresh LFSR reseed derived
    /// via [`KeyRing::seed`], both cursors back at the stream origin.
    /// Returns the epoch now in force. Batched form:
    /// [`StreamOp::Rekey`] through [`StreamMux::submit_batch`].
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; [`GatewayError::NoKeyRing`] when
    /// the stream was opened without a ring; [`GatewayError::StaleEpoch`]
    /// unless `epoch` is strictly newer than the stream's current epoch.
    /// On every error the stream is untouched and fully usable.
    pub fn rekey(&self, id: StreamId, epoch: u32) -> Result<u32, GatewayError> {
        self.with_stream(id, |s| s.rekey(id, epoch))
    }

    /// Rotates one stream (both directions, atomically) to `epoch` using
    /// externally derived material — a fresh Diffie–Hellman exchange —
    /// instead of a ring lookup: the supplied key, an LFSR reseed from
    /// the supplied seed, both cursors back at the stream origin. The
    /// stream's ring is replaced by a single-entry ring holding exactly
    /// this material, so later snapshots and ring rekeys stay coherent.
    /// Returns the epoch now in force.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; [`GatewayError::StaleEpoch`]
    /// unless `epoch` is strictly newer than the stream's current epoch;
    /// [`GatewayError::Engine`] for a zero `seed`. On every error the
    /// stream is untouched and fully usable.
    pub fn rekey_with(
        &self,
        id: StreamId,
        epoch: u32,
        key: Key,
        seed: u16,
    ) -> Result<u32, GatewayError> {
        self.with_stream(id, |s| s.rekey_with(key, seed, epoch))
    }

    /// Seals one **chunk-addressed** message on a stream: a one-shot
    /// encrypt session seeded with `chunk_seed(ring.seed(epoch),
    /// chunk_index)` — the container-v2 per-chunk derivation — so every
    /// chunk is independently decryptable, in any order, with any subset
    /// delivered. The stream's duplex cursors are **not** advanced: chunk
    /// traffic and the sequential [`StreamMux::encrypt`] path coexist on
    /// one stream without desynchronising each other.
    ///
    /// `epoch` must name the stream's *current* epoch — the caller's view
    /// of which key the chunk is sealed under is checked, not assumed.
    /// Chunk indices must never be reused within an epoch (each index
    /// names one keystream; reuse would be a two-time pad) — the caller
    /// owns that discipline, e.g. with a monotonic per-stream counter and
    /// a receive-side replay window.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; [`GatewayError::NoKeyRing`] when
    /// the stream was opened without a ring (no chunk-seed master to
    /// derive from); [`GatewayError::StaleEpoch`] unless `epoch` is the
    /// stream's current epoch; engine failures as
    /// [`GatewayError::Engine`]. On every error the stream is untouched.
    pub fn seal_chunk(
        &self,
        id: StreamId,
        epoch: u32,
        chunk_index: u32,
        message: &[u8],
    ) -> Result<Vec<u16>, GatewayError> {
        self.with_stream(id, |s| {
            let ring = s.ring.as_ref().ok_or(GatewayError::NoKeyRing(id))?;
            if epoch != s.enc.epoch() {
                return Err(s.stale(epoch));
            }
            let seed = chunk_seed(ring.seed(epoch), chunk_index);
            let source =
                LfsrSource::new(seed).map_err(|_| GatewayError::Engine(MhheaError::InvalidSeed))?;
            let (key, algorithm, profile) = s.enc.params();
            let mut enc = EncryptSession::with_options(key.clone(), source, algorithm, profile);
            Ok(enc.encrypt(message)?)
        })
    }

    /// Opens one chunk sealed by [`StreamMux::seal_chunk`] (this mux or
    /// any peer holding the same key): the stream's decrypt session
    /// replayed from the stream origin — decryption consults only the key,
    /// so no seed derivation is needed and chunks open in any order. The
    /// stream's duplex cursors are **not** advanced.
    ///
    /// `epoch` must name the stream's current epoch (the chunk was sealed
    /// under that epoch's key; opening it under any other would produce
    /// garbage, not an error — so the mismatch is refused up front).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; [`GatewayError::StaleEpoch`]
    /// unless `epoch` is current; [`GatewayError::Engine`] (e.g.
    /// truncated ciphertext). On every error the stream is untouched.
    pub fn open_chunk(
        &self,
        id: StreamId,
        epoch: u32,
        blocks: &[u16],
        bit_len: usize,
    ) -> Result<Vec<u8>, GatewayError> {
        self.with_stream(id, |s| {
            if epoch != s.enc.epoch() {
                return Err(s.stale(epoch));
            }
            Ok(s.dec
                .decrypt_at(&mut StreamCursor::start(), blocks, bit_len)?)
        })
    }

    /// Runs a mixed batch of encrypts, decrypts and key rotations on the
    /// calling thread, in batch order, each operation under its stream's
    /// shard lock. `results[i]` corresponds to `batch[i]`; a failing
    /// stream fails only its own slots — shard-mates in the same batch
    /// are untouched. Operations on the same stream (in any direction,
    /// including [`StreamOp::Rekey`]) keep their batch order, so work
    /// before a rekey runs under the old epoch and work after it under
    /// the new one.
    ///
    /// ```
    /// use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
    /// use mhhea::{Key, KeyRing};
    ///
    /// let ring = KeyRing::single(Key::from_nibbles(&[(0, 3), (2, 5)])?, 0xACE1)?;
    /// let mux = StreamMux::new();
    /// mux.open(StreamId(1), StreamConfig::new(ring.key(0).clone()).with_ring(ring))?;
    ///
    /// let results = mux.submit_batch(vec![
    ///     (StreamId(1), StreamOp::Encrypt(b"old epoch".to_vec())),
    ///     (StreamId(1), StreamOp::Rekey { epoch: 1 }),
    ///     (StreamId(1), StreamOp::Encrypt(b"new epoch".to_vec())),
    /// ]);
    /// assert!(matches!(results[0], Ok(StreamOutput::Blocks(_))));
    /// assert_eq!(results[1], Ok(StreamOutput::Rekeyed { epoch: 1 }));
    /// assert!(matches!(results[2], Ok(StreamOutput::Blocks(_))));
    /// assert_eq!(mux.epoch(StreamId(1))?, 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn submit_batch(
        &self,
        batch: Vec<(StreamId, StreamOp)>,
    ) -> Vec<Result<StreamOutput, GatewayError>> {
        batch
            .into_iter()
            .map(|(id, op)| self.with_stream(id, |s| s.apply(id, op)))
            .collect()
    }

    /// Serialises a stream's full resume state **without** removing it
    /// (format in the [module docs](crate::gateway); **contains the
    /// key**). The stream keeps running; the snapshot is a point-in-time
    /// checkpoint that [`StreamMux::restore`] accepts on any mux where the
    /// id is free.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`].
    pub fn snapshot(&self, id: StreamId) -> Result<Vec<u8>, GatewayError> {
        self.with_stream(id, |state| Ok(encode_snapshot(id, state)))
    }

    /// Removes a stream and serialises its full resume state (format in
    /// the [module docs](crate::gateway); **contains the key**).
    ///
    /// Eviction is atomic: the snapshot is fully encoded *before* the
    /// stream leaves the table, so no failure mode (including a panic in
    /// the encoder) can discard live stream state without handing the
    /// caller the bytes that resume it.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`].
    pub fn evict(&self, id: StreamId) -> Result<Vec<u8>, GatewayError> {
        let mut shard = lock_shard(self.shard(id));
        let state = shard.get(&id.0).ok_or(GatewayError::UnknownStream(id))?;
        let snapshot = encode_snapshot(id, state);
        shard.remove(&id.0);
        Ok(snapshot)
    }

    /// Like [`StreamMux::evict`], but writes the snapshot straight into a
    /// caller-supplied sink (a file, a socket, an append-only journal).
    ///
    /// The write happens under the stream's shard lock — nothing can
    /// advance the stream between the state being serialised and the
    /// stream being removed — and the stream is removed only after the
    /// sink accepted every byte. If the sink fails midway the stream
    /// **stays open and usable**; prefer a buffered or in-memory sink when
    /// latency on the shard matters.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownStream`]; [`GatewayError::SnapshotSink`]
    /// when the sink rejects the bytes (stream kept).
    pub fn evict_into(
        &self,
        id: StreamId,
        sink: &mut impl std::io::Write,
    ) -> Result<(), GatewayError> {
        let mut shard = lock_shard(self.shard(id));
        let state = shard.get(&id.0).ok_or(GatewayError::UnknownStream(id))?;
        let snapshot = encode_snapshot(id, state);
        sink.write_all(&snapshot)
            .and_then(|()| sink.flush())
            .map_err(|e| GatewayError::SnapshotSink { kind: e.kind() })?;
        shard.remove(&id.0);
        Ok(())
    }

    /// Resumes a stream from an [`StreamMux::evict`] snapshot, bit-exact:
    /// the next message encrypts and decrypts exactly as it would have on
    /// the uninterrupted stream.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Snapshot`] for malformed bytes;
    /// [`GatewayError::StreamExists`] if the id is already open again.
    pub fn restore(&self, snapshot: &[u8]) -> Result<StreamId, GatewayError> {
        let (id, state) = decode_snapshot(snapshot)?;
        self.insert(id, state)?;
        Ok(id)
    }
}

/// Little-endian `u16` at `at`, or `None` past the end.
fn le_u16(bytes: &[u8], at: usize) -> Option<u16> {
    bytes
        .get(at..at.checked_add(2)?)?
        .try_into()
        .ok()
        .map(u16::from_le_bytes)
}

/// Little-endian `u32` at `at`, or `None` past the end.
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at.checked_add(4)?)?
        .try_into()
        .ok()
        .map(u32::from_le_bytes)
}

/// Little-endian `u64` at `at`, or `None` past the end.
fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at.checked_add(8)?)?
        .try_into()
        .ok()
        .map(u64::from_le_bytes)
}

fn algorithm_tag(algorithm: Algorithm) -> u8 {
    match algorithm {
        Algorithm::Hhea => 0,
        Algorithm::Mhhea => 1,
    }
}

fn profile_tag(profile: Profile) -> u8 {
    match profile {
        Profile::Streaming => 0,
        Profile::HardwareFaithful => 1,
    }
}

fn push_pairs(out: &mut Vec<u8>, key: &Key) {
    for p in key.pairs() {
        let (l, r) = p.halves();
        out.push(l | (r << 3));
    }
}

fn encode_snapshot(id: StreamId, state: &StreamState) -> Vec<u8> {
    let (key, algorithm, profile) = state.enc.params();
    let pairs = key.pairs();
    let mut out = Vec::with_capacity(SNAPSHOT_V2_HEADER_LEN + pairs.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    out.push(algorithm_tag(algorithm));
    out.push(profile_tag(profile));
    // lint: allow(truncating-cast, reason = "Key::from_nibbles caps a key at MAX_PAIRS = 16 pairs")
    out.push(pairs.len() as u8);
    out.extend_from_slice(&id.0.to_le_bytes());
    out.extend_from_slice(&state.enc.source().state().to_le_bytes());
    out.extend_from_slice(&state.enc.cursor().to_bytes());
    out.extend_from_slice(&state.dec.cursor().to_bytes());
    out.extend_from_slice(&state.enc.epoch().to_le_bytes());
    match &state.ring {
        Some(ring) => {
            out.extend_from_slice(&ring.master_seed().to_le_bytes());
            // lint: allow(truncating-cast, reason = "KeyRing::new caps a ring at MAX_RING_KEYS = 255 keys")
            out.push(ring.len() as u8);
            out.push(0); // reserved
            push_pairs(&mut out, key);
            for key in ring.keys() {
                // lint: allow(truncating-cast, reason = "Key::from_nibbles caps a key at MAX_PAIRS = 16 pairs")
                out.push(key.len() as u8);
                push_pairs(&mut out, key);
            }
        }
        None => {
            out.extend_from_slice(&0u16.to_le_bytes());
            out.push(0);
            out.push(0); // reserved
            push_pairs(&mut out, key);
        }
    }
    out
}

/// Reads one `pair count ∥ pairs` key out of a snapshot's trailing bytes.
fn take_key(bytes: &[u8], at: &mut usize) -> Result<Key, SnapshotDecodeError> {
    let count = *bytes.get(*at).ok_or(SnapshotDecodeError::Truncated {
        need: *at + 1,
        have: bytes.len(),
    })? as usize;
    if count == 0 || count > MAX_PAIRS {
        // lint: allow(truncating-cast, reason = "count was widened from the single snapshot byte read above, so it is < 256")
        return Err(SnapshotDecodeError::BadPairCount(count as u8));
    }
    let need = *at + 1 + count;
    let Some(key_bytes) = bytes.get(*at + 1..need) else {
        return Err(SnapshotDecodeError::Truncated {
            need,
            have: bytes.len(),
        });
    };
    let key = key_from_pair_bytes(key_bytes)?;
    *at = need;
    Ok(key)
}

/// Rebuilds a key from packed `left | right << 3` pair bytes.
fn key_from_pair_bytes(bytes: &[u8]) -> Result<Key, SnapshotDecodeError> {
    let nibbles: Vec<(u8, u8)> = bytes.iter().map(|&b| (b & 0x07, (b >> 3) & 0x07)).collect();
    Key::from_nibbles(&nibbles).map_err(SnapshotDecodeError::Key)
}

fn decode_snapshot(bytes: &[u8]) -> Result<(StreamId, StreamState), SnapshotDecodeError> {
    let truncated = |need: usize| SnapshotDecodeError::Truncated {
        need,
        have: bytes.len(),
    };
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    }
    if bytes.get(0..4) != Some(SNAPSHOT_MAGIC.as_slice()) {
        return Err(SnapshotDecodeError::BadMagic);
    }
    let (Some(&version), Some(&alg), Some(&prof), Some(&raw_pairs)) =
        (bytes.get(4), bytes.get(5), bytes.get(6), bytes.get(7))
    else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_V1 {
        return Err(SnapshotDecodeError::UnsupportedVersion(version));
    }
    let algorithm = match alg {
        0 => Algorithm::Hhea,
        1 => Algorithm::Mhhea,
        other => return Err(SnapshotDecodeError::UnknownAlgorithm(other)),
    };
    let profile = match prof {
        0 => Profile::Streaming,
        1 => Profile::HardwareFaithful,
        other => return Err(SnapshotDecodeError::UnknownProfile(other)),
    };
    let pair_count = raw_pairs as usize;
    if pair_count == 0 || pair_count > MAX_PAIRS {
        return Err(SnapshotDecodeError::BadPairCount(raw_pairs));
    }
    let Some(raw_id) = le_u64(bytes, 8) else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    let id = StreamId(raw_id);
    let Some(lfsr_state) = le_u16(bytes, 16) else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    if lfsr_state == 0 {
        return Err(SnapshotDecodeError::ZeroLfsrState);
    }
    let Some(enc_bytes) = bytes.get(18..27) else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    let enc_cursor = StreamCursor::from_bytes(enc_bytes).map_err(SnapshotDecodeError::Cursor)?;
    let Some(dec_bytes) = bytes.get(27..36) else {
        return Err(truncated(SNAPSHOT_HEADER_LEN));
    };
    let dec_cursor = StreamCursor::from_bytes(dec_bytes).map_err(SnapshotDecodeError::Cursor)?;
    let (epoch, ring, key) = if version == SNAPSHOT_VERSION_V1 {
        // Legacy: key pairs follow the cursors directly; no rotation
        // state, so the stream restores at epoch 0 without a ring.
        let need = SNAPSHOT_HEADER_LEN + pair_count;
        let Some(key_bytes) = bytes.get(SNAPSHOT_HEADER_LEN..need) else {
            return Err(truncated(need));
        };
        let key = key_from_pair_bytes(key_bytes)?;
        (0u32, None, key)
    } else {
        let (Some(epoch), Some(master_seed), Some(&ring_count)) =
            (le_u32(bytes, 36), le_u16(bytes, 40), bytes.get(42))
        else {
            return Err(truncated(SNAPSHOT_V2_HEADER_LEN));
        };
        let ring_count = ring_count as usize;
        let need = SNAPSHOT_V2_HEADER_LEN + pair_count;
        let Some(key_bytes) = bytes.get(SNAPSHOT_V2_HEADER_LEN..need) else {
            return Err(truncated(need));
        };
        let key = key_from_pair_bytes(key_bytes)?;
        let ring = if ring_count > 0 {
            if master_seed == 0 {
                return Err(SnapshotDecodeError::ZeroRingSeed);
            }
            let mut at = need;
            let mut keys = Vec::with_capacity(ring_count);
            for _ in 0..ring_count {
                keys.push(take_key(bytes, &mut at)?);
            }
            // Count and seed were just validated; ring_count is a u8, so
            // the length caps cannot trip.
            Some(KeyRing::new(keys, master_seed).map_err(SnapshotDecodeError::Key)?)
        } else {
            None
        };
        (epoch, ring, key)
    };
    // A fresh LfsrSource at the snapshotted state continues the exact
    // vector sequence: state() is the register before the next leap. The
    // state was validated nonzero above, so the error arm is unreachable
    // but keeps the serving path total.
    let source = LfsrSource::new(lfsr_state).map_err(|_| SnapshotDecodeError::ZeroLfsrState)?;
    let mut dec = DecryptSession::with_options(key.clone(), algorithm, profile);
    dec.set_cursor(dec_cursor);
    dec.set_epoch(epoch);
    let mut enc = EncryptSession::with_options(key, source, algorithm, profile);
    enc.set_cursor(enc_cursor);
    enc.set_epoch(epoch);
    Ok((id, StreamState { enc, dec, ring }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::from_nibbles(&[(0, 3), (2, 5), (1, 7)]).unwrap()
    }

    #[test]
    fn open_close_contains() {
        let mux = StreamMux::with_shards(4);
        assert!(mux.is_empty());
        mux.open(StreamId(1), StreamConfig::new(key())).unwrap();
        assert!(mux.contains(StreamId(1)));
        assert_eq!(mux.len(), 1);
        assert_eq!(
            mux.open(StreamId(1), StreamConfig::new(key())),
            Err(GatewayError::StreamExists(StreamId(1)))
        );
        mux.close(StreamId(1)).unwrap();
        assert_eq!(
            mux.close(StreamId(1)),
            Err(GatewayError::UnknownStream(StreamId(1)))
        );
    }

    #[test]
    fn per_stream_traffic_roundtrips() {
        let tx = StreamMux::with_shards(8);
        let rx = StreamMux::with_shards(2); // shard counts need not match
        for id in 0..6u64 {
            let cfg = StreamConfig::new(key()).with_seed(0x1000 + id as u16);
            tx.open(StreamId(id), cfg.clone()).unwrap();
            rx.open(StreamId(id), cfg).unwrap();
        }
        // Interleave messages across streams: cursors stay per-stream.
        for round in 0..3 {
            for id in 0..6u64 {
                let msg = format!("round {round} stream {id}");
                let blocks = tx.encrypt(StreamId(id), msg.as_bytes()).unwrap();
                let got = rx.decrypt(StreamId(id), &blocks, msg.len() * 8).unwrap();
                assert_eq!(got, msg.as_bytes());
            }
        }
    }

    /// An `io::Write` sink that accepts `limit` bytes and then fails —
    /// simulates a snapshot serialisation dying midway (disk full, broken
    /// pipe) so the evict-atomicity regression test below can prove the
    /// stream survives.
    struct FailingWriter {
        written: Vec<u8>,
        limit: usize,
    }

    impl std::io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let room = self.limit.saturating_sub(self.written.len());
            if room == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "sink full",
                ));
            }
            let take = room.min(buf.len());
            self.written.extend_from_slice(&buf[..take]);
            Ok(take)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Regression: a snapshot serialisation that fails midway must not
    /// consume the stream — evict is atomic, the stream stays usable, and
    /// a later evict still hands back the full state.
    #[test]
    fn failed_evict_keeps_stream_usable() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(11), StreamConfig::new(key())).unwrap();
        mux.encrypt(StreamId(11), b"advance the cursor").unwrap();
        let reference = mux.snapshot(StreamId(11)).unwrap();

        // The sink dies after 10 bytes — mid-header.
        let mut sink = FailingWriter {
            written: Vec::new(),
            limit: 10,
        };
        assert!(matches!(
            mux.evict_into(StreamId(11), &mut sink),
            Err(GatewayError::SnapshotSink { .. })
        ));
        // The stream is still open, at the same position, and usable.
        assert!(mux.contains(StreamId(11)));
        assert_eq!(mux.snapshot(StreamId(11)).unwrap(), reference);
        mux.encrypt(StreamId(11), b"still alive").unwrap();

        // A working sink evicts; the bytes match a plain evict's.
        let mut ok_sink = FailingWriter {
            written: Vec::new(),
            limit: usize::MAX,
        };
        mux.evict_into(StreamId(11), &mut ok_sink).unwrap();
        assert!(!mux.contains(StreamId(11)));
        let restored = StreamMux::with_shards(4);
        assert_eq!(restored.restore(&ok_sink.written).unwrap(), StreamId(11));
    }

    /// `snapshot` is a checkpoint, not an eviction: the stream keeps
    /// running, and restoring the checkpoint elsewhere replays from that
    /// exact point.
    #[test]
    fn snapshot_is_non_consuming_and_replayable() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(4), StreamConfig::new(key())).unwrap();
        mux.encrypt(StreamId(4), b"before checkpoint").unwrap();
        let checkpoint = mux.snapshot(StreamId(4)).unwrap();
        assert!(mux.contains(StreamId(4)), "snapshot must not evict");

        // Both the live stream and a replica restored from the checkpoint
        // encrypt the next message identically.
        let replica = StreamMux::with_shards(8);
        replica.restore(&checkpoint).unwrap();
        let live = mux.encrypt(StreamId(4), b"after checkpoint").unwrap();
        let replayed = replica.encrypt(StreamId(4), b"after checkpoint").unwrap();
        assert_eq!(live, replayed);
    }

    /// A mixed submit_batch drives both directions of the same stream in
    /// batch order, and failures stay confined to their own slot.
    #[test]
    fn submit_batch_mixes_directions_and_confines_errors() {
        let tx = StreamMux::with_shards(1); // one shard: all streams collide
        let rx = StreamMux::with_shards(1);
        for id in 0..3u64 {
            let cfg = StreamConfig::new(key()).with_seed(0x0B0B + id as u16);
            tx.open(StreamId(id), cfg.clone()).unwrap();
            rx.open(StreamId(id), cfg).unwrap();
        }
        let msgs: Vec<Vec<u8>> = (0..3u64)
            .map(|id| format!("duplex message {id}").into_bytes())
            .collect();
        let blocks: Vec<Vec<u16>> = (0..3u64)
            .map(|id| tx.encrypt(StreamId(id), &msgs[id as usize]).unwrap())
            .collect();

        // One batch: decrypt stream 0, fail stream 1 (truncated), decrypt
        // stream 2, and encrypt a follow-up on stream 0 — all interleaved.
        let batch = vec![
            (
                StreamId(0),
                StreamOp::Decrypt {
                    blocks: blocks[0].clone(),
                    bit_len: msgs[0].len() * 8,
                },
            ),
            (
                StreamId(1),
                StreamOp::Decrypt {
                    blocks: blocks[1][..1].to_vec(),
                    bit_len: msgs[1].len() * 8,
                },
            ),
            (
                StreamId(2),
                StreamOp::Decrypt {
                    blocks: blocks[2].clone(),
                    bit_len: msgs[2].len() * 8,
                },
            ),
            (StreamId(0), StreamOp::Encrypt(b"follow-up".to_vec())),
        ];
        let results = rx.submit_batch(batch);
        assert_eq!(results[0], Ok(StreamOutput::Plain(msgs[0].clone())));
        assert!(matches!(
            results[1],
            Err(GatewayError::Engine(MhheaError::CiphertextTruncated { .. }))
        ));
        assert_eq!(results[2], Ok(StreamOutput::Plain(msgs[2].clone())));
        assert!(matches!(results[3], Ok(StreamOutput::Blocks(_))));
        // The failed decrypt did not advance stream 1: the full blocks
        // still open, bit-exactly.
        assert_eq!(
            rx.decrypt(StreamId(1), &blocks[1], msgs[1].len() * 8)
                .unwrap(),
            msgs[1]
        );
    }

    fn ring() -> KeyRing {
        KeyRing::new(
            vec![key(), Key::from_nibbles(&[(1, 6), (0, 7)]).unwrap()],
            0xACE1,
        )
        .unwrap()
    }

    /// Rekeying both muxes at the same point keeps traffic round-tripping,
    /// each epoch under its own key/seed; errors leave streams untouched.
    #[test]
    fn rekey_rotates_both_directions_atomically() {
        let tx = StreamMux::with_shards(2);
        let rx = StreamMux::with_shards(8);
        let cfg = StreamConfig::new(key()).with_ring(ring());
        tx.open(StreamId(1), cfg.clone()).unwrap();
        rx.open(StreamId(1), cfg).unwrap();

        let before = tx.encrypt(StreamId(1), b"epoch zero").unwrap();
        assert_eq!(rx.decrypt(StreamId(1), &before, 80).unwrap(), b"epoch zero");

        assert_eq!(tx.rekey(StreamId(1), 1).unwrap(), 1);
        assert_eq!(rx.rekey(StreamId(1), 1).unwrap(), 1);
        assert_eq!(tx.epoch(StreamId(1)).unwrap(), 1);
        // The new epoch restarts the schedule from the stream origin.
        assert_eq!(tx.cursor(StreamId(1)).unwrap().block_index, 0);

        let after = tx.encrypt(StreamId(1), b"epoch one!").unwrap();
        assert_ne!(before, after, "rotation must change the keystream");
        assert_eq!(rx.decrypt(StreamId(1), &after, 80).unwrap(), b"epoch one!");

        // Stale and replayed epochs are rejected without touching state.
        assert_eq!(
            tx.rekey(StreamId(1), 1),
            Err(GatewayError::StaleEpoch {
                current: 1,
                requested: 1
            })
        );
        assert_eq!(
            tx.rekey(StreamId(1), 0),
            Err(GatewayError::StaleEpoch {
                current: 1,
                requested: 0
            })
        );
        let more = tx.encrypt(StreamId(1), b"still epoch 1").unwrap();
        assert_eq!(
            rx.decrypt(StreamId(1), &more, 13 * 8).unwrap(),
            b"still epoch 1"
        );
        // Epochs may skip forward (e.g. catching up after downtime).
        assert_eq!(tx.rekey(StreamId(1), 7).unwrap(), 7);
    }

    #[test]
    fn rekey_without_ring_is_rejected_and_confined() {
        let mux = StreamMux::with_shards(1); // one shard: ops share a job
        mux.open(StreamId(1), StreamConfig::new(key())).unwrap();
        mux.open(StreamId(2), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        let results = mux.submit_batch(vec![
            (StreamId(1), StreamOp::Rekey { epoch: 1 }),
            (StreamId(2), StreamOp::Rekey { epoch: 1 }),
            (StreamId(1), StreamOp::Encrypt(b"unrotated".to_vec())),
        ]);
        assert_eq!(results[0], Err(GatewayError::NoKeyRing(StreamId(1))));
        assert_eq!(results[1], Ok(StreamOutput::Rekeyed { epoch: 1 }));
        // The failed rekey left its stream fully usable at epoch 0.
        assert!(matches!(results[2], Ok(StreamOutput::Blocks(_))));
        assert_eq!(mux.epoch(StreamId(1)).unwrap(), 0);
        assert_eq!(mux.epoch(StreamId(2)).unwrap(), 1);
    }

    /// Chunk-addressed seal/open: any order, any subset, and the stream's
    /// sequential cursors never move — chunk and stream traffic coexist.
    #[test]
    fn chunk_ops_roundtrip_out_of_order_without_touching_cursors() {
        let tx = StreamMux::with_shards(2);
        let rx = StreamMux::with_shards(4);
        let cfg = StreamConfig::new(key()).with_ring(ring());
        tx.open(StreamId(9), cfg.clone()).unwrap();
        rx.open(StreamId(9), cfg).unwrap();

        let chunks: Vec<Vec<u8>> = (0u32..5)
            .map(|i| format!("chunk payload {i}").into_bytes())
            .collect();
        let sealed: Vec<Vec<u16>> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| tx.seal_chunk(StreamId(9), 0, i as u32, c).unwrap())
            .collect();
        // Chunk seals leave the sequential encrypt cursor at the origin.
        assert_eq!(tx.cursor(StreamId(9)).unwrap().block_index, 0);
        // Distinct indices must produce distinct keystreams.
        let again = tx.seal_chunk(StreamId(9), 0, 1, &chunks[0]).unwrap();
        assert_ne!(again, sealed[0], "chunk seeds must differ per index");

        // Open in reverse order, skipping one — delivery order and loss
        // are invisible to chunk decryption.
        for i in [4usize, 2, 1, 0] {
            let got = rx
                .open_chunk(StreamId(9), 0, &sealed[i], chunks[i].len() * 8)
                .unwrap();
            assert_eq!(got, chunks[i]);
        }
        // The sequential stream path is byte-identical to a chunk-free
        // stream: cursors were never advanced by the chunk traffic.
        let blocks = tx.encrypt(StreamId(9), b"stream traffic").unwrap();
        assert_eq!(
            rx.decrypt(StreamId(9), &blocks, 14 * 8).unwrap(),
            b"stream traffic"
        );
    }

    /// Pins the chunk-seed derivation: `seal_chunk` is byte-identical to
    /// a one-shot session seeded with `chunk_seed(ring.seed(epoch), i)` —
    /// the contract a remote differential oracle reproduces.
    #[test]
    fn chunk_seal_matches_oracle_session() {
        let mux = StreamMux::with_shards(2);
        let cfg = StreamConfig::new(key()).with_ring(ring());
        mux.open(StreamId(4), cfg).unwrap();
        let msg = b"oracle me";
        for index in [0u32, 1, 7] {
            let sealed = mux.seal_chunk(StreamId(4), 0, index, msg).unwrap();
            let seed = crate::pipeline::chunk_seed(ring().seed(0), index);
            let mut oracle = EncryptSession::with_options(
                key(),
                LfsrSource::new(seed).unwrap(),
                Algorithm::Mhhea,
                Profile::Streaming,
            );
            assert_eq!(sealed, oracle.encrypt(msg).unwrap(), "index {index}");
        }
    }

    /// Chunk ops refuse wrong epochs and ringless streams, and follow the
    /// stream across a rotation.
    #[test]
    fn chunk_ops_check_epoch_and_ring() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(1), StreamConfig::new(key())).unwrap();
        mux.open(StreamId(2), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        assert_eq!(
            mux.seal_chunk(StreamId(1), 0, 0, b"no ring"),
            Err(GatewayError::NoKeyRing(StreamId(1)))
        );
        assert_eq!(
            mux.seal_chunk(StreamId(7), 0, 0, b"nobody home"),
            Err(GatewayError::UnknownStream(StreamId(7)))
        );
        // A wrong epoch stamp — stale or future — is refused up front.
        assert_eq!(
            mux.seal_chunk(StreamId(2), 3, 0, b"future"),
            Err(GatewayError::StaleEpoch {
                current: 0,
                requested: 3
            })
        );
        let epoch0 = mux.seal_chunk(StreamId(2), 0, 0, b"rotate me").unwrap();
        mux.rekey(StreamId(2), 1).unwrap();
        assert_eq!(
            mux.open_chunk(StreamId(2), 0, &epoch0, 72),
            Err(GatewayError::StaleEpoch {
                current: 1,
                requested: 0
            })
        );
        // Index 0 is fresh keystream again under the rotated epoch seed.
        let epoch1 = mux.seal_chunk(StreamId(2), 1, 0, b"rotate me").unwrap();
        assert_ne!(epoch0, epoch1, "rotation must change the chunk keystream");
        assert_eq!(
            mux.open_chunk(StreamId(2), 1, &epoch1, 72).unwrap(),
            b"rotate me"
        );
    }

    /// An evict/restore cycle across a rotation keeps everything: epoch,
    /// ring (so the stream can keep rotating), and bit-exact state.
    #[test]
    fn snapshot_v2_roundtrips_epoch_and_ring() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(3), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        mux.encrypt(StreamId(3), b"pre-rotation").unwrap();
        mux.rekey(StreamId(3), 2).unwrap();
        mux.encrypt(StreamId(3), b"post-rotation").unwrap();

        let snap = mux.evict(StreamId(3)).unwrap();
        assert_eq!(snap[4], SNAPSHOT_VERSION);
        let restored = StreamMux::with_shards(16);
        restored.restore(&snap).unwrap();
        assert_eq!(restored.epoch(StreamId(3)).unwrap(), 2);
        // restore → evict reproduces the exact bytes.
        assert_eq!(restored.snapshot(StreamId(3)).unwrap(), snap);
        // ...and the ring survived: the stream still rotates.
        restored.rekey(StreamId(3), 3).unwrap();
        // The same snapshot restored into the mux it was evicted from.
        mux.restore(&snap).unwrap();
        mux.rekey(StreamId(3), 3).unwrap();
        let a = restored.encrypt(StreamId(3), b"epoch three").unwrap();
        let b = mux.encrypt(StreamId(3), b"epoch three").unwrap();
        assert_eq!(a, b, "post-restore rotation diverged");
    }

    /// A legacy v1 snapshot (hand-built to the documented layout) still
    /// restores: epoch 0, no ring — so a later rekey reports NoKeyRing.
    #[test]
    fn snapshot_v1_still_restores() {
        let k = key();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&SNAPSHOT_MAGIC);
        v1.push(SNAPSHOT_VERSION_V1);
        v1.push(1); // MHHEA
        v1.push(0); // streaming
        v1.push(k.pairs().len() as u8);
        v1.extend_from_slice(&8u64.to_le_bytes());
        v1.extend_from_slice(&0xACE1u16.to_le_bytes());
        v1.extend_from_slice(&StreamCursor::start().to_bytes());
        v1.extend_from_slice(&StreamCursor::start().to_bytes());
        push_pairs(&mut v1, &k);

        let mux = StreamMux::with_shards(2);
        assert_eq!(mux.restore(&v1).unwrap(), StreamId(8));
        assert_eq!(mux.epoch(StreamId(8)).unwrap(), 0);
        assert_eq!(
            mux.rekey(StreamId(8), 1),
            Err(GatewayError::NoKeyRing(StreamId(8)))
        );
        // The restored stream matches a freshly opened one bit for bit.
        let fresh = StreamMux::with_shards(2);
        fresh.open(StreamId(8), StreamConfig::new(k)).unwrap();
        assert_eq!(
            mux.encrypt(StreamId(8), b"legacy").unwrap(),
            fresh.encrypt(StreamId(8), b"legacy").unwrap()
        );
    }

    #[test]
    fn snapshot_v2_ring_garbage_rejected() {
        let mux = StreamMux::with_shards(2);
        mux.open(StreamId(5), StreamConfig::new(key()).with_ring(ring()))
            .unwrap();
        let snap = mux.evict(StreamId(5)).unwrap();
        // Zero the ring master seed while keeping the ring count.
        let mut bad = snap.clone();
        bad[40] = 0;
        bad[41] = 0;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::ZeroRingSeed
        );
        // Truncate inside the trailing ring keys.
        assert!(matches!(
            decode_snapshot(&snap[..snap.len() - 1]),
            Err(SnapshotDecodeError::Truncated { .. })
        ));
        // Inflate a ring key's pair count past the cache depth.
        let mut bad = snap;
        let first_ring_key_count = SNAPSHOT_V2_HEADER_LEN + key().pairs().len();
        bad[first_ring_key_count] = 17;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::BadPairCount(17)
        );
    }

    #[test]
    fn zero_seed_rejected() {
        let mux = StreamMux::new();
        assert_eq!(
            mux.open(StreamId(9), StreamConfig::new(key()).with_seed(0)),
            Err(GatewayError::Engine(MhheaError::InvalidSeed))
        );
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        let mux = StreamMux::new();
        mux.open(StreamId(3), StreamConfig::new(key())).unwrap();
        let snap = mux.evict(StreamId(3)).unwrap();
        assert!(matches!(
            decode_snapshot(&snap[..10]),
            Err(SnapshotDecodeError::Truncated { .. })
        ));
        let mut bad = snap.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::BadMagic
        );
        let mut bad = snap.clone();
        bad[4] = 9;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::UnsupportedVersion(9)
        );
        let mut bad = snap.clone();
        bad[5] = 5;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::UnknownAlgorithm(5)
        );
        let mut bad = snap.clone();
        bad[7] = 0;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::BadPairCount(0)
        );
        let mut bad = snap.clone();
        bad[16] = 0;
        bad[17] = 0;
        assert_eq!(
            decode_snapshot(&bad).unwrap_err(),
            SnapshotDecodeError::ZeroLfsrState
        );
        // Buffered byte of the encrypt cursor out of range.
        let mut bad = snap;
        bad[26] = 16;
        assert!(matches!(
            decode_snapshot(&bad),
            Err(SnapshotDecodeError::Cursor(
                CursorDecodeError::InvalidBuffered(16)
            ))
        ));
    }
}
