//! Integration tests for the multi-stream gateway: batched traffic across
//! many streams and the evict/restore snapshot cycle.

use mhhea::gateway::{GatewayError, StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::{Algorithm, Key, KeyRing, MhheaError, Profile};
use proptest::prelude::*;

fn key() -> Key {
    Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4)]).unwrap()
}

fn duplex_pair(ids: impl Iterator<Item = u64>, profile: Profile) -> (StreamMux, StreamMux) {
    let tx = StreamMux::with_shards(16);
    let rx = StreamMux::with_shards(16);
    for id in ids {
        let cfg = StreamConfig::new(key())
            .with_profile(profile)
            .with_seed(0x1111u16.wrapping_add(id as u16) | 1);
        tx.open(StreamId(id), cfg.clone()).unwrap();
        rx.open(StreamId(id), cfg).unwrap();
    }
    (tx, rx)
}

/// One `submit_batch` of encrypts; every slot must succeed.
fn seal_all(mux: &StreamMux, batch: &[(StreamId, Vec<u8>)]) -> Vec<Vec<u16>> {
    let ops = batch
        .iter()
        .map(|(id, msg)| (*id, StreamOp::Encrypt(msg.clone())))
        .collect();
    mux.submit_batch(ops)
        .into_iter()
        .map(|r| match r {
            Ok(StreamOutput::Blocks(blocks)) => blocks,
            other => panic!("encrypt slot failed: {other:?}"),
        })
        .collect()
}

/// The decrypt op that opens `blocks` sealed from `plain` on `id`.
fn decrypt_op(id: StreamId, blocks: Vec<u16>, plain: &[u8]) -> (StreamId, StreamOp) {
    let bit_len = plain.len() * 8;
    (id, StreamOp::Decrypt { blocks, bit_len })
}

/// A batch mixing several messages per stream must round-trip with
/// per-stream ordering preserved — in both profiles and both variants.
#[test]
fn batched_traffic_roundtrips_all_modes() {
    for algorithm in [Algorithm::Hhea, Algorithm::Mhhea] {
        for profile in [Profile::Streaming, Profile::HardwareFaithful] {
            let tx = StreamMux::with_shards(8);
            let rx = StreamMux::with_shards(8);
            for id in 0..10u64 {
                let cfg = StreamConfig::new(key())
                    .with_algorithm(algorithm)
                    .with_profile(profile);
                tx.open(StreamId(id), cfg.clone()).unwrap();
                rx.open(StreamId(id), cfg).unwrap();
            }
            // Three messages per stream, interleaved across the batch.
            let mut batch = Vec::new();
            for round in 0..3 {
                for id in 0..10u64 {
                    batch.push((
                        StreamId(id),
                        format!("r{round} on {id} ({algorithm}/{profile})").into_bytes(),
                    ));
                }
            }
            let sealed = seal_all(&tx, &batch);
            let dec_batch = sealed
                .into_iter()
                .zip(&batch)
                .map(|(blocks, (id, msg))| decrypt_op(*id, blocks, msg))
                .collect();
            let opened = rx.submit_batch(dec_batch);
            for (got, (_, want)) in opened.into_iter().zip(batch) {
                assert_eq!(
                    got,
                    Ok(StreamOutput::Plain(want)),
                    "alg={algorithm} profile={profile}"
                );
            }
        }
    }
}

/// Batched and one-at-a-time encryption must produce identical bytes —
/// the batch API is a throughput plan, not a different cipher.
#[test]
fn batch_equals_sequential_singles() {
    let (tx_batch, _) = duplex_pair(0..12, Profile::Streaming);
    let (tx_single, _) = duplex_pair(0..12, Profile::Streaming);
    let mut batch = Vec::new();
    for round in 0..4 {
        for id in 0..12u64 {
            batch.push((
                StreamId(id),
                format!("round {round} stream {id}").into_bytes(),
            ));
        }
    }
    let batched = seal_all(&tx_batch, &batch);
    for ((id, msg), got) in batch.into_iter().zip(batched) {
        let single = tx_single.encrypt(id, &msg).unwrap();
        assert_eq!(got, single, "stream {id}");
    }
}

/// A sealed batch opened with one message retargeted to an unknown stream
/// id: that slot errors without disturbing the healthy streams in the
/// same batch.
#[test]
fn seal_open_batch_with_errors_interleaved() {
    let (tx, rx) = duplex_pair(0..5, Profile::Streaming);
    let batch: Vec<(StreamId, Vec<u8>)> = (0..5u64)
        .map(|id| (StreamId(id), format!("payload {id}").into_bytes()))
        .collect();
    let sealed = seal_all(&tx, &batch);
    let mut opens: Vec<(StreamId, StreamOp)> = sealed
        .into_iter()
        .zip(&batch)
        .map(|(blocks, (id, msg))| decrypt_op(*id, blocks, msg))
        .collect();
    opens[3].0 = StreamId(999);
    let opened = rx.submit_batch(opens);
    assert_eq!(opened.len(), 5);
    for (i, result) in opened.into_iter().enumerate() {
        if i == 3 {
            assert_eq!(result, Err(GatewayError::UnknownStream(StreamId(999))));
        } else {
            let want = format!("payload {i}").into_bytes();
            assert_eq!(result, Ok(StreamOutput::Plain(want)), "slot {i}");
        }
    }
}

/// A stream fed truncated ciphertext inside a `submit_batch` fails alone:
/// one shard forces every stream into the same lock as the poisoned one,
/// yet shard-mates' plaintexts
/// are bit-exact with a control mux that never saw the poison, and the
/// poisoned stream's cursor is untouched (the full blocks still open).
#[test]
fn decrypt_batch_poison_leaves_shardmates_bit_exact() {
    let tx = StreamMux::with_shards(1);
    let rx = StreamMux::with_shards(1);
    let rx_control = StreamMux::with_shards(1);
    for id in 0..6u64 {
        let cfg = StreamConfig::new(key()).with_seed(0x3000 + id as u16);
        tx.open(StreamId(id), cfg.clone()).unwrap();
        rx.open(StreamId(id), cfg.clone()).unwrap();
        rx_control.open(StreamId(id), cfg).unwrap();
    }
    let batch: Vec<(StreamId, Vec<u8>)> = (0..6u64)
        .map(|id| {
            (
                StreamId(id),
                format!("batch message for stream {id}").into_bytes(),
            )
        })
        .collect();
    let sealed = seal_all(&tx, &batch);

    let make_batch = |truncate: bool| -> Vec<(StreamId, StreamOp)> {
        sealed
            .iter()
            .zip(&batch)
            .map(|(blocks, (id, msg))| {
                let mut blocks = blocks.clone();
                if truncate && id.0 == 3 {
                    blocks.truncate(1);
                }
                decrypt_op(*id, blocks, msg)
            })
            .collect()
    };
    let control_out = rx_control.submit_batch(make_batch(false));
    let victim_out = rx.submit_batch(make_batch(true));

    assert!(matches!(
        victim_out[3],
        Err(GatewayError::Engine(MhheaError::CiphertextTruncated { .. }))
    ));
    for (i, (got, want)) in victim_out.iter().zip(&control_out).enumerate() {
        if i != 3 {
            assert_eq!(got, want, "stream {i} diverged");
            assert_eq!(got, &Ok(StreamOutput::Plain(batch[i].1.clone())));
        }
    }
    // The failed decrypt rolled back: the untruncated blocks still open
    // on the same mux, bit-exactly.
    assert_eq!(
        rx.decrypt(StreamId(3), &sealed[3], batch[3].1.len() * 8)
            .unwrap(),
        batch[3].1
    );
}

/// A poisoned slot inside an encrypt batch fails alone: stream 3's slot is
/// a rekey on a stream opened without a key ring. One shard forces every
/// stream into the same lock as the poisoned one, yet every healthy
/// stream's blocks are bit-exact with a
/// control mux that never saw the poison, and the poisoned stream never
/// advanced.
#[test]
fn seal_batch_poison_leaves_shardmates_bit_exact() {
    let victim = StreamMux::with_shards(1);
    let control = StreamMux::with_shards(1);
    for id in 0..6u64 {
        let cfg = StreamConfig::new(key()).with_seed(0x3000 + id as u16);
        victim.open(StreamId(id), cfg.clone()).unwrap();
        control.open(StreamId(id), cfg).unwrap();
    }

    let clean: Vec<(StreamId, Vec<u8>)> = (0..6u64)
        .filter(|id| *id != 3)
        .map(|id| (StreamId(id), format!("healthy message {id}").into_bytes()))
        .collect();
    let mut poisoned: Vec<(StreamId, StreamOp)> = clean
        .iter()
        .map(|(id, msg)| (*id, StreamOp::Encrypt(msg.clone())))
        .collect();
    poisoned.insert(3, (StreamId(3), StreamOp::Rekey { epoch: 1 }));

    let control_blocks = seal_all(&control, &clean);
    let victim_out = victim.submit_batch(poisoned);

    assert_eq!(victim_out[3], Err(GatewayError::NoKeyRing(StreamId(3))));
    // Every healthy stream's blocks are identical to the control's.
    let healthy = victim_out
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != 3)
        .map(|(_, r)| r);
    for (got, want) in healthy.zip(control_blocks) {
        assert_eq!(
            got,
            Ok(StreamOutput::Blocks(want)),
            "shard-mate diverged from control"
        );
    }
    // The poisoned stream never advanced: it still encrypts from block 0.
    assert_eq!(victim.cursor(StreamId(3)).unwrap().block_index, 0);
    let after = victim.encrypt(StreamId(3), b"recovered").unwrap();
    assert_eq!(after, control.encrypt(StreamId(3), b"recovered").unwrap());
}

/// Unknown stream ids inside a mixed `submit_batch` fail their own slots
/// only, in both directions.
#[test]
fn submit_batch_unknown_streams_fail_alone() {
    let (tx, _) = duplex_pair(0..2, Profile::Streaming);
    let results = tx.submit_batch(vec![
        (StreamId(0), StreamOp::Encrypt(b"fine".to_vec())),
        (StreamId(99), StreamOp::Encrypt(b"ghost".to_vec())),
        (
            StreamId(98),
            StreamOp::Decrypt {
                blocks: vec![0xABCD],
                bit_len: 8,
            },
        ),
        (StreamId(1), StreamOp::Encrypt(b"also fine".to_vec())),
    ]);
    assert!(matches!(results[0], Ok(StreamOutput::Blocks(_))));
    assert_eq!(results[1], Err(GatewayError::UnknownStream(StreamId(99))));
    assert_eq!(results[2], Err(GatewayError::UnknownStream(StreamId(98))));
    assert!(matches!(results[3], Ok(StreamOutput::Blocks(_))));
}

/// `rekey_with` installs externally derived material (the MHKX path):
/// the rotated stream matches a fresh session built from the same key
/// and seed, the stale-epoch guard holds, a zero seed is refused without
/// touching the stream, and the installed single-key ring survives an
/// evict/restore cycle.
#[test]
fn rekey_with_installs_derived_material() {
    use mhhea::session::{DecryptSession, EncryptSession};
    use mhhea::LfsrSource;

    let mux = StreamMux::with_shards(4);
    // Opened without a ring: `rekey` has nothing to rotate to, but
    // `rekey_with` brings its own material.
    mux.open(StreamId(1), StreamConfig::new(key())).unwrap();
    mux.encrypt(StreamId(1), b"epoch zero traffic").unwrap();
    assert!(matches!(
        mux.rekey(StreamId(1), 1),
        Err(GatewayError::NoKeyRing(StreamId(1)))
    ));

    let derived = Key::from_nibbles(&[(1, 6), (3, 2), (5, 5)]).unwrap();
    // A zero seed is rejected and the stream is untouched.
    assert!(mux.rekey_with(StreamId(1), 1, derived.clone(), 0).is_err());
    assert_eq!(mux.epoch(StreamId(1)).unwrap(), 0);

    assert_eq!(
        mux.rekey_with(StreamId(1), 1, derived.clone(), 0xBEEF)
            .unwrap(),
        1
    );
    // Not newer: refused, both for rekey_with and a ring rekey against
    // the single-entry ring it installed.
    assert!(matches!(
        mux.rekey_with(StreamId(1), 1, derived.clone(), 0xBEEF),
        Err(GatewayError::StaleEpoch {
            current: 1,
            requested: 1
        })
    ));

    // The rotated stream seals exactly like a fresh session built from
    // the derived material.
    let mut enc = EncryptSession::with_options(
        derived.clone(),
        LfsrSource::new(0xBEEF).unwrap(),
        Algorithm::Mhhea,
        Profile::Streaming,
    );
    enc.set_epoch(1);
    let msg = b"fresh-DH epoch one";
    let want = enc.encrypt(msg).unwrap();
    assert_eq!(mux.encrypt(StreamId(1), msg).unwrap(), want);
    let mut dec =
        DecryptSession::with_options(derived.clone(), Algorithm::Mhhea, Profile::Streaming);
    dec.set_epoch(1);
    dec.decrypt(&want, msg.len() * 8).unwrap();

    // The single-key ring rides the snapshot: evict, restore, continue
    // bit-exactly, and a *ring* rekey now works (reseed-only rotation).
    let snap = mux.evict(StreamId(1)).unwrap();
    let mux = StreamMux::with_shards(7);
    assert_eq!(mux.restore(&snap).unwrap(), StreamId(1));
    assert_eq!(mux.epoch(StreamId(1)).unwrap(), 1);
    let probe = b"post-restore probe";
    assert_eq!(
        mux.encrypt(StreamId(1), probe).unwrap(),
        enc.encrypt(probe).unwrap()
    );
    assert_eq!(mux.rekey(StreamId(1), 2).unwrap(), 2);
}

/// The acceptance bar: the gateway sustains well over 1,000 concurrent
/// streams, and every one of them round-trips through a batched
/// seal/open cycle.
#[test]
fn thousand_streams_concurrent_roundtrip() {
    const STREAMS: u64 = 1200;
    let (tx, rx) = duplex_pair(0..STREAMS, Profile::Streaming);
    assert_eq!(tx.len(), STREAMS as usize);
    let batch: Vec<(StreamId, Vec<u8>)> = (0..STREAMS)
        .map(|id| (StreamId(id), format!("stream {id} says hello").into_bytes()))
        .collect();
    let sealed = seal_all(&tx, &batch);
    let opens = sealed
        .into_iter()
        .zip(&batch)
        .map(|(blocks, (id, msg))| decrypt_op(*id, blocks, msg))
        .collect();
    let opened = rx.submit_batch(opens);
    assert_eq!(opened.len(), STREAMS as usize);
    for ((id, msg), result) in batch.into_iter().zip(opened) {
        assert_eq!(result, Ok(StreamOutput::Plain(msg)), "stream {}", id.0);
    }
}

/// A mux shared across OS threads (borrowed by scoped threads) stays
/// consistent: distinct streams progress independently under concurrent
/// submitters.
#[test]
fn mux_is_shareable_across_threads() {
    let (tx, rx) = duplex_pair(0..8, Profile::Streaming);
    let sealed: Vec<Vec<(Vec<u16>, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u64)
            .map(|id| {
                let tx = &tx;
                scope.spawn(move || {
                    (0..5)
                        .map(|round| {
                            let msg = format!("t{id} r{round}");
                            (tx.encrypt(StreamId(id), msg.as_bytes()).unwrap(), msg)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (id, messages) in sealed.into_iter().enumerate() {
        for (blocks, msg) in messages {
            let got = rx
                .decrypt(StreamId(id as u64), &blocks, msg.len() * 8)
                .unwrap();
            assert_eq!(got, msg.as_bytes());
        }
    }
}

/// Runs one op through the single-op API: the one-at-a-time oracle for
/// `submit_batch`.
fn apply_single(
    mux: &StreamMux,
    id: StreamId,
    op: &StreamOp,
) -> Result<StreamOutput, GatewayError> {
    match op {
        StreamOp::Encrypt(msg) => mux.encrypt(id, msg).map(StreamOutput::Blocks),
        StreamOp::Decrypt { blocks, bit_len } => {
            mux.decrypt(id, blocks, *bit_len).map(StreamOutput::Plain)
        }
        StreamOp::Rekey { epoch } => mux
            .rekey(id, *epoch)
            .map(|epoch| StreamOutput::Rekeyed { epoch }),
    }
}

/// Two threads released by one barrier call `submit_batch` at the same
/// time on a one-shard mux, so every op of both batches contends for the
/// same lock — what N reactors' ticks do. Each thread drives its own
/// streams with mixed encrypts, decrypts and rekeys. Every output, and
/// every stream's final state, matches an oracle mux fed the same ops
/// one at a time.
#[test]
fn concurrent_batches_match_one_at_a_time_oracle() {
    const THREADS: u64 = 2;
    const STREAMS_PER_THREAD: u64 = 4;
    const ROUNDS: u64 = 16;
    let ring = KeyRing::new(
        vec![key(), Key::from_nibbles(&[(1, 6), (0, 7)]).unwrap()],
        0xACE1,
    )
    .unwrap();
    let mux = StreamMux::with_shards(1);
    let oracle = StreamMux::with_shards(1);
    // The peer whose encrypt side the mux's decrypt side tracks; it
    // rotates at the same points, so every decrypt is meaningful.
    let peer = StreamMux::with_shards(1);
    for id in 0..THREADS * STREAMS_PER_THREAD {
        let cfg = StreamConfig::new(key())
            .with_ring(ring.clone())
            .with_seed(0x2000 + id as u16);
        for m in [&mux, &oracle, &peer] {
            m.open(StreamId(id), cfg.clone()).unwrap();
        }
    }

    // Per thread, ROUNDS batches. A round gives each of the thread's
    // streams an encrypt and a decrypt, preceded now and then by a
    // rekey; streams' ops interleave within the batch.
    let inbound =
        |id: u64, round: u64| format!("s{id} r{round} inbound {}", "x".repeat(id as usize));
    let batches: Vec<Vec<Vec<(StreamId, StreamOp)>>> = (0..THREADS)
        .map(|t| {
            let ids = t * STREAMS_PER_THREAD..(t + 1) * STREAMS_PER_THREAD;
            (0..ROUNDS)
                .map(|round| {
                    let per_stream: Vec<(StreamId, Vec<StreamOp>)> = ids
                        .clone()
                        .map(|id| {
                            let sid = StreamId(id);
                            let mut ops = Vec::new();
                            if (round + id) % 5 == 4 {
                                let epoch = peer.epoch(sid).unwrap() + 1;
                                peer.rekey(sid, epoch).unwrap();
                                ops.push(StreamOp::Rekey { epoch });
                            }
                            ops.push(StreamOp::Encrypt(
                                format!("s{id} r{round} out").into_bytes(),
                            ));
                            let msg = inbound(id, round);
                            let blocks = peer.encrypt(sid, msg.as_bytes()).unwrap();
                            let bit_len = msg.len() * 8;
                            ops.push(StreamOp::Decrypt { blocks, bit_len });
                            (sid, ops)
                        })
                        .collect();
                    (0..3)
                        .flat_map(|slot| {
                            per_stream
                                .iter()
                                .filter_map(move |(sid, ops)| Some((*sid, ops.get(slot)?.clone())))
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    let barrier = std::sync::Barrier::new(THREADS as usize);
    let results: Vec<Vec<Vec<Result<StreamOutput, GatewayError>>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .iter()
            .map(|thread_batches| {
                let (mux, barrier) = (&mux, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    thread_batches
                        .iter()
                        .map(|batch| mux.submit_batch(batch.clone()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, thread_batches) in batches.iter().enumerate() {
        for (round, batch) in thread_batches.iter().enumerate() {
            let got = &results[t][round];
            assert_eq!(got.len(), batch.len());
            for (i, (id, op)) in batch.iter().enumerate() {
                let want = apply_single(&oracle, *id, op);
                assert!(want.is_ok(), "thread {t} round {round} slot {i}: {want:?}");
                assert_eq!(got[i], want, "thread {t} round {round} slot {i}");
                if let StreamOp::Decrypt { .. } = op {
                    let plain = inbound(id.0, round as u64).into_bytes();
                    assert_eq!(got[i], Ok(StreamOutput::Plain(plain)));
                }
            }
        }
    }
    for id in 0..THREADS * STREAMS_PER_THREAD {
        assert_eq!(
            mux.snapshot(StreamId(id)).unwrap(),
            oracle.snapshot(StreamId(id)).unwrap(),
            "stream {id} final state"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance proptest: evicting a stream mid-conversation and
    /// restoring it from the snapshot bytes resumes **bit-exactly** — the
    /// restored mux produces the same ciphertext as an uninterrupted one,
    /// for random keys, messages, split points and both profiles.
    #[test]
    fn snapshot_restore_resumes_bit_exactly(
        pairs in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        msgs in proptest::collection::vec(
            proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..48),
            2..6,
        ),
        split in 1usize..5,
        hw in proptest::arbitrary::any::<bool>(),
        seed in 1u16..,
    ) {
        let split = split.min(msgs.len() - 1);
        let profile = if hw { Profile::HardwareFaithful } else { Profile::Streaming };
        let k = Key::from_nibbles(&pairs).unwrap();
        let cfg = StreamConfig::new(k).with_profile(profile).with_seed(seed);

        // Control: one uninterrupted stream.
        let control = StreamMux::with_shards(4);
        control.open(StreamId(1), cfg.clone()).unwrap();
        let want: Vec<Vec<u16>> = msgs
            .iter()
            .map(|m| control.encrypt(StreamId(1), m).unwrap())
            .collect();

        // Candidate: same stream, evicted and restored at `split`.
        let mux = StreamMux::with_shards(4);
        mux.open(StreamId(1), cfg.clone()).unwrap();
        let mut got: Vec<Vec<u16>> = Vec::new();
        let rx = StreamMux::with_shards(4);
        rx.open(StreamId(1), cfg).unwrap();
        for m in &msgs[..split] {
            got.push(mux.encrypt(StreamId(1), m).unwrap());
        }
        // Decrypt-side progress must survive the snapshot too.
        for (m, blocks) in msgs[..split].iter().zip(&got) {
            prop_assert_eq!(&rx.decrypt(StreamId(1), blocks, m.len() * 8).unwrap(), m);
        }
        let snap_tx = mux.evict(StreamId(1)).unwrap();
        let snap_rx = rx.evict(StreamId(1)).unwrap();
        prop_assert!(!mux.contains(StreamId(1)));

        let mux2 = StreamMux::with_shards(32); // shard geometry may differ
        prop_assert_eq!(mux2.restore(&snap_tx).unwrap(), StreamId(1));
        let rx2 = StreamMux::with_shards(2);
        prop_assert_eq!(rx2.restore(&snap_rx).unwrap(), StreamId(1));
        for m in &msgs[split..] {
            got.push(mux2.encrypt(StreamId(1), m).unwrap());
        }
        prop_assert_eq!(&got, &want, "ciphertext diverged after restore");
        // And the restored decrypt side opens the post-restore traffic.
        for (m, blocks) in msgs[split..].iter().zip(&got[split..]) {
            prop_assert_eq!(&rx2.decrypt(StreamId(1), blocks, m.len() * 8).unwrap(), m);
        }
    }

    /// Snapshot bytes round-trip structurally: restore → evict yields the
    /// identical byte string (the format has no lossy fields).
    #[test]
    fn snapshot_bytes_roundtrip(
        pairs in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        id in proptest::arbitrary::any::<u64>(),
        n_msgs in 0usize..4,
        hw in proptest::arbitrary::any::<bool>(),
        seed in 1u16..,
    ) {
        let profile = if hw { Profile::HardwareFaithful } else { Profile::Streaming };
        let cfg = StreamConfig::new(Key::from_nibbles(&pairs).unwrap())
            .with_profile(profile)
            .with_seed(seed);
        let mux = StreamMux::with_shards(8);
        mux.open(StreamId(id), cfg).unwrap();
        for i in 0..n_msgs {
            mux.encrypt(StreamId(id), format!("warmup {i}").as_bytes()).unwrap();
        }
        let snap = mux.evict(StreamId(id)).unwrap();
        let mux2 = StreamMux::with_shards(1);
        mux2.restore(&snap).unwrap();
        prop_assert_eq!(mux2.evict(StreamId(id)).unwrap(), snap);
    }

    /// The rekey acceptance proptest: a stream rotated at random points —
    /// interleaved with traffic in both directions and with evict/restore
    /// cycles, under both profiles — stays bit-exact against an oracle
    /// that is nothing but an [`mhhea::EncryptSession`]/
    /// [`mhhea::DecryptSession`] pair rekeyed at the same points, and
    /// stale-epoch rotations are rejected without perturbing the stream.
    #[test]
    fn rekey_schedules_match_session_oracle(
        pairs_a in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        pairs_b in proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16),
        ops in proptest::collection::vec(
            (0u8..5, proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..32)),
            1..14,
        ),
        hw in proptest::arbitrary::any::<bool>(),
        seed in 1u16..,
    ) {
        use mhhea::session::{DecryptSession, EncryptSession};
        use mhhea::{KeyRing, LfsrSource};

        let profile = if hw { Profile::HardwareFaithful } else { Profile::Streaming };
        let ring = KeyRing::new(
            vec![
                Key::from_nibbles(&pairs_a).unwrap(),
                Key::from_nibbles(&pairs_b).unwrap(),
            ],
            seed,
        ).unwrap();

        let mut mux = StreamMux::with_shards(4);
        mux.open(
            StreamId(1),
            StreamConfig::new(ring.key(0).clone())
                .with_profile(profile)
                .with_ring(ring.clone()),
        ).unwrap();
        let mut enc = EncryptSession::with_options(
            ring.key(0).clone(),
            LfsrSource::new(ring.seed(0)).unwrap(),
            mhhea::Algorithm::Mhhea,
            profile,
        );
        let mut dec = DecryptSession::with_options(
            ring.key(0).clone(),
            mhhea::Algorithm::Mhhea,
            profile,
        );

        let mut epoch = 0u32;
        let mut shards = 8;
        for (kind, msg) in ops {
            match kind {
                // Traffic: gateway ciphertext == oracle ciphertext, and
                // the gateway's decrypt side opens it (advancing in
                // lockstep with the oracle's).
                0 | 1 => {
                    let got = mux.encrypt(StreamId(1), &msg).unwrap();
                    let want = enc.encrypt(&msg).unwrap();
                    prop_assert_eq!(&got, &want, "ciphertext drift at epoch {}", epoch);
                    let plain = mux.decrypt(StreamId(1), &got, msg.len() * 8).unwrap();
                    prop_assert_eq!(&plain, &msg);
                    dec.decrypt(&want, msg.len() * 8).unwrap();
                }
                // Rotate, sometimes skipping epochs; a replay of the
                // now-stale epoch must bounce without touching state.
                2 | 3 => {
                    epoch += 1 + u32::from(kind == 3);
                    prop_assert_eq!(mux.rekey(StreamId(1), epoch).unwrap(), epoch);
                    enc.rekey(&ring, epoch).unwrap();
                    dec.rekey(&ring, epoch).unwrap();
                    prop_assert_eq!(
                        mux.rekey(StreamId(1), epoch),
                        Err(GatewayError::StaleEpoch { current: epoch, requested: epoch })
                    );
                }
                // Evict → restore on a different shard geometry; the
                // snapshot must carry the rotation state.
                _ => {
                    let snap = mux.evict(StreamId(1)).unwrap();
                    shards = (shards * 2) % 31 + 1;
                    mux = StreamMux::with_shards(shards);
                    prop_assert_eq!(mux.restore(&snap).unwrap(), StreamId(1));
                    prop_assert_eq!(mux.epoch(StreamId(1)).unwrap(), epoch);
                }
            }
        }
        // Final probe: one more rotation and message after the schedule.
        epoch += 1;
        mux.rekey(StreamId(1), epoch).unwrap();
        enc.rekey(&ring, epoch).unwrap();
        let probe = b"post-schedule probe";
        prop_assert_eq!(
            mux.encrypt(StreamId(1), probe).unwrap(),
            enc.encrypt(probe).unwrap()
        );
    }
}
