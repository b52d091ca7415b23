//! Differential tests against the scalar session path.
//!
//! * The standalone bitsliced kernel ([`mhhea::lanes`]) against one
//!   scalar session per lane.
//! * A one-shard `StreamMux::submit_batch` mixing encrypts, decrypts and
//!   rekeys against the same operations applied one at a time: the
//!   outputs, and the stream states left behind, must match exactly.

use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::lanes::{seal_lanes, LaneSealJob};
use mhhea::session::EncryptSession;
use mhhea::source::LfsrSource;
use mhhea::{Algorithm, Key, KeyRing, Profile};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = Key> {
    proptest::collection::vec((0u8..=7, 0u8..=7), 1..=16)
        .prop_map(|pairs| Key::from_nibbles(&pairs).expect("in range"))
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![Just(Algorithm::Hhea), Just(Algorithm::Mhhea)]
}

/// Deterministic message bytes so shrinking stays meaningful.
fn message(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt) ^ (i >> 8) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An encrypt-only `submit_batch` over many streams produces exactly
    /// the blocks the one-at-a-time scalar path produces — across two
    /// consecutive batches, so the second one runs on mid-stream states
    /// (nonzero block indices, mid-sequence LFSR registers).
    #[test]
    fn seal_batch_lanes_match_scalar_reference(
        key in arb_key(),
        algorithm in arb_algorithm(),
        lens in proptest::collection::vec(0usize..=96, 1..=70),
        salt in any::<u8>(),
    ) {
        let batched = StreamMux::with_shards(1);
        let scalar = StreamMux::with_shards(1);
        for id in 0..lens.len() as u64 {
            let cfg = StreamConfig::new(key.clone()).with_algorithm(algorithm);
            batched.open(StreamId(id), cfg.clone()).unwrap();
            scalar.open(StreamId(id), cfg).unwrap();
        }
        for round in 0..2u8 {
            let batch: Vec<(StreamId, Vec<u8>)> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (StreamId(i as u64), message(len, salt.wrapping_add(round))))
                .collect();
            let ops = batch
                .iter()
                .map(|(id, msg)| (*id, StreamOp::Encrypt(msg.clone())))
                .collect();
            let outs = batched.submit_batch(ops);
            for ((id, msg), out) in batch.into_iter().zip(outs) {
                let want = scalar.encrypt(id, &msg).unwrap();
                prop_assert_eq!(out, Ok(StreamOutput::Blocks(want)), "stream {} round {}", id.0, round);
            }
        }
        // The batched commits left every stream exactly where scalar did.
        for i in 0..lens.len() as u64 {
            prop_assert_eq!(
                batched.cursor(StreamId(i)).unwrap().block_index,
                scalar.cursor(StreamId(i)).unwrap().block_index
            );
        }
    }

    /// A mixed `submit_batch` — encrypts, decrypts, and mid-batch rekeys
    /// on streams that encrypted earlier in the same batch — matches
    /// applying the same ops one at a time. Two consecutive batches, so
    /// the second runs on mid-stream states (nonzero block indices,
    /// mid-sequence LFSR registers).
    #[test]
    fn submit_batch_mixed_ops_match_scalar_reference(
        key in arb_key(),
        algorithm in arb_algorithm(),
        lens in proptest::collection::vec(0usize..=96, 1..=48),
        rekey_mask in proptest::collection::vec(any::<bool>(), 1..=48),
        salt in any::<u8>(),
    ) {
        let ring = KeyRing::new(
            vec![key.clone(), Key::from_nibbles(&[(1, 6), (0, 7)]).unwrap()],
            0xBEE1,
        )
        .unwrap();
        let n = lens.len() as u64;
        let batched = StreamMux::with_shards(1);
        let scalar = StreamMux::with_shards(1);
        let feeder = StreamMux::with_shards(1);
        for id in 0..n {
            let cfg = StreamConfig::new(key.clone())
                .with_algorithm(algorithm)
                .with_ring(ring.clone());
            batched.open(StreamId(id), cfg.clone()).unwrap();
            scalar.open(StreamId(id), cfg.clone()).unwrap();
            // Decrypt-side streams (ids offset by 1000) track a feeder
            // that seals the traffic they will open mid-batch.
            batched.open(StreamId(1000 + id), cfg.clone()).unwrap();
            scalar.open(StreamId(1000 + id), cfg.clone()).unwrap();
            feeder.open(StreamId(1000 + id), cfg).unwrap();
        }
        for round in 0..2u8 {
            let salt = salt.wrapping_add(round);
            let mut batch: Vec<(StreamId, StreamOp)> = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                let id = StreamId(i as u64);
                batch.push((id, StreamOp::Encrypt(message(len, salt))));
                if rekey_mask.get(i).copied().unwrap_or(false) {
                    // Mid-batch rotation after this stream's encrypt.
                    let epoch = u32::from(round) + 1;
                    batch.push((id, StreamOp::Rekey { epoch }));
                    batch.push((id, StreamOp::Encrypt(message(len / 2, salt ^ 0x55))));
                }
                let plain = message(len, salt.wrapping_add(3));
                let blocks = feeder.encrypt(StreamId(1000 + i as u64), &plain).unwrap();
                batch.push((
                    StreamId(1000 + i as u64),
                    StreamOp::Decrypt { blocks, bit_len: plain.len() * 8 },
                ));
            }
            let got = batched.submit_batch(batch.clone());
            let want: Vec<_> = batch
                .iter()
                .map(|(id, op)| match op {
                    StreamOp::Encrypt(msg) => {
                        scalar.encrypt(*id, msg).map(StreamOutput::Blocks)
                    }
                    StreamOp::Decrypt { blocks, bit_len } => {
                        scalar.decrypt(*id, blocks, *bit_len).map(StreamOutput::Plain)
                    }
                    StreamOp::Rekey { epoch } => {
                        scalar.rekey(*id, *epoch).map(|epoch| StreamOutput::Rekeyed { epoch })
                    }
                })
                .collect();
            prop_assert_eq!(got, want, "round {}", round);
        }
        for id in 0..n {
            prop_assert_eq!(
                batched.epoch(StreamId(id)).unwrap(),
                scalar.epoch(StreamId(id)).unwrap()
            );
            prop_assert_eq!(
                batched.cursor(StreamId(id)).unwrap().block_index,
                scalar.cursor(StreamId(id)).unwrap().block_index
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kernel itself, from the stream origin: arbitrary keys, both
    /// algorithms, message sizes that leave scalar tails.
    #[test]
    fn seal_lanes_matches_scalar_sessions(
        key in arb_key(),
        algorithm in arb_algorithm(),
        specs in proptest::collection::vec((1u16..=0xFFFF, 0usize..=48), 1..=70),
        salt in any::<u8>(),
    ) {
        let table = mhhea::block::SpanTable::new(&key, algorithm);
        let messages: Vec<Vec<u8>> = specs
            .iter()
            .enumerate()
            .map(|(i, &(_, len))| message(len, salt.wrapping_add(i as u8)))
            .collect();
        let jobs: Vec<LaneSealJob> = specs
            .iter()
            .zip(&messages)
            .map(|(&(seed, _), msg)| LaneSealJob { message: msg, state: seed, block_index: 0 })
            .collect();
        let outs = seal_lanes(&key, algorithm, &table, &jobs).unwrap();
        for ((&(seed, _), msg), out) in specs.iter().zip(&messages).zip(outs) {
            let source = LfsrSource::new(seed).unwrap();
            let mut session = EncryptSession::with_options(
                key.clone(),
                source,
                algorithm,
                Profile::Streaming,
            );
            let want = session.encrypt(msg).unwrap();
            prop_assert_eq!(out.blocks, want);
            prop_assert_eq!(out.block_index, session.cursor().block_index);
        }
    }
}
