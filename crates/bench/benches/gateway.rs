//! Criterion: the multi-stream gateway — batched throughput across a
//! streams × message-size sweep, against the per-call `seal_v2` baseline.
//!
//! The baseline treats every message as an independent one-shot container
//! (fresh session, fresh span table, fresh header per call) — what a
//! server without a stream table has to do. The gateway keeps one session
//! per stream alive in the sharded mux and runs the whole batch in one
//! `submit_batch` call, so the per-message cost collapses to the cipher
//! itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mhhea::container::{seal_v2, SealV2Options};
use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::Key;

fn message_for(id: u64, size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| {
            ((id as usize)
                .wrapping_mul(31)
                .wrapping_add(i.wrapping_mul(7))
                & 0xFF) as u8
        })
        .collect()
}

fn open_streams(mux: &StreamMux, key: &Key, streams: u64) {
    for id in 0..streams {
        mux.open(
            StreamId(id),
            StreamConfig::new(key.clone()).with_seed(0x1000u16.wrapping_add(id as u16) | 1),
        )
        .unwrap();
    }
}

/// Streams × message-size sweep; the 1024-stream rows are the acceptance
/// configuration (≥ 1,000 concurrent streams in flight).
fn bench_gateway_sweep(c: &mut Criterion) {
    let key = mhhea_bench::report_key();
    for msg_size in [64usize, 1024] {
        let mut group = c.benchmark_group(format!("gateway_batch_{msg_size}B"));
        group.sample_size(10);
        for streams in [64u64, 1024] {
            let mux = StreamMux::with_shards(64);
            open_streams(&mux, &key, streams);
            let messages: Vec<(StreamId, Vec<u8>)> = (0..streams)
                .map(|id| (StreamId(id), message_for(id, msg_size)))
                .collect();
            let batch: Vec<(StreamId, StreamOp)> = messages
                .iter()
                .map(|(id, msg)| (*id, StreamOp::Encrypt(msg.clone())))
                .collect();
            group.throughput(Throughput::Bytes(streams * msg_size as u64));
            group.bench_with_input(
                BenchmarkId::new("mux_submit_batch", streams),
                &batch,
                |b, batch| b.iter(|| mux.submit_batch(batch.clone())),
            );
            // Baseline: the same messages as independent one-shot v2
            // containers, one seal_v2 call each.
            group.bench_with_input(
                BenchmarkId::new("per_call_seal_v2", streams),
                &messages,
                |b, messages| {
                    b.iter(|| {
                        messages
                            .iter()
                            .map(|(id, msg)| {
                                let opts = SealV2Options {
                                    master_seed: 0x1000u16.wrapping_add(id.0 as u16) | 1,
                                    workers: 1,
                                    ..Default::default()
                                };
                                seal_v2(&key, msg, &opts).unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                },
            );
        }
        group.finish();
    }
}

/// Full duplex at acceptance scale: 1,024 streams sealed on one mux and
/// opened on its peer, measuring the round trip.
fn bench_gateway_duplex(c: &mut Criterion) {
    let key = mhhea_bench::report_key();
    const STREAMS: u64 = 1024;
    const MSG: usize = 256;
    let tx = StreamMux::with_shards(64);
    let rx = StreamMux::with_shards(64);
    open_streams(&tx, &key, STREAMS);
    open_streams(&rx, &key, STREAMS);
    let batch: Vec<(StreamId, StreamOp)> = (0..STREAMS)
        .map(|id| (StreamId(id), StreamOp::Encrypt(message_for(id, MSG))))
        .collect();
    let mut group = c.benchmark_group("gateway_duplex_1024x256B");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(STREAMS * MSG as u64));
    group.bench_function("seal_then_open_batch", |b| {
        b.iter(|| {
            let opens: Vec<(StreamId, StreamOp)> = tx
                .submit_batch(batch.clone())
                .into_iter()
                .enumerate()
                .map(|(id, sealed)| {
                    let Ok(StreamOutput::Blocks(blocks)) = sealed else {
                        panic!("seal failed: {sealed:?}");
                    };
                    let bit_len = MSG * 8;
                    (StreamId(id as u64), StreamOp::Decrypt { blocks, bit_len })
                })
                .collect();
            let opened = rx.submit_batch(opens);
            assert!(opened.iter().all(Result::is_ok));
        })
    });
    group.finish();
}

/// Key-rotation churn: every batch rekeys all 1024 streams (one
/// `StreamOp::Rekey` per stream riding the same per-shard jobs as the
/// traffic) and then seals a message per stream — against the no-rotation
/// batch as the baseline. The delta prices what an aggressive
/// rotate-every-tick policy costs: span-table rebuild + LFSR reseed per
/// stream.
fn bench_gateway_rekey_churn(c: &mut Criterion) {
    use mhhea::KeyRing;
    let key = mhhea_bench::report_key();
    const STREAMS: u64 = 1024;
    const MSG: usize = 256;
    let mux = StreamMux::with_shards(64);
    for id in 0..STREAMS {
        let ring = KeyRing::single(key.clone(), 0x1000u16.wrapping_add(id as u16) | 1).unwrap();
        mux.open(StreamId(id), StreamConfig::new(key.clone()).with_ring(ring))
            .unwrap();
    }
    let traffic: Vec<(StreamId, StreamOp)> = (0..STREAMS)
        .map(|id| (StreamId(id), StreamOp::Encrypt(message_for(id, MSG))))
        .collect();
    let mut group = c.benchmark_group("gateway_rekey_churn_1024x256B");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(STREAMS * MSG as u64));
    let epoch = std::cell::Cell::new(0u32);
    group.bench_function("rekey_all_then_seal", |b| {
        b.iter(|| {
            let e = epoch.get() + 1;
            epoch.set(e);
            let mut batch: Vec<(StreamId, StreamOp)> = (0..STREAMS)
                .map(|id| (StreamId(id), StreamOp::Rekey { epoch: e }))
                .collect();
            batch.extend(traffic.iter().cloned());
            let results = mux.submit_batch(batch);
            assert!(results
                .iter()
                .take(STREAMS as usize)
                .all(|r| matches!(r, Ok(StreamOutput::Rekeyed { .. }))));
        })
    });
    group.bench_function("seal_only_baseline", |b| {
        b.iter(|| {
            let results = mux.submit_batch(traffic.clone());
            assert!(results.iter().all(Result::is_ok));
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gateway_sweep,
    bench_gateway_duplex,
    bench_gateway_rekey_churn
);
criterion_main!(benches);
