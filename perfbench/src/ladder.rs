//! The layer ladder: a workload's generated inputs replayed through each
//! server-side layer in process, one public call at a time, each timed
//! from outside under a span. Rungs run for a fixed time budget and check
//! every output they can.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use mhhea::block::SpanTable;
use mhhea::container::{open_v2_with, seal_v2, SealV2Options};
use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::lanes::{open_lanes, seal_lanes, LaneOpenJob, LaneSealJob, LaneSealOut};
use mhhea::pipeline::WorkerPool;
use mhhea::{Algorithm, DecryptSession, EncryptSession, Key, KeyRing, LfsrSource};
use mhhea_net::crc::crc32;
use mhhea_net::dgram::DGRAM_MAX_CHUNK_BYTES;
use mhhea_net::frame::{self, FrameKind};

use crate::trace::{SpanId, Tracer};
use crate::{container_v2, gen, measure, tcp_churn, tcp_mux, udp_chunks, Workload};

/// What a workload feeds the ladder: its keys, stream seeds, messages
/// (the unit a session encrypts) and container payloads.
pub struct Inputs {
    pub keys: Vec<Key>,
    pub seeds: Vec<u16>,
    pub messages: Vec<Vec<u8>>,
    pub payloads: Vec<Vec<u8>>,
}

/// Streams the gateway rungs open (and the memory probe keeps live).
pub const STREAMS: usize = 2048;
/// Streams the memory probe parks: their snapshots are small, so more of
/// them are needed for the growth to stand out of page granularity.
const PARKED: usize = 8192;
/// Ops per `submit_batch`: the streams one pipelined `tcp_mux` window
/// keeps busy across both connections.
const BATCH: usize = tcp_mux::WINDOW;
const RUNG_BUDGET: Duration = Duration::from_millis(250);

pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let keys: Vec<Key> = gen::keyring(seed).into_iter().map(|(_, k)| k).collect();
    let (keys, seeds, messages) = match workload {
        Workload::TcpMux => {
            let i = tcp_mux::inputs(seed);
            let seeds = i.streams.iter().flatten().map(|s| s.2).collect();
            (keys, seeds, i.messages.concat())
        }
        Workload::TcpChurn => {
            let i = tcp_churn::inputs(seed);
            let seeds = i.plans.iter().map(|p| p.lfsr_seed).collect();
            let messages = i.plans.into_iter().flat_map(|p| p.messages).collect();
            (keys, seeds, messages)
        }
        Workload::UdpChunks => {
            let i = udp_chunks::inputs(seed);
            let seeds = i.streams.iter().map(|s| s.2).collect();
            let chunks = i
                .messages
                .iter()
                .flat_map(|m| m.chunks(DGRAM_MAX_CHUNK_BYTES).map(<[u8]>::to_vec))
                .collect();
            (keys, seeds, chunks)
        }
        Workload::ContainerV2 => {
            let i = container_v2::inputs(seed);
            let chunks = i
                .payloads
                .iter()
                .flat_map(|p| {
                    p.chunks(mhhea::pipeline::DEFAULT_CHUNK_BYTES)
                        .map(<[u8]>::to_vec)
                })
                .collect();
            let seeds = (0..64)
                .map(|c| mhhea::pipeline::chunk_seed(0xACE1, c))
                .collect();
            return Inputs {
                keys: vec![i.key],
                seeds,
                messages: chunks,
                payloads: i.payloads,
            };
        }
    };
    // Container payloads for the network workloads: their messages packed
    // into 64 KiB, the smallest `container_v2` size.
    let payloads = messages
        .concat()
        .chunks(64 << 10)
        .filter(|p| p.len() == 64 << 10)
        .take(8)
        .map(<[u8]>::to_vec)
        .collect();
    Inputs {
        keys,
        seeds,
        messages,
        payloads,
    }
}

/// Runs `f(i)` for i = 0, 1, … until the budget is spent or `limit`
/// calls are made, timing batches of `batch` calls under one span each.
/// Returns (calls, seconds, units) where units is what the calls
/// returned summed (bytes, usually).
fn rung(
    tr: &mut Tracer,
    name: &'static str,
    batch: usize,
    limit: usize,
    mut f: impl FnMut(usize) -> u64,
) -> (u64, f64, u64) {
    let (mut calls, mut units, mut busy) = (0u64, 0u64, Duration::ZERO);
    let start = Instant::now();
    while (calls as usize) < limit && (calls == 0 || start.elapsed() < RUNG_BUDGET) {
        let t = Instant::now();
        for _ in 0..batch.min(limit - calls as usize) {
            units += f(calls as usize);
            calls += 1;
        }
        let e = Instant::now();
        busy += e - t;
        tr.record(name, SpanId::NONE, calls, t, e);
    }
    (calls, busy.as_secs_f64(), units)
}

fn per_call_us((calls, secs, _): (u64, f64, u64)) -> f64 {
    secs * 1e6 / calls as f64
}

fn ns_per_unit((_, secs, units): (u64, f64, u64)) -> f64 {
    secs * 1e9 / units.max(1) as f64
}

fn ring(key: &Key, seed: u16) -> StreamConfig {
    let ring = KeyRing::single(key.clone(), seed).expect("nonzero seed");
    StreamConfig::new(key.clone())
        .with_seed(seed)
        .with_ring(ring)
}

/// Every ladder rung on `inp`. `failures` counts outputs that did not
/// check out.
pub fn run(inp: &Inputs, tr: &mut Tracer, failures: &mut u64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let (keys, seeds, msgs) = (&inp.keys, &inp.seeds, &inp.messages);
    let key = |i: usize| &keys[i % keys.len()];
    let seed = |i: usize| seeds[i % seeds.len()];
    let msg = |i: usize| &msgs[i % msgs.len()];

    let r = rung(tr, "ladder.lfsr_source_new", 16, usize::MAX, |i| {
        black_box(LfsrSource::new(seed(i)).expect("nonzero seed"));
        0
    });
    m.insert("lfsr.source_new_us", per_call_us(r));
    let r = rung(tr, "ladder.span_table_new", 4, usize::MAX, |i| {
        black_box(SpanTable::new(key(i), Algorithm::Mhhea));
        0
    });
    m.insert("block.span_table_new_us", per_call_us(r));
    let r = rung(tr, "ladder.session_setup", 4, usize::MAX, |i| {
        let src = LfsrSource::new(seed(i)).expect("nonzero seed");
        black_box(EncryptSession::new(key(i).clone(), src));
        black_box(DecryptSession::new(key(i).clone()));
        0
    });
    m.insert("session.setup_us", per_call_us(r));

    // Session encrypt and decrypt, one message per call, in lockstep.
    let mut enc = EncryptSession::new(key(0).clone(), LfsrSource::new(seed(0)).expect("seed"));
    let mut dec = DecryptSession::new(key(0).clone());
    let mut sealed: Vec<(usize, Vec<u16>)> = Vec::new();
    let r = rung(tr, "ladder.session_encrypt", 1, usize::MAX, |i| {
        sealed.push((i, enc.encrypt(msg(i)).expect("encrypt")));
        msg(i).len() as u64
    });
    m.insert("session.encrypt_ns_per_byte", ns_per_unit(r));
    let r = rung(tr, "ladder.session_decrypt", 1, sealed.len(), |k| {
        let (i, blocks) = &sealed[k];
        let plain = dec.decrypt(blocks, 8 * msg(*i).len()).expect("decrypt");
        *failures += u64::from(plain != *msg(*i));
        msg(*i).len() as u64
    });
    m.insert("session.decrypt_ns_per_byte", ns_per_unit(r));

    // Lanes: groups of 16, 32 and 64 streams sealed in lockstep, opened back.
    let table = SpanTable::new(key(0), Algorithm::Mhhea);
    let mut groups: Vec<(usize, Vec<LaneSealOut>)> = Vec::new();
    let mut next = 0usize;
    let r = rung(tr, "ladder.lanes_seal", 1, usize::MAX, |g| {
        let width = [16, 32, 64][g % 3];
        let jobs: Vec<LaneSealJob> = (next..next + width)
            .map(|i| LaneSealJob {
                message: msg(i),
                state: seed(i),
                block_index: 0,
            })
            .collect();
        let outs = seal_lanes(key(0), Algorithm::Mhhea, &table, &jobs).expect("seal_lanes");
        groups.push((next, outs));
        next += width;
        jobs.iter().map(|j| j.message.len() as u64).sum()
    });
    m.insert("lanes.seal_ns_per_byte", ns_per_unit(r));
    let r = rung(tr, "ladder.lanes_open", 1, groups.len(), |g| {
        let (first, outs) = &groups[g];
        let jobs: Vec<LaneOpenJob> = outs
            .iter()
            .enumerate()
            .map(|(k, o)| LaneOpenJob {
                blocks: &o.blocks,
                bit_len: 8 * msg(first + k).len(),
                block_index: 0,
            })
            .collect();
        let plains = open_lanes(key(0), Algorithm::Mhhea, &table, &jobs).expect("open_lanes");
        let mut bytes = 0;
        for (k, p) in plains.iter().enumerate() {
            *failures += u64::from(p != msg(first + k));
            bytes += p.len() as u64;
        }
        bytes
    });
    m.insert("lanes.open_ns_per_byte", ns_per_unit(r));

    // Gateway: opens, mixed-size batches, chunks, rekey, evict/restore.
    let mux = StreamMux::with_shards(64);
    let ids: Vec<StreamId> = (0..STREAMS as u64).map(|i| StreamId(i + 1)).collect();
    let r = rung(tr, "ladder.gateway_open", 1, STREAMS, |i| {
        mux.open(ids[i], ring(key(i), seed(i))).expect("open");
        0
    });
    m.insert("gateway.open_us", per_call_us(r));
    for (i, &id) in ids.iter().enumerate().skip(r.0 as usize) {
        mux.open(id, ring(key(i), seed(i))).expect("open");
    }
    // One encrypt batch and the matching decrypt batch per call, each op
    // on its own stream (BATCH divides STREAMS).
    let r = rung(tr, "ladder.submit_batch", 1, usize::MAX, |b| {
        let picks = b * BATCH..(b + 1) * BATCH;
        let enc = picks
            .clone()
            .map(|j| (ids[j % STREAMS], StreamOp::Encrypt(msg(j).clone())))
            .collect();
        let sealed = mux.submit_batch(enc);
        let dec = sealed
            .into_iter()
            .zip(picks.clone())
            .map(|(out, j)| {
                let blocks = match out {
                    Ok(StreamOutput::Blocks(b)) => b,
                    _ => Vec::new(),
                };
                let bit_len = 8 * msg(j).len();
                (ids[j % STREAMS], StreamOp::Decrypt { blocks, bit_len })
            })
            .collect();
        let opened = mux.submit_batch(dec);
        let mut bytes = 0;
        for (out, j) in opened.iter().zip(picks) {
            *failures += u64::from(!matches!(out, Ok(StreamOutput::Plain(p)) if p == msg(j)));
            bytes += 2 * msg(j).len() as u64;
        }
        bytes
    });
    m.insert("gateway.submit_batch_us", per_call_us(r) / 2.0);
    m.insert("gateway.submit_batch_ns_per_byte", ns_per_unit(r));

    let chunk = |i: usize| &msg(i)[..msg(i).len().min(DGRAM_MAX_CHUNK_BYTES)];
    let mut chunks: Vec<(usize, Vec<u16>)> = Vec::new();
    let r = rung(tr, "ladder.seal_chunk", 1, usize::MAX, |i| {
        let blocks = mux
            .seal_chunk(ids[i % STREAMS], 0, (i / STREAMS) as u32, chunk(i))
            .expect("seal_chunk");
        chunks.push((i, blocks));
        0
    });
    m.insert("gateway.seal_chunk_us", per_call_us(r));
    let r = rung(tr, "ladder.open_chunk", 1, chunks.len(), |k| {
        let (i, blocks) = &chunks[k];
        let plain = mux
            .open_chunk(ids[i % STREAMS], 0, blocks, 8 * chunk(*i).len())
            .expect("open_chunk");
        *failures += u64::from(plain != chunk(*i));
        0
    });
    m.insert("gateway.open_chunk_us", per_call_us(r));

    let mut epochs: HashMap<StreamId, u32> = HashMap::new();
    let r = rung(tr, "ladder.rekey", 1, usize::MAX, |i| {
        let id = ids[i % STREAMS];
        let e = epochs.entry(id).or_insert(0);
        *e += 1;
        mux.rekey(id, *e).expect("rekey");
        0
    });
    m.insert("gateway.rekey_us", per_call_us(r));

    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let r = rung(tr, "ladder.evict", 1, STREAMS, |i| {
        snaps.push(mux.evict(ids[i]).expect("evict"));
        0
    });
    m.insert("gateway.evict_us", per_call_us(r));
    m.insert(
        "gateway.snapshot_bytes",
        snaps.iter().map(Vec::len).sum::<usize>() as f64 / snaps.len() as f64,
    );
    let r = rung(tr, "ladder.restore", 1, snaps.len(), |i| {
        mux.restore(&snaps[i]).expect("restore");
        0
    });
    m.insert("gateway.restore_us", per_call_us(r));

    let pool = WorkerPool::global();
    let r = rung(tr, "ladder.map_dispatch", 1, usize::MAX, |_| {
        let out = pool.map((0..64u64).collect(), 0, |_, x| x ^ 1);
        black_box(out);
        0
    });
    m.insert("pipeline.map_dispatch_us", per_call_us(r));

    let opts = SealV2Options::default();
    let pays = &inp.payloads;
    let mut sealed: Vec<(usize, Vec<u8>)> = Vec::new();
    let r = rung(tr, "ladder.container_seal", 1, usize::MAX, |i| {
        let p = &pays[i % pays.len()];
        sealed.push((i, seal_v2(key(0), p, &opts).expect("seal_v2")));
        p.len() as u64
    });
    m.insert("container.seal_ns_per_byte", ns_per_unit(r));
    let r = rung(tr, "ladder.container_open", 1, sealed.len(), |k| {
        let (i, s) = &sealed[k];
        let plain = open_v2_with(key(0), s, 0).expect("open_v2");
        *failures += u64::from(plain != pays[i % pays.len()]);
        plain.len() as u64
    });
    m.insert("container.open_ns_per_byte", ns_per_unit(r));

    // Frame codec and CRC at the workload's message sizes.
    let mut buf = Vec::new();
    let r = rung(tr, "ladder.frame_encode", 64, usize::MAX, |i| {
        buf.clear();
        frame::encode_raw(&mut buf, FrameKind::Data, 0, i as u64, i as u64, msg(i));
        black_box(&buf);
        1
    });
    m.insert("frame.encode_ns", ns_per_unit(r));
    let encoded: Vec<Vec<u8>> = (0..256)
        .map(|i| {
            let mut b = Vec::new();
            frame::encode_raw(&mut b, FrameKind::Data, 0, i as u64, i as u64, msg(i));
            b
        })
        .collect();
    let r = rung(tr, "ladder.frame_decode", 64, usize::MAX, |i| {
        let ok = matches!(frame::decode(&encoded[i % 256]), Ok(Some((f, _))) if f.payload == *msg(i % 256));
        *failures += u64::from(!ok);
        1
    });
    m.insert("frame.decode_ns", ns_per_unit(r));
    let r = rung(tr, "ladder.crc32", 64, usize::MAX, |i| {
        black_box(crc32(msg(i)));
        msg(i).len() as u64
    });
    m.insert("crc.ns_per_byte", ns_per_unit(r));
    m
}

/// Body of the `mem-probe` child: RSS per parked stream (open, evict and
/// hold the snapshot, one stream at a time, so the transient live state
/// is reused) and then per live stream (open and keep), printed in KiB.
///
/// It runs in a fresh process and allocates nothing large before it
/// measures: freed heap memory that stays resident would absorb the
/// growth and hide it. Per-stream state does not depend on the messages,
/// so only the workload's keys are drawn.
pub fn mem_probe(seed: u64) {
    let keys: Vec<Key> = gen::keyring(seed).into_iter().map(|(_, k)| k).collect();
    let mut rng = gen::Rng::new(seed, "mem");
    let mut cfg = |i: usize| ring(&keys[i % keys.len()], rng.seed16());
    let mux = StreamMux::with_shards(64);
    let rss = || measure::status_kib("self", "VmRSS") as f64;

    let before = rss();
    let mut parked: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..PARKED {
        let id = StreamId(i as u64 + 1);
        mux.open(id, cfg(i)).expect("open");
        parked.insert(id.0, mux.evict(id).expect("evict"));
    }
    let parked_kib = (rss() - before) / PARKED as f64;

    let before = rss();
    for i in 0..STREAMS {
        let id = StreamId((PARKED + i) as u64 + 1);
        mux.open(id, cfg(i)).expect("open");
    }
    let live_kib = (rss() - before) / STREAMS as f64;
    black_box(&parked);
    println!("mem {live_kib} {parked_kib}");
}
