//! The multi-stream gateway end to end: a fleet of concurrent streams,
//! one batched seal and open per traffic tick, and a mid-conversation
//! evict/restore cycle that resumes a stream bit-exactly.
//!
//! Run with `cargo run --release --example gateway`.

use mhhea::gateway::{StreamConfig, StreamId, StreamMux, StreamOp, StreamOutput};
use mhhea::{Key, Profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = Key::from_nibbles(&[(0, 3), (2, 5), (7, 1), (4, 4)])?;

    // One mux per endpoint. Opening the same id with the same config on
    // both sides puts their cursors in lockstep.
    const STREAMS: u64 = 1500;
    let tx = StreamMux::with_shards(64);
    let rx = StreamMux::with_shards(64);
    for id in 0..STREAMS {
        let cfg = StreamConfig::new(key.clone())
            .with_profile(Profile::Streaming)
            .with_seed(0x2000u16.wrapping_add(id as u16) | 1);
        tx.open(StreamId(id), cfg.clone())?;
        rx.open(StreamId(id), cfg)?;
    }
    println!(
        "opened {} duplex streams across {} shards",
        tx.len(),
        tx.shard_count()
    );

    // A traffic tick: every stream sends one message; the whole batch is
    // one `submit_batch` call, run in order on this thread.
    let messages: Vec<Vec<u8>> = (0..STREAMS)
        .map(|id| format!("tick 0 payload for stream {id}").into_bytes())
        .collect();
    let batch = (0..STREAMS)
        .zip(&messages)
        .map(|(id, msg)| (StreamId(id), StreamOp::Encrypt(msg.clone())))
        .collect();
    let start = std::time::Instant::now();
    let sealed = tx.submit_batch(batch);
    let sealed_in = start.elapsed();

    // The peer opens the whole tick in one batch too.
    let mut opens = Vec::with_capacity(sealed.len());
    let mut cipher_bytes = 0;
    for ((id, msg), result) in (0..STREAMS).zip(&messages).zip(sealed) {
        let StreamOutput::Blocks(blocks) = result? else {
            return Err("an encrypt produced no blocks".into());
        };
        cipher_bytes += blocks.len() * 2;
        let bit_len = msg.len() * 8;
        opens.push((StreamId(id), StreamOp::Decrypt { blocks, bit_len }));
    }
    let start = std::time::Instant::now();
    let opened = rx.submit_batch(opens);
    let opened_in = start.elapsed();
    let ok = opened
        .into_iter()
        .zip(&messages)
        .filter(|(r, msg)| r.as_ref() == Ok(&StreamOutput::Plain(msg.to_vec())))
        .count();
    println!(
        "tick: sealed {STREAMS} messages ({cipher_bytes} cipher bytes) in {sealed_in:?}, \
         opened {ok}/{STREAMS} in {opened_in:?}"
    );

    // Evict an idle stream: its whole resume state (key, cursors, LFSR
    // register) serialises into a small snapshot.
    let snap_tx = tx.evict(StreamId(7))?;
    let snap_rx = rx.evict(StreamId(7))?;
    println!(
        "evicted stream 7: snapshot is {} bytes, {} streams remain",
        snap_tx.len(),
        tx.len()
    );

    // Restore later — possibly on a differently-sharded mux — and the
    // stream continues exactly where it left off.
    tx.restore(&snap_tx)?;
    rx.restore(&snap_rx)?;
    let blocks = tx.encrypt(StreamId(7), b"post-restore message")?;
    let plain = rx.decrypt(StreamId(7), &blocks, b"post-restore message".len() * 8)?;
    assert_eq!(plain, b"post-restore message");
    println!(
        "stream 7 restored and resumed at cursor block {} — round trip intact",
        tx.cursor(StreamId(7))?.block_index
    );
    Ok(())
}
