//! `container_v2` — offline sealing, in process: `seal_v2` then `open_v2`
//! of seeded payloads from 64 KiB to 4 MiB with default options. The only
//! workload for `core::container`, the lane engine's open kernel, and the
//! worker pool with large jobs: at the default 16 KiB chunks, payloads of
//! 256 KiB and up reach `LANE_THRESHOLD` and take the lane path while the
//! smaller ones stay scalar.

use std::io;
use std::time::{Duration, Instant};

use mhhea::container::{open_v2, seal_v2, SealV2Options};
use mhhea::Key;

use crate::gen::{self, Rng};
use crate::trace::{SpanId, Tracer};
use crate::Outcome;

/// One round seals and opens one payload of each size, in a seeded
/// order; a run is a whole number of rounds, so every seed does the same
/// work per op.
const SIZES_KIB: [usize; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

pub struct Inputs {
    pub key: Key,
    pub payloads: Vec<Vec<u8>>,
    rng: Rng,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, "container_v2");
    let key = gen::key(&mut rng);
    let payloads = SIZES_KIB.iter().map(|k| rng.bytes(k << 10)).collect();
    Inputs { key, payloads, rng }
}

pub struct Bench {
    inputs: Inputs,
}

pub fn setup(seed: u64, _tr: &mut Tracer) -> io::Result<Bench> {
    Ok(Bench {
        inputs: inputs(seed),
    })
}

impl Bench {
    pub fn run(&mut self, seconds: f64, tr: &mut Tracer) -> io::Result<Outcome> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let opts = SealV2Options::default();
        let mut out = Outcome::default();
        let mut order: Vec<usize> = (0..SIZES_KIB.len()).collect();
        let mut req = 0u64;
        while Instant::now() < deadline {
            self.inputs.rng.shuffle(&mut order);
            for &i in &order {
                let p = &self.inputs.payloads[i];
                req += 1;
                out.attempted += 2;
                let start = Instant::now();
                let span = tr.begin("container.seal", SpanId::NONE, req);
                let sealed = seal_v2(&self.inputs.key, p, &opts);
                tr.end(span);
                let Ok(sealed) = sealed else {
                    out.refused += 2;
                    continue;
                };
                out.ok(p.len(), start.elapsed());
                let start = Instant::now();
                let span = tr.begin("container.open", SpanId::NONE, req);
                let opened = open_v2(&self.inputs.key, &sealed);
                tr.end(span);
                match opened {
                    Ok(plain) if plain == *p => out.ok(p.len(), start.elapsed()),
                    Ok(_) => out.mismatched += 1,
                    Err(_) => out.refused += 1,
                }
            }
        }
        Ok(out)
    }
}
