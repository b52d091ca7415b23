//! Seeded input generation. Everything the server and the library calls
//! see — keys, stream ids, LFSR seeds, message sizes and bytes, session
//! plans — is drawn here from the workload seed, so the same seed gives
//! the same input sequence on every machine.

use mhhea::{Key, KeyPair};

/// SplitMix64: tiny, seedable, and stable across Rust and crate versions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed, so adding a
    /// stream never shifts the values another stream draws.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = seed ^ 0x6a09_e667_f3bc_c908;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A nonzero 16-bit LFSR seed.
    pub fn seed16(&mut self) -> u16 {
        loop {
            let s = self.next_u64() as u16;
            if s != 0 {
                return s;
            }
        }
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` values at evenly spaced quantiles `(k + ½)/n` of a distribution
    /// (`quantile` maps `[0, 1)` to a value), in seeded order. Every seed
    /// draws the same multiset, so the work per op does not depend on the
    /// seed; the seed picks the order and, elsewhere, the bytes.
    pub fn stratified<T>(&mut self, n: usize, quantile: impl Fn(f64) -> T) -> Vec<T> {
        let mut v: Vec<T> = (0..n)
            .map(|k| quantile((k as f64 + 0.5) / n as f64))
            .collect();
        self.shuffle(&mut v);
        v
    }
}

/// Log-uniform in `lo..hi` at quantile `q` (each doubling is equally
/// likely, which weights sizes toward the small end).
pub fn log_size(q: f64, lo: usize, hi: usize) -> usize {
    let span = (hi as f64 / lo as f64).log2();
    ((lo as f64) * (span * q).exp2()) as usize
}

/// Uniform in `lo..=hi` at quantile `q`.
pub fn uniform(q: f64, lo: usize, hi: usize) -> usize {
    lo + (q * (hi - lo + 1) as f64) as usize
}

/// Pair distances `hi − lo` for every generated key. The expected span
/// width of a pair depends only on its distance, so holding the multiset
/// fixed (the rounded distribution of a uniformly random pair) makes
/// every seed's keys expand plaintext by the same factor on average: the
/// seed changes which key is used, not how much work a byte costs.
const PAIR_DISTANCES: [u8; 16] = [0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6];

/// A 16-pair key with the fixed distance mix, placed and ordered by `rng`.
pub fn key(rng: &mut Rng) -> Key {
    let mut d = PAIR_DISTANCES;
    rng.shuffle(&mut d);
    let pairs = d
        .iter()
        .map(|&d| {
            let lo = rng.below(u64::from(8 - d)) as u8;
            let (a, b) = if rng.below(2) == 0 {
                (lo, lo + d)
            } else {
                (lo + d, lo)
            };
            KeyPair::new(a, b).expect("halves are below 8")
        })
        .collect();
    Key::new(pairs).expect("16 pairs is a valid key")
}

/// The server keyring every network workload uses: ids 1..=4.
pub fn keyring(seed: u64) -> Vec<(u32, Key)> {
    let mut rng = Rng::new(seed, "keyring");
    (1..=4).map(|id| (id, key(&mut rng))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_other_seed_differs() {
        let draw = |seed| {
            let mut r = Rng::new(seed, "messages");
            let sizes = r.stratified(64, |q| log_size(q, 64, 16384));
            (sizes, r.bytes(100), keyring(seed))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
        assert_ne!(draw(7).1, draw(8).1);
        assert_ne!(draw(7).2, draw(8).2);
        // Another seed reorders the sizes but draws the same multiset.
        let (mut a, mut b) = (draw(7).0, draw(8).0);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn workload_inputs_repeat_for_a_seed() {
        let mux = |s| {
            let i = crate::tcp_mux::inputs(s);
            (i.streams, i.messages)
        };
        assert!(mux(5) == mux(5) && mux(5) != mux(6));
        let churn = |s| {
            let i = crate::tcp_churn::inputs(s);
            let plans: Vec<_> = i
                .plans
                .into_iter()
                .map(|p| (p.key_id, p.lfsr_seed, p.messages))
                .collect();
            (i.id_base, plans)
        };
        assert!(churn(5) == churn(5) && churn(5) != churn(6));
        let udp = |s| {
            let i = crate::udp_chunks::inputs(s);
            (i.streams, i.messages)
        };
        assert!(udp(5) == udp(5) && udp(5) != udp(6));
        let container = |s| {
            let i = crate::container_v2::inputs(s);
            (i.key, i.payloads)
        };
        assert!(container(5) == container(5) && container(5) != container(6));
    }

    #[test]
    fn keys_keep_the_distance_mix() {
        let mut r = Rng::new(3, "k");
        for _ in 0..20 {
            let k = key(&mut r);
            let mut d: Vec<u8> = k.pairs().iter().map(|p| p.span_width() - 1).collect();
            d.sort_unstable();
            assert_eq!(d, PAIR_DISTANCES);
        }
    }

    #[test]
    fn quantile_maps_stay_in_range() {
        let mut r = Rng::new(1, "s");
        for s in r.stratified(10_000, |q| log_size(q, 64, 16384)) {
            assert!((64..16384).contains(&s));
        }
        let u = r.stratified(1000, |q| uniform(q, 2, 4));
        assert_eq!((u.iter().min(), u.iter().max()), (Some(&2), Some(&4)));
    }
}
