//! Hiding-vector sources.
//!
//! Every encrypted block needs a fresh 16-bit hiding vector `V`. The paper
//! generates it with a maximal-length LFSR; loading "multimedia cover data"
//! instead turns the same datapath into a steganographic embedder. This
//! module abstracts that choice behind [`VectorSource`].

use std::sync::OnceLock;

use lfsr::{Fibonacci, LfsrError};

/// Supplies one 16-bit hiding vector per block.
///
/// Sources return `None` when exhausted (only finite cover data does);
/// engines surface that as [`crate::MhheaError::SourceExhausted`].
pub trait VectorSource {
    /// Produces the next hiding vector, or `None` when the source is out.
    fn next_vector(&mut self) -> Option<u16>;
}

/// The 16-step leap of the 16-bit LFSR, a linear map over GF(2) fixed by
/// the tap polynomial: derived once per process and shared by every
/// [`LfsrSource`] and the lane engine's bitsliced register.
#[derive(Debug)]
pub(crate) struct LeapNetwork {
    /// `apply(state) = lo[state & 0xFF] ^ hi[state >> 8]`.
    lo: [u16; 256],
    hi: [u16; 256],
    /// Matrix rows: next bit `i` is the parity of `state & rows[i]`.
    pub(crate) rows: [u16; 16],
}

impl LeapNetwork {
    /// The process-wide network, folded from
    /// [`lfsr::Fibonacci::leap_matrix`] on first use.
    pub(crate) fn get() -> &'static LeapNetwork {
        static NETWORK: OnceLock<LeapNetwork> = OnceLock::new();
        NETWORK.get_or_init(|| {
            let leap = Fibonacci::from_table(16, 1)
                .expect("width 16 is tabulated and seed 1 nonzero")
                .leap_matrix(16);
            LeapNetwork {
                lo: core::array::from_fn(|b| leap.apply(b as u64) as u16),
                hi: core::array::from_fn(|b| leap.apply((b as u64) << 8) as u16),
                rows: core::array::from_fn(|i| leap.row(i) as u16),
            }
        })
    }

    /// Advances `state` by one block (16 LFSR steps).
    #[inline]
    pub(crate) fn apply(&self, state: u16) -> u16 {
        self.lo[(state & 0xFF) as usize] ^ self.hi[(state >> 8) as usize]
    }
}

/// The paper's random-number-generator module: a 16-bit maximal-length
/// Fibonacci LFSR advanced 16 steps per block (the hardware leap network).
///
/// The 16-step leap is a linear map over GF(2), so — exactly like the
/// hardware's one-clock leap network — it is precomputed: the transition
/// matrix ([`lfsr::Fibonacci::leap_matrix`]) is folded once per process
/// into two 256-entry byte tables that every source shares, and each
/// vector costs two loads and an XOR instead of sixteen serial
/// shift-and-feedback steps. A source is only its register.
///
/// # Examples
///
/// ```
/// use mhhea::{LfsrSource, VectorSource};
///
/// let mut src = LfsrSource::new(0xACE1).expect("nonzero seed");
/// let a = src.next_vector().unwrap();
/// let b = src.next_vector().unwrap();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct LfsrSource {
    state: u16,
    leap: &'static LeapNetwork,
}

impl LfsrSource {
    /// Creates the generator from a nonzero 16-bit seed.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::ZeroSeed`] for a zero seed (the all-zero
    /// state is the lattice's fixed point).
    pub fn new(seed: u16) -> Result<Self, LfsrError> {
        let mut source = LfsrSource {
            state: 1,
            leap: LeapNetwork::get(),
        };
        source.set_state(seed)?;
        Ok(source)
    }

    /// Current LFSR state (the next vector before leaping).
    pub fn state(&self) -> u16 {
        self.state
    }

    /// Repositions the register at `state`: the next vector is the leap
    /// from `state`, exactly as if the register had been seeded there.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::ZeroSeed`] for the all-zero state (the
    /// lattice's fixed point).
    pub fn set_state(&mut self, state: u16) -> Result<(), LfsrError> {
        if state == 0 {
            return Err(LfsrError::ZeroSeed);
        }
        self.state = state;
        Ok(())
    }
}

impl VectorSource for LfsrSource {
    fn next_vector(&mut self) -> Option<u16> {
        self.state = self.leap.apply(self.state);
        Some(self.state)
    }
}

/// Adapts any [`rand::Rng`] into a vector source (useful for statistical
/// experiments where LFSR structure must be ruled out).
#[derive(Debug, Clone)]
pub struct RngSource<R> {
    rng: R,
}

impl<R: rand::Rng> RngSource<R> {
    /// Wraps an RNG.
    pub fn new(rng: R) -> Self {
        RngSource { rng }
    }
}

impl<R: rand::Rng> VectorSource for RngSource<R> {
    fn next_vector(&mut self) -> Option<u16> {
        Some(self.rng.gen())
    }
}

/// Steganography mode: hiding vectors come from cover data (e.g. an image
/// or audio buffer) and the "ciphertext" is the slightly modified cover.
///
/// # Examples
///
/// ```
/// use mhhea::{CoverSource, VectorSource};
///
/// let cover = vec![0x1234, 0xCA06];
/// let mut src = CoverSource::new(cover);
/// assert_eq!(src.next_vector(), Some(0x1234));
/// assert_eq!(src.next_vector(), Some(0xCA06));
/// assert_eq!(src.next_vector(), None);
/// ```
#[derive(Debug, Clone)]
pub struct CoverSource {
    words: std::vec::IntoIter<u16>,
}

impl CoverSource {
    /// Wraps cover words (consumed front to back).
    pub fn new(words: Vec<u16>) -> Self {
        CoverSource {
            words: words.into_iter(),
        }
    }

    /// Builds a cover source from bytes, little-endian word packing; a
    /// trailing odd byte is zero-extended.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut words = Vec::with_capacity(bytes.len().div_ceil(2));
        for chunk in bytes.chunks(2) {
            let lo = chunk[0] as u16;
            let hi = chunk.get(1).copied().unwrap_or(0) as u16;
            words.push(lo | (hi << 8));
        }
        CoverSource::new(words)
    }

    /// Words remaining.
    pub fn remaining(&self) -> usize {
        self.words.len()
    }
}

impl VectorSource for CoverSource {
    fn next_vector(&mut self) -> Option<u16> {
        self.words.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lfsr_source_is_deterministic_and_nonrepeating_shortterm() {
        let mut a = LfsrSource::new(0xACE1).unwrap();
        let mut b = LfsrSource::new(0xACE1).unwrap();
        let seq_a: Vec<u16> = (0..64).map(|_| a.next_vector().unwrap()).collect();
        let seq_b: Vec<u16> = (0..64).map(|_| b.next_vector().unwrap()).collect();
        assert_eq!(seq_a, seq_b);
        let distinct: std::collections::HashSet<u16> = seq_a.iter().copied().collect();
        assert!(
            distinct.len() > 60,
            "only {} distinct vectors",
            distinct.len()
        );
    }

    #[test]
    fn lfsr_source_rejects_zero_seed() {
        assert!(matches!(LfsrSource::new(0), Err(LfsrError::ZeroSeed)));
    }

    #[test]
    fn lfsr_source_is_just_the_register() {
        // The leap tables are shared, so a source is only its register
        // and a pointer to them.
        assert!(std::mem::size_of::<LfsrSource>() <= 16);
    }

    #[test]
    fn lfsr_leaps_full_width_per_block() {
        // One block must advance the register 16 steps, not 1.
        let mut src = LfsrSource::new(1).unwrap();
        let mut reference = lfsr::Fibonacci::from_table(16, 1).unwrap();
        reference.leap(16);
        assert_eq!(src.next_vector().unwrap() as u64, reference.state());
    }

    #[test]
    fn lfsr_byte_tables_match_serial_reference_long_run() {
        // The table-folded leap network must track the bit-serial register
        // for many blocks (and across the sequence, not just one step).
        for seed in [1u16, 0xACE1, 0xFFFF, 0x8000] {
            let mut src = LfsrSource::new(seed).unwrap();
            let mut reference = lfsr::Fibonacci::from_table(16, seed as u64).unwrap();
            assert_eq!(src.state(), seed);
            for i in 0..1000 {
                reference.leap(16);
                assert_eq!(
                    src.next_vector().unwrap() as u64,
                    reference.state(),
                    "seed {seed:#06x} block {i}"
                );
            }
        }
    }

    #[test]
    fn rng_source_draws() {
        let mut src = RngSource::new(StdRng::seed_from_u64(1));
        let a = src.next_vector().unwrap();
        let b = src.next_vector().unwrap();
        // Astronomically unlikely to be equal for a seeded StdRng.
        assert_ne!((a, b), (0, 0));
    }

    #[test]
    fn cover_source_exhausts() {
        let mut src = CoverSource::new(vec![1, 2]);
        assert_eq!(src.remaining(), 2);
        assert_eq!(src.next_vector(), Some(1));
        assert_eq!(src.next_vector(), Some(2));
        assert_eq!(src.next_vector(), None);
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn cover_from_bytes_little_endian() {
        let mut src = CoverSource::from_bytes(&[0x06, 0xCA, 0xFF]);
        assert_eq!(src.next_vector(), Some(0xCA06));
        assert_eq!(src.next_vector(), Some(0x00FF));
        assert_eq!(src.next_vector(), None);
    }
}
