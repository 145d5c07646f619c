//! Lane-parallel word utilities for packed device execution.
//!
//! The packed fleet engine simulates up to 64 independent devices ("lanes")
//! at once by carrying one `u64` per wire or flop, bit `l` belonging to
//! lane `l` — the device axis twin of the PPSFP packing the fault simulator
//! uses for test sequences. Everything here is the glue that moves data
//! between the scalar world (one device, one [`BitVec`] stream per port)
//! and the lane world (one word per observation slot):
//!
//! * [`broadcast`] — replicate one stimulus bit into all 64 lanes,
//! * [`transpose64`] — in-place 64×64 bit-matrix transpose, turning
//!   time-major slot words into lane-major streams,
//! * [`LaneStreams`] — an accumulator that collects one word per port per
//!   observation slot and hands back any single lane's streams as the exact
//!   per-port [`BitVec`]s a scalar run would have recorded.
//!
//! The extraction path is what keeps packed signatures bit-identical to the
//! scalar engine: the per-lane `BitVec`s feed the very same signature fold,
//! so a lane cannot drift from the device it represents.

use crate::bits::BitVec;
use crate::poly::Polynomial;

/// Number of lanes one word carries.
pub const LANES: usize = 64;

/// Replicates one bit into every lane: `true` → all-ones, `false` → zero.
#[inline]
#[must_use]
pub fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

/// Transposes a 64×64 bit matrix in place (Hacker's Delight 7-3):
/// afterwards `a[r]` bit `c` holds what `a[c]` bit `r` held before.
///
/// Self-inverse — transposing twice restores the input.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j: usize = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k: usize = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k | j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Time-major observation accumulator for one packed lane group.
///
/// A packed run pushes one slot per observed cycle: `words[port]` carries
/// the 64 lanes' response bits for that port at that cycle. At session end,
/// [`lane_streams`](Self::lane_streams) transposes the accumulated slots
/// into the per-port serial streams of any single lane — exactly the
/// `Vec<BitVec>` the scalar engine's observation window would have built
/// for that device.
///
/// # Examples
///
/// ```
/// use casbus_tpg::lanes::{broadcast, LaneStreams};
///
/// let mut streams = LaneStreams::new(2);
/// streams.push(&[broadcast(true), 0b10]); // port 0: all lanes 1; port 1: lane 1 only
/// streams.push(&[0, 0]);
/// assert_eq!(streams.slots(), 2);
/// let lane1 = streams.lane_streams(1);
/// assert_eq!(lane1[0].to_string(), "10"); // LSB-first display: t0=1, t1=0
/// assert_eq!(lane1[1].to_string(), "10");
/// let lane0 = streams.lane_streams(0);
/// assert_eq!(lane0[1].to_string(), "00");
/// ```
#[derive(Debug, Clone)]
pub struct LaneStreams {
    /// `slots[port]` — one word per observation slot, time-major.
    slots: Vec<Vec<u64>>,
}

impl LaneStreams {
    /// An empty accumulator over `ports` parallel ports.
    #[must_use]
    pub fn new(ports: usize) -> Self {
        Self {
            slots: vec![Vec::new(); ports],
        }
    }

    /// Number of ports per slot.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.slots.len()
    }

    /// Observation slots accumulated so far.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.first().map_or(0, Vec::len)
    }

    /// Appends one observation slot: `words[port]` is the lane word the
    /// port produced this cycle.
    ///
    /// # Panics
    ///
    /// If `words.len()` differs from the port count.
    pub fn push(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.slots.len(), "one word per port");
        for (port, &word) in self.slots.iter_mut().zip(words) {
            port.push(word);
        }
    }

    /// Appends one all-zero observation slot (capture cycles record a zero
    /// placeholder in the scalar window).
    pub fn push_zeros(&mut self) {
        for port in &mut self.slots {
            port.push(0);
        }
    }

    /// Extracts lane `lane`'s per-port serial streams, bit `t` of each
    /// stream being that lane's response at observation slot `t`.
    ///
    /// # Panics
    ///
    /// If `lane >= 64`.
    #[must_use]
    pub fn lane_streams(&self, lane: usize) -> Vec<BitVec> {
        assert!(lane < LANES, "lane {lane} out of range");
        self.slots
            .iter()
            .map(|port| {
                let mut stream = BitVec::with_capacity(port.len());
                for chunk in port.chunks(LANES) {
                    let mut block = [0u64; LANES];
                    block[..chunk.len()].copy_from_slice(chunk);
                    transpose64(&mut block);
                    stream.push_word(block[lane], chunk.len());
                }
                stream
            })
            .collect()
    }

    /// The per-port streams of lanes `0..lanes` in one pass: each 64-slot
    /// block of a port is transposed once and handed to every lane, where
    /// [`lane_streams`](Self::lane_streams) transposes it again per lane.
    /// `extract_lanes(n)[l]` equals `lane_streams(l)`.
    ///
    /// # Panics
    ///
    /// If `lanes > 64`.
    #[must_use]
    pub fn extract_lanes(&self, lanes: usize) -> Vec<Vec<BitVec>> {
        assert!(lanes <= LANES, "{lanes} lanes exceed one word");
        let mut out: Vec<Vec<BitVec>> = (0..lanes)
            .map(|_| {
                self.slots
                    .iter()
                    .map(|port| BitVec::with_capacity(port.len()))
                    .collect()
            })
            .collect();
        for (port, words) in self.slots.iter().enumerate() {
            for chunk in words.chunks(LANES) {
                let mut block = [0u64; LANES];
                block[..chunk.len()].copy_from_slice(chunk);
                transpose64(&mut block);
                for (streams, &word) in out.iter_mut().zip(&block) {
                    streams[port].push_word(word, chunk.len());
                }
            }
        }
        out
    }
}

/// Up to 64 lane-parallel MISRs sharing one feedback polynomial — the
/// bit-sliced twin of [`Misr`](crate::Misr) the packed BIST model compresses
/// responses with.
///
/// Where the scalar MISR keeps one bit per register stage, this keeps one
/// *word* per stage: `state[i]` bit `l` is stage `i` of lane `l`'s register.
/// Because every lane shares the polynomial, the shift-down and feedback
/// steps are plain word operations, and [`absorb_lanes`](Self::absorb_lanes)
/// advances all 64 registers in O(width) word ops per clock. Every lane
/// starts from the all-zero state (matching a fresh scalar
/// [`Misr`](crate::Misr)), and a lane whose input words carry exactly a
/// scalar run's bits holds exactly that run's signature.
///
/// # Examples
///
/// ```
/// use casbus_tpg::lanes::{broadcast, LaneMisr};
/// use casbus_tpg::{BitVec, Misr, Polynomial};
///
/// let poly = Polynomial::primitive(8).unwrap();
/// let mut packed = LaneMisr::new(&poly);
/// let mut scalar = Misr::new(poly, 8).unwrap();
///
/// // Absorb the same response in lane 5 and in the scalar twin.
/// let response = 0b1011_0010u64;
/// let words: Vec<u64> = (0..8)
///     .map(|i| if (response >> i) & 1 == 1 { 1u64 << 5 } else { 0 })
///     .collect();
/// packed.absorb_lanes(&words);
/// scalar.absorb(&BitVec::from_u64(response, 8));
/// assert_eq!(packed.lane_state(5), scalar.signature().to_u64());
/// assert_eq!(packed.lane_state(0), 0); // untouched lane stays pristine
/// ```
#[derive(Debug, Clone)]
pub struct LaneMisr {
    /// `state[i]` — lane word of register stage `i`.
    state: Vec<u64>,
    /// Scalar feedback mask: bit `e - 1` set for every polynomial term
    /// `x^e`, `1 <= e <= degree` — identical to the scalar MISR's mask.
    mask: u64,
}

impl LaneMisr {
    /// 64 zero-state MISRs of width `poly.degree()` with `poly` feedback.
    ///
    /// # Panics
    ///
    /// If the polynomial degree is 0 or exceeds 64.
    #[must_use]
    pub fn new(poly: &Polynomial) -> Self {
        let width = poly.degree();
        assert!(
            width >= 1 && width <= LANES as u32,
            "MISR width {width} out of range"
        );
        let mut mask = 0u64;
        for exponent in 1..=width {
            if poly.has_term(exponent) {
                mask |= 1 << (exponent - 1);
            }
        }
        Self {
            state: vec![0; width as usize],
            mask,
        }
    }

    /// Register width in bits (the polynomial degree).
    #[must_use]
    pub fn width(&self) -> u32 {
        self.state.len() as u32
    }

    /// Clocks all 64 lanes once, each lane compressing its bits of
    /// `inputs`: `inputs[i]` bit `l` is lane `l`'s input to stage `i`.
    ///
    /// Word-for-bit identical to [`Misr::absorb`](crate::Misr::absorb): the
    /// register shifts down one stage, the outgoing bit feeds back into the
    /// polynomial taps, and the inputs XOR into the low stages.
    ///
    /// # Panics
    ///
    /// If `inputs` is empty or longer than the register.
    pub fn absorb_lanes(&mut self, inputs: &[u64]) {
        assert!(!inputs.is_empty(), "MISR needs at least one input");
        assert!(
            inputs.len() <= self.state.len(),
            "MISR accepts at most {} parallel inputs, got {}",
            self.state.len(),
            inputs.len()
        );
        let out = self.state[0];
        let width = self.state.len();
        for i in 0..width - 1 {
            self.state[i] = self.state[i + 1];
        }
        self.state[width - 1] = 0;
        let mut taps = self.mask;
        while taps != 0 {
            let stage = taps.trailing_zeros() as usize;
            self.state[stage] ^= out;
            taps &= taps - 1;
        }
        for (stage, &word) in self.state.iter_mut().zip(inputs) {
            *stage ^= word;
        }
    }

    /// The register contents as one lane word per stage: `state_words()[i]`
    /// bit `l` is stage `i` of lane `l`.
    #[must_use]
    pub fn state_words(&self) -> &[u64] {
        &self.state
    }

    /// Lane `lane`'s register as a scalar value, bit `i` holding stage `i`
    /// — equal to the scalar twin's `signature().to_u64()`.
    ///
    /// # Panics
    ///
    /// If `lane >= 64`.
    #[must_use]
    pub fn lane_state(&self, lane: usize) -> u64 {
        assert!(lane < LANES, "lane {lane} out of range");
        self.state
            .iter()
            .enumerate()
            .fold(0u64, |acc, (stage, &word)| {
                acc | (((word >> lane) & 1) << stage)
            })
    }

    /// Returns every lane to the all-zero power-on state.
    pub fn reset_lanes(&mut self) {
        self.state.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misr::Misr;

    /// A cheap deterministic word mixer for test data.
    fn mix(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x853c_49e6_748f_ea9b;
        x ^= x >> 29;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^ (x >> 33)
    }

    #[test]
    fn broadcast_fills_or_clears_all_lanes() {
        assert_eq!(broadcast(true), u64::MAX);
        assert_eq!(broadcast(false), 0);
    }

    #[test]
    fn transpose_moves_single_bits_to_mirrored_coordinates() {
        for (r, c) in [(0usize, 0usize), (0, 63), (63, 0), (17, 42), (5, 5)] {
            let mut m = [0u64; 64];
            m[r] = 1u64 << c;
            transpose64(&mut m);
            for (row, &word) in m.iter().enumerate() {
                let expected = if row == c { 1u64 << r } else { 0 };
                assert_eq!(word, expected, "bit ({r},{c}), row {row}");
            }
        }
    }

    #[test]
    fn transpose_is_self_inverse_on_dense_data() {
        let original: Vec<u64> = (0..64).map(mix).collect();
        let mut m = [0u64; 64];
        m.copy_from_slice(&original);
        transpose64(&mut m);
        transpose64(&mut m);
        assert_eq!(m.as_slice(), original.as_slice());
    }

    #[test]
    fn lane_streams_match_scalar_bit_accounting() {
        // 3 ports, 130 slots (crosses two word boundaries), 64 lanes: every
        // lane's extracted stream must equal the bit-by-bit scalar view.
        let ports = 3;
        let slots = 130;
        let mut streams = LaneStreams::new(ports);
        let word_at = |slot: usize, port: usize| mix((slot * ports + port) as u64);
        for slot in 0..slots {
            let words: Vec<u64> = (0..ports).map(|p| word_at(slot, p)).collect();
            streams.push(&words);
        }
        assert_eq!(streams.slots(), slots);
        assert_eq!(streams.ports(), ports);

        for lane in [0usize, 1, 31, 63] {
            let got = streams.lane_streams(lane);
            assert_eq!(got.len(), ports);
            for (port, stream) in got.iter().enumerate() {
                assert_eq!(stream.len(), slots);
                for slot in 0..slots {
                    let expected = (word_at(slot, port) >> lane) & 1 == 1;
                    assert_eq!(
                        stream.get(slot),
                        Some(expected),
                        "lane {lane} port {port} slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_extraction_matches_per_lane_streams() {
        for slots in [1usize, 63, 65, 130] {
            let ports = 3;
            let mut streams = LaneStreams::new(ports);
            for slot in 0..slots {
                let words: Vec<u64> = (0..ports).map(|p| mix((slot * 7 + p) as u64)).collect();
                streams.push(&words);
            }
            for lanes in [1usize, 63, 64] {
                let bulk = streams.extract_lanes(lanes);
                assert_eq!(bulk.len(), lanes);
                for (lane, got) in bulk.iter().enumerate() {
                    assert_eq!(
                        *got,
                        streams.lane_streams(lane),
                        "{slots} slots, {lanes} lanes, lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_misr_matches_64_scalar_misrs() {
        for width in [4u32, 8, 16, 32] {
            let poly = Polynomial::primitive(width).expect("supported width");
            let mut packed = LaneMisr::new(&poly);
            let mut scalars: Vec<Misr> = (0..LANES)
                .map(|_| Misr::new(poly.clone(), width).expect("valid MISR"))
                .collect();
            assert_eq!(packed.width(), width);
            let mut stamp = u64::from(width) << 32;
            for clock in 0..100 {
                let inputs: Vec<u64> = (0..width)
                    .map(|_| {
                        stamp += 1;
                        mix(stamp)
                    })
                    .collect();
                packed.absorb_lanes(&inputs);
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    let bits: BitVec = inputs.iter().map(|w| (w >> lane) & 1 == 1).collect();
                    scalar.absorb(&bits);
                    assert_eq!(
                        packed.lane_state(lane),
                        scalar.signature().to_u64(),
                        "width {width} clock {clock} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_misr_accepts_fewer_inputs_than_stages() {
        // A 2-input 8-stage MISR: inputs land on the low stages only,
        // exactly as the scalar twin injects them.
        let poly = Polynomial::primitive(8).expect("supported width");
        let mut packed = LaneMisr::new(&poly);
        let mut scalar = Misr::new(poly, 2).expect("valid MISR");
        for clock in 0..64u64 {
            let inputs = [mix(clock), mix(clock ^ 0xABCD)];
            packed.absorb_lanes(&inputs);
            let bits: BitVec = inputs.iter().map(|w| (w >> 13) & 1 == 1).collect();
            scalar.absorb(&bits);
            assert_eq!(
                packed.lane_state(13),
                scalar.signature().to_u64(),
                "clock {clock}"
            );
        }
    }

    #[test]
    fn lane_misr_reset_restores_power_on_state() {
        let poly = Polynomial::primitive(12).expect("supported width");
        let mut packed = LaneMisr::new(&poly);
        let pristine = packed.clone();
        let inputs: Vec<u64> = (0..12).map(|i| mix(i as u64)).collect();
        packed.absorb_lanes(&inputs);
        assert_ne!(packed.state_words(), pristine.state_words());
        packed.reset_lanes();
        assert_eq!(packed.state_words(), pristine.state_words());
        assert_eq!(packed.lane_state(7), 0);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn lane_misr_rejects_too_many_inputs() {
        let poly = Polynomial::primitive(4).expect("supported width");
        let mut packed = LaneMisr::new(&poly);
        packed.absorb_lanes(&[0; 5]);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn lane_misr_rejects_empty_input() {
        let poly = Polynomial::primitive(4).expect("supported width");
        let mut packed = LaneMisr::new(&poly);
        packed.absorb_lanes(&[]);
    }

    #[test]
    fn push_zeros_records_a_blank_slot() {
        let mut streams = LaneStreams::new(2);
        streams.push(&[u64::MAX, u64::MAX]);
        streams.push_zeros();
        streams.push(&[u64::MAX, 0]);
        let lane = streams.lane_streams(9);
        assert_eq!(lane[0].to_string(), "101");
        assert_eq!(lane[1].to_string(), "100");
    }
}
