//! Full-scan core model (paper Fig. 2 (a)).

use casbus_p1500::TestableCore;
use casbus_tpg::bits::low_mask;
use casbus_tpg::BitVec;

use super::name_key;

/// A full-scan core: one shift register per scan chain plus a deterministic
/// combinational "mission logic" fired on capture clocks.
///
/// The capture transform mixes every chain bit with its neighbour and a
/// name-derived key, so responses are non-trivial yet perfectly reproducible
/// — a fault-free clone run on the same stimuli yields the golden responses.
///
/// A stuck-at fault can be injected with [`ScanCore::inject_stuck_at`]; the
/// faulty bit re-asserts after every shift and capture, exactly like a
/// stuck-at node feeding a scan flip-flop.
///
/// Every clock works a word at a time: one shift or up to 64 go through
/// [`BitVec::scan_shift_word`], with a stuck flop's effect on the whole
/// batch applied afterwards, and a capture computes the transform 64 flops
/// per operation into buffers the core keeps, so no clock allocates.
///
/// # Examples
///
/// ```
/// use casbus_soc::models::ScanCore;
/// use casbus_p1500::TestableCore;
/// use casbus_tpg::BitVec;
///
/// let mut core = ScanCore::new("cpu", vec![8, 6]);
/// assert_eq!(core.test_ports(), 2);
/// assert_eq!(core.scan_depth(), 8);
/// let out = core.test_clock(&"11".parse::<BitVec>().unwrap());
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ScanCore {
    name: String,
    chains: Vec<BitVec>,
    /// Capture scratch: the next chain contents, swapped with `chains`
    /// after every capture, and the neighbour chain's cyclic prefix.
    next: Vec<BitVec>,
    cross: BitVec,
    key: u64,
    stuck_at: Option<(usize, usize, bool)>,
}

impl ScanCore {
    /// Creates a scan core with the given chain lengths, all flip-flops
    /// cleared.
    ///
    /// # Panics
    ///
    /// Panics if no chain is given or any chain is empty.
    pub fn new(name: &str, chain_lengths: Vec<usize>) -> Self {
        assert!(
            !chain_lengths.is_empty(),
            "a scan core needs at least one chain"
        );
        assert!(
            chain_lengths.iter().all(|&l| l > 0),
            "scan chains must be non-empty"
        );
        let chains: Vec<BitVec> = chain_lengths.iter().map(|&l| BitVec::zeros(l)).collect();
        Self {
            name: name.to_owned(),
            next: chains.clone(),
            chains,
            cross: BitVec::new(),
            key: name_key(name),
            stuck_at: None,
        }
    }

    /// Injects a stuck-at fault on flip-flop `position` of `chain`.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn inject_stuck_at(&mut self, chain: usize, position: usize, value: bool) {
        assert!(chain < self.chains.len(), "chain index out of range");
        assert!(position < self.chains[chain].len(), "position out of range");
        self.stuck_at = Some((chain, position, value));
        self.apply_fault();
    }

    /// Current content of one chain (for white-box tests).
    pub fn chain(&self, idx: usize) -> &BitVec {
        &self.chains[idx]
    }

    /// Lengths of all chains.
    pub fn chain_lengths(&self) -> Vec<usize> {
        self.chains.iter().map(BitVec::len).collect()
    }

    /// The deterministic combinational response, written into `next`:
    /// every bit becomes the XOR of itself, its successor in the same chain
    /// (cyclically), the parallel bit of the next chain (repeated cyclically
    /// when that chain is shorter), and a key bit. Pure function of the
    /// state.
    fn capture_transform(&mut self) {
        let n_chains = self.chains.len();
        for (c, (chain, next)) in self.chains.iter().zip(&mut self.next).enumerate() {
            let len = chain.len();
            let own = chain.words();
            cyclic_prefix_into(&self.chains[(c + 1) % n_chains], len, &mut self.cross);
            // Bit i takes key bit (i + 7c) mod 64, the same in every word.
            let key = self.key.rotate_right(((7 * c) % 64) as u32);
            next.clear();
            for (k, &word) in own.iter().enumerate() {
                let succ = (word >> 1) | own.get(k + 1).map_or(0, |next| next << 63);
                next.push_word(
                    word ^ succ ^ self.cross.word(k) ^ key,
                    (len - 64 * k).min(64),
                );
            }
            // The last flop's successor wraps around to flop 0.
            if chain.get(0) == Some(true) {
                next.toggle(len - 1);
            }
        }
    }

    fn apply_fault(&mut self) {
        if let Some((chain, position, value)) = self.stuck_at {
            self.chains[chain].set(position, value);
        }
    }

    /// `cycles` (at most 64) shifts of chain `index`; see [`shift_chain`].
    fn shift(&mut self, index: usize, input: u64, cycles: usize) -> u64 {
        let stuck = self
            .stuck_at
            .filter(|&(chain, _, _)| chain == index)
            .map(|(_, position, value)| (position, value));
        shift_chain(&mut self.chains[index], stuck, input, cycles)
    }
}

/// `cycles` (at most 64) serial shifts of one chain, with an optional
/// stuck-at `(position, value)` re-asserted after every shift.
///
/// The healthy shift is [`BitVec::scan_shift_word`]. A stuck flop forces
/// every bit that passes through it: after the batch, flops `position` to
/// `position + cycles - 1` hold bits that passed it during the batch (the
/// bit at `position + cycles` held the stuck value before the batch
/// started), and every output cycle from `len - 1 - position` on reads a
/// bit that passed it.
fn shift_chain(chain: &mut BitVec, stuck: Option<(usize, bool)>, input: u64, cycles: usize) -> u64 {
    let mut out = chain.scan_shift_word(input, cycles);
    if let Some((position, value)) = stuck {
        let len = chain.len();
        let first = len - 1 - position;
        if first < cycles {
            let forced = low_mask(cycles) & !low_mask(first);
            out = if value { out | forced } else { out & !forced };
        }
        chain.fill_range(position..(position + cycles).min(len), value);
    }
    out
}

/// Overwrites `out` with `len` bits of `src` repeated cyclically: bit `i`
/// is `src[i % src.len()]`.
fn cyclic_prefix_into(src: &BitVec, len: usize, out: &mut BitVec) {
    out.clear();
    while out.len() < len {
        let mut take = src.len().min(len - out.len());
        for &word in src.words() {
            if take == 0 {
                break;
            }
            let count = take.min(64);
            out.push_word(word, count);
            take -= count;
        }
    }
}

impl TestableCore for ScanCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn test_ports(&self) -> usize {
        self.chains.len()
    }

    fn test_clock_into(&mut self, inputs: &BitVec, outputs: &mut BitVec) {
        assert_eq!(inputs.len(), self.chains.len(), "scan-in width mismatch");
        outputs.clear();
        for (c, bit) in inputs.iter().enumerate() {
            outputs.push(self.shift(c, u64::from(bit), 1) == 1);
        }
    }

    fn capture_clock(&mut self) {
        self.capture_transform();
        std::mem::swap(&mut self.chains, &mut self.next);
        self.apply_fault();
    }

    fn scan_depth(&self) -> usize {
        self.chains.iter().map(BitVec::len).max().unwrap_or(0)
    }

    fn reset(&mut self) {
        for chain in &mut self.chains {
            let len = chain.len();
            chain.fill_range(0..len, false);
        }
        self.apply_fault();
    }

    /// Word-level shifting: `cycles` shifts of each chain in one
    /// [`BitVec::scan_shift_word`] call, a stuck-at fault's effect on the
    /// batch applied afterwards.
    fn test_clock_words(&mut self, inputs: &[u64], cycles: usize) -> Vec<u64> {
        assert_eq!(inputs.len(), self.chains.len(), "scan-in width mismatch");
        assert!(
            cycles <= 64,
            "test_clock_words supports at most 64 cycles, got {cycles}"
        );
        inputs
            .iter()
            .enumerate()
            .map(|(c, &plane)| self.shift(c, plane, cycles))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-bit model the word-level paths replaced, kept as their
    /// oracle: every shift rebuilds each chain bit by bit and every capture
    /// evaluates the transform one bit at a time.
    struct BitSerialScan {
        chains: Vec<BitVec>,
        key: u64,
        stuck_at: Option<(usize, usize, bool)>,
    }

    impl BitSerialScan {
        fn new(name: &str, lengths: &[usize]) -> Self {
            Self {
                chains: lengths.iter().map(|&l| BitVec::zeros(l)).collect(),
                key: name_key(name),
                stuck_at: None,
            }
        }

        fn inject_stuck_at(&mut self, chain: usize, position: usize, value: bool) {
            self.stuck_at = Some((chain, position, value));
            self.apply_fault();
        }

        fn apply_fault(&mut self) {
            if let Some((chain, position, value)) = self.stuck_at {
                self.chains[chain].set(position, value);
            }
        }

        fn test_clock(&mut self, inputs: &BitVec) -> BitVec {
            let mut outs = BitVec::with_capacity(self.chains.len());
            for (chain, bit_in) in self.chains.iter_mut().zip(inputs.iter()) {
                let len = chain.len();
                outs.push(chain.get(len - 1).expect("non-empty chain"));
                let mut next = BitVec::with_capacity(len);
                next.push(bit_in);
                for i in 0..len - 1 {
                    next.push(chain.get(i).expect("in range"));
                }
                *chain = next;
            }
            self.apply_fault();
            outs
        }

        fn test_clock_words(&mut self, inputs: &[u64], cycles: usize) -> Vec<u64> {
            let mut outs = vec![0u64; inputs.len()];
            for t in 0..cycles {
                let wpi: BitVec = inputs.iter().map(|p| (p >> t) & 1 == 1).collect();
                let wpo = self.test_clock(&wpi);
                for (j, out) in outs.iter_mut().enumerate() {
                    if wpo.get(j) == Some(true) {
                        *out |= 1 << t;
                    }
                }
            }
            outs
        }

        fn capture_clock(&mut self) {
            let n_chains = self.chains.len();
            let mut next = Vec::with_capacity(n_chains);
            for (c, chain) in self.chains.iter().enumerate() {
                let len = chain.len();
                let neighbour = &self.chains[(c + 1) % n_chains];
                let mut out = BitVec::with_capacity(len);
                for i in 0..len {
                    let own = chain.get(i).expect("in range");
                    let succ = chain.get((i + 1) % len).expect("in range");
                    let cross = neighbour.get(i % neighbour.len()).expect("in range");
                    let key_bit = self.key >> ((i + 7 * c) % 64) & 1 == 1;
                    out.push(own ^ succ ^ cross ^ key_bit);
                }
                next.push(out);
            }
            self.chains = next;
            self.apply_fault();
        }

        fn reset(&mut self) {
            for chain in &mut self.chains {
                *chain = BitVec::zeros(chain.len());
            }
            self.apply_fault();
        }
    }

    /// Chain lengths on both sides of the word boundaries.
    const LENGTHS: [usize; 5] = [1, 63, 64, 65, 130];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Shifts one clock or a batch at a time, captures and resets track
        /// the bit-serial oracle clock for clock — every output and every
        /// chain bit — on chains around the word boundaries, healthy or
        /// with a stuck-at anywhere.
        #[test]
        fn word_level_model_matches_the_bit_serial_oracle(
            first in 0usize..5,
            n_chains in 1usize..4,
            faulty in any::<bool>(),
            fault in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let lengths: Vec<usize> = (0..n_chains)
                .map(|c| LENGTHS[(first + 2 * c) % LENGTHS.len()])
                .collect();
            let mut fast = ScanCore::new("prop", lengths.clone());
            let mut slow = BitSerialScan::new("prop", &lengths);
            if faulty {
                let chain = (fault as usize) % n_chains;
                let position = ((fault >> 8) as usize) % lengths[chain];
                let value = fault >> 63 == 1;
                fast.inject_stuck_at(chain, position, value);
                slow.inject_stuck_at(chain, position, value);
            }
            let mut stamp = seed;
            let mut next = move || {
                stamp = stamp
                    .wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(0x1405_7b7e_f767_814f);
                stamp ^ (stamp >> 29)
            };
            for step in 0..48 {
                let roll = next();
                match roll % 16 {
                    0 | 1 => {
                        fast.capture_clock();
                        slow.capture_clock();
                    }
                    2 => {
                        fast.reset();
                        slow.reset();
                    }
                    3..=7 => {
                        let wpi: BitVec =
                            (0..n_chains).map(|j| (roll >> (8 + j)) & 1 == 1).collect();
                        prop_assert_eq!(
                            fast.test_clock(&wpi),
                            slow.test_clock(&wpi),
                            "step {}",
                            step
                        );
                    }
                    _ => {
                        let cycles = (roll >> 8) as usize % 64 + 1;
                        let planes: Vec<u64> = (0..n_chains).map(|_| next()).collect();
                        prop_assert_eq!(
                            fast.test_clock_words(&planes, cycles),
                            slow.test_clock_words(&planes, cycles),
                            "step {} cycles {}",
                            step,
                            cycles
                        );
                    }
                }
                for (c, chain) in slow.chains.iter().enumerate() {
                    prop_assert_eq!(fast.chain(c), chain, "step {} chain {}", step, c);
                }
            }
        }
    }

    #[test]
    fn shift_roundtrip_without_capture() {
        let mut core = ScanCore::new("u", vec![4]);
        let stimulus: BitVec = "1011".parse().unwrap();
        for bit in stimulus.iter() {
            let mut v = BitVec::new();
            v.push(bit);
            core.test_clock(&v);
        }
        // Shifting 4 more clocks returns the stimulus in order.
        let mut out = BitVec::new();
        for _ in 0..4 {
            out.push(core.test_clock(&BitVec::zeros(1)).get(0).unwrap());
        }
        assert_eq!(out, stimulus);
    }

    #[test]
    fn capture_is_deterministic() {
        let run = || {
            let mut core = ScanCore::new("cpu", vec![6, 5]);
            for _ in 0..6 {
                core.test_clock(&"10".parse().unwrap());
            }
            core.capture_clock();
            (core.chain(0).clone(), core.chain(1).clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_names_different_responses() {
        let respond = |name: &str| {
            let mut core = ScanCore::new(name, vec![8]);
            for _ in 0..8 {
                core.test_clock(&"1".parse().unwrap());
            }
            core.capture_clock();
            core.chain(0).clone()
        };
        assert_ne!(respond("alpha"), respond("beta"));
    }

    #[test]
    fn stuck_at_changes_response() {
        let observe = |faulty: bool| {
            let mut core = ScanCore::new("u", vec![5]);
            if faulty {
                core.inject_stuck_at(0, 2, true);
            }
            for _ in 0..5 {
                core.test_clock(&"0".parse().unwrap());
            }
            core.capture_clock();
            let mut out = BitVec::new();
            for _ in 0..5 {
                out.push(core.test_clock(&BitVec::zeros(1)).get(0).unwrap());
            }
            out
        };
        assert_ne!(observe(false), observe(true));
    }

    #[test]
    fn reset_clears_chains_but_keeps_fault() {
        let mut core = ScanCore::new("u", vec![3]);
        core.inject_stuck_at(0, 1, true);
        core.reset();
        assert_eq!(core.chain(0).to_string(), "010");
    }

    #[test]
    #[should_panic(expected = "scan-in width mismatch")]
    fn wrong_width_panics() {
        let mut core = ScanCore::new("u", vec![3, 3]);
        core.test_clock(&BitVec::zeros(1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_chain_rejected() {
        let _ = ScanCore::new("u", vec![3, 0]);
    }

    #[test]
    fn word_level_shift_matches_bit_serial() {
        // Covers chains shorter and longer than a 64-bit word, healthy and
        // faulty, against the per-bit oracle.
        for fault in [false, true] {
            let mut fast = ScanCore::new("u", vec![5, 70, 64]);
            let mut slow = BitSerialScan::new("u", &[5, 70, 64]);
            if fault {
                fast.inject_stuck_at(1, 33, true);
                slow.inject_stuck_at(1, 33, true);
            }
            let mut stamp = 0x9e37_79b9_7f4a_7c15u64;
            for cycles in [1usize, 7, 64, 40] {
                let planes: Vec<u64> = (0..3)
                    .map(|j| {
                        stamp = stamp
                            .rotate_left(17 + j)
                            .wrapping_mul(0x2545_f491_4f6c_dd1d);
                        stamp
                    })
                    .collect();
                assert_eq!(
                    fast.test_clock_words(&planes, cycles),
                    slow.test_clock_words(&planes, cycles),
                    "fault {fault} cycles {cycles}"
                );
            }
            for (c, chain) in slow.chains.iter().enumerate() {
                assert_eq!(fast.chain(c), chain, "fault {fault} chain {c}");
            }
        }
    }

    #[test]
    fn unequal_chain_shift_depths() {
        let core = ScanCore::new("u", vec![3, 9, 4]);
        assert_eq!(core.scan_depth(), 9);
        assert_eq!(core.chain_lengths(), vec![3, 9, 4]);
    }
}
