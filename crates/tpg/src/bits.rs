//! A compact, growable bit vector.
//!
//! [`BitVec`] is the common currency for serial test data in the whole
//! CAS-BUS workspace: scan vectors, wrapper boundary contents, CAS
//! instruction bitstreams and bus samples are all `BitVec`s.

use std::fmt;
use std::str::FromStr;

/// A growable vector of bits, stored 64 per word.
///
/// Bit `0` is the first bit pushed, which for serial test data corresponds to
/// the first bit shifted into a scan path.
///
/// # Examples
///
/// ```
/// use casbus_tpg::BitVec;
///
/// let mut v = BitVec::new();
/// v.push(true);
/// v.push(false);
/// v.push(true);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v.to_string(), "101");
/// assert_eq!(v.count_ones(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `capacity` bits.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            words: Vec::with_capacity(capacity.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a bit vector of `len` bits, all set to `value`.
    ///
    /// ```
    /// use casbus_tpg::BitVec;
    /// let v = BitVec::repeat(true, 5);
    /// assert_eq!(v.to_string(), "11111");
    /// ```
    pub fn repeat(value: bool, len: usize) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let mut v = Self {
            words: vec![word; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a bit vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self::repeat(false, len)
    }

    /// Creates a bit vector of `len` ones.
    pub fn ones(len: usize) -> Self {
        Self::repeat(true, len)
    }

    /// Builds a bit vector from the low `len` bits of `value`,
    /// least-significant bit first.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    ///
    /// ```
    /// use casbus_tpg::BitVec;
    /// let v = BitVec::from_u64(0b1011, 4);
    /// assert_eq!(v.to_string(), "1101"); // LSB first
    /// ```
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits, got {len}");
        let mut v = Self::zeros(len);
        if len > 0 {
            v.words[0] = if len == 64 {
                value
            } else {
                value & ((1 << len) - 1)
            };
        }
        v
    }

    /// Packs the first (up to 64) bits into a `u64`, bit 0 as the LSB.
    pub fn to_u64(&self) -> u64 {
        match self.words.first() {
            Some(&w) if self.len >= 64 => w,
            Some(&w) => w & ((1u64 << self.len) - 1),
            None => 0,
        }
    }

    /// Number of bits held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no bits are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let off = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1 << off;
        } else {
            self.words[word] &= !(1 << off);
        }
        self.len += 1;
    }

    /// Removes and returns the last bit, or `None` when empty.
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let bit = self.get(self.len - 1).expect("index < len");
        self.len -= 1;
        if self.len.is_multiple_of(64) {
            self.words.pop();
        } else {
            self.mask_tail();
        }
        Some(bit)
    }

    /// Returns the bit at `index`, or `None` if out of range.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some(self.words[index / 64] >> (index % 64) & 1 == 1)
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        if bit {
            self.words[index / 64] |= 1 << (index % 64);
        } else {
            self.words[index / 64] &= !(1 << (index % 64));
        }
    }

    /// Sets every bit in `range` to `bit`, a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the range is reversed or exceeds the vector.
    ///
    /// ```
    /// use casbus_tpg::BitVec;
    /// let mut v = BitVec::zeros(70);
    /// v.fill_range(62..67, true);
    /// assert_eq!(v.count_ones(), 5);
    /// assert_eq!(v.get(66), Some(true));
    /// ```
    pub fn fill_range(&mut self, range: std::ops::Range<usize>, bit: bool) {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "fill range {range:?} out of range {}",
            self.len
        );
        let mut index = range.start;
        while index < range.end {
            let off = index % 64;
            let count = (64 - off).min(range.end - index);
            let mask = low_mask(count) << off;
            let word = &mut self.words[index / 64];
            if bit {
                *word |= mask;
            } else {
                *word &= !mask;
            }
            index += count;
        }
    }

    /// Flips the bit at `index`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn toggle(&mut self, index: usize) -> bool {
        let new = !self.get(index).expect("toggle index in range");
        self.set(index, new);
        new
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Overwrites `self` with the contents of `other`, reusing the existing
    /// word allocation — the scratch-buffer primitive for per-cycle hot
    /// loops where `clone()` would allocate every call.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Removes every bit, keeping the word allocation for the next pushes —
    /// with [`BitVec::resize`], how a per-clock output buffer is refilled
    /// without allocating.
    ///
    /// ```
    /// use casbus_tpg::BitVec;
    /// let mut v: BitVec = "101".parse().unwrap();
    /// v.clear();
    /// assert!(v.is_empty());
    /// v.resize(2, false);
    /// assert_eq!(v.to_string(), "00");
    /// ```
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Resizes to `len` bits in place: truncates, or appends copies of
    /// `bit`. Reuses the existing word allocation whenever it is large
    /// enough, like [`BitVec::copy_from`].
    ///
    /// ```
    /// use casbus_tpg::BitVec;
    /// let mut v: BitVec = "1011".parse().unwrap();
    /// v.resize(2, false);
    /// assert_eq!(v.to_string(), "10");
    /// v.resize(5, true);
    /// assert_eq!(v.to_string(), "10111");
    /// ```
    pub fn resize(&mut self, len: usize, bit: bool) {
        let old = self.len;
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
        if len <= old {
            self.mask_tail();
        } else {
            self.fill_range(old..len, bit);
        }
    }

    /// Appends all bits from `other`.
    pub fn extend_from(&mut self, other: &BitVec) {
        for bit in other.iter() {
            self.push(bit);
        }
    }

    /// Appends the low `count` bits of `word`, least-significant bit first,
    /// in O(1) words instead of `count` single-bit pushes.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    ///
    /// ```
    /// use casbus_tpg::BitVec;
    /// let mut v: BitVec = "101".parse().unwrap();
    /// v.push_word(0b0110, 4);
    /// assert_eq!(v.to_string(), "1010110");
    /// ```
    pub fn push_word(&mut self, word: u64, count: usize) {
        assert!(
            count <= 64,
            "push_word supports at most 64 bits, got {count}"
        );
        if count == 0 {
            return;
        }
        let word = word & low_mask(count);
        let off = self.len % 64;
        if off == 0 {
            self.words.push(word);
        } else {
            *self.words.last_mut().expect("non-empty at off != 0") |= word << off;
            let spill = 64 - off;
            if count > spill {
                self.words.push(word >> spill);
            }
        }
        self.len += count;
    }

    /// Performs `cycles` serial scan shifts in one call.
    ///
    /// The vector models a scan chain whose serial input is bit index `0`
    /// and whose serial output is bit index `len - 1`. Each cycle `t`
    /// (for `t` in `0..cycles`) the bit at the output end leaves into bit
    /// `t` of the returned word while bit `t` of `input` enters at index
    /// `0`, shifting every stored bit one index up — exactly the
    /// per-cycle rebuild loop the behavioral core models use, but word
    /// at a time.
    ///
    /// # Panics
    ///
    /// Panics if `cycles > 64`.
    ///
    /// ```
    /// use casbus_tpg::BitVec;
    /// let mut chain: BitVec = "011".parse().unwrap();
    /// let out = chain.scan_shift_word(0b10, 2);
    /// assert_eq!(out, 0b11); // bits at indices 2, then 1
    /// assert_eq!(chain.to_string(), "100"); // [in_1, in_0, old_0]
    /// ```
    pub fn scan_shift_word(&mut self, input: u64, cycles: usize) -> u64 {
        assert!(
            cycles <= 64,
            "scan_shift_word supports at most 64 cycles, got {cycles}"
        );
        let len = self.len;
        if cycles == 0 {
            return 0;
        }
        if len == 0 {
            // A zero-length chain passes the input straight through.
            return input & low_mask(cycles);
        }
        // Cycle t reads the bit at index len-1-t while t < len: the top
        // `take` bits, reversed. Later cycles read the input bits that
        // entered len cycles earlier.
        let take = cycles.min(len);
        let mut out = self.bits_at(len - take, take).reverse_bits() >> (64 - take);
        if cycles > len {
            out |= (input << len) & low_mask(cycles);
        }
        // After `cycles` shifts, bit i holds input bit (cycles - 1 - i) for
        // i < min(cycles, len), and old bit (i - cycles) above that.
        let rev_in = input.reverse_bits() >> (64 - cycles);
        if cycles >= len {
            // len <= cycles <= 64, so a single word holds the whole chain.
            self.words[0] = rev_in;
            self.mask_tail();
        } else if cycles == 64 {
            // Whole-word shift: len > 64 here.
            for i in (1..self.words.len()).rev() {
                self.words[i] = self.words[i - 1];
            }
            self.words[0] = rev_in;
            self.mask_tail();
        } else {
            for i in (1..self.words.len()).rev() {
                self.words[i] = (self.words[i] << cycles) | (self.words[i - 1] >> (64 - cycles));
            }
            self.words[0] = (self.words[0] << cycles) | rev_in;
            self.mask_tail();
        }
        out
    }

    /// Returns a sub-range `[start, start+len)` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector.
    pub fn slice(&self, start: usize, len: usize) -> BitVec {
        assert!(
            start + len <= self.len,
            "slice [{start}, {}) out of range {}",
            start + len,
            self.len
        );
        let mut out = BitVec::with_capacity(len);
        for i in start..start + len {
            out.push(self.get(i).expect("in range"));
        }
        out
    }

    /// Returns a copy with bit order reversed.
    pub fn reversed(&self) -> BitVec {
        let mut out = BitVec::with_capacity(self.len);
        for i in (0..self.len).rev() {
            out.push(self.get(i).expect("in range"));
        }
        out
    }

    /// The backing 64-bit words, bit 0 in the LSB of word 0. Tail bits
    /// beyond [`BitVec::len`] are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing word at `index`, or 0 past the end — so callers doing
    /// word-at-a-time packing need not special-case short vectors.
    pub fn word(&self, index: usize) -> u64 {
        self.words.get(index).copied().unwrap_or(0)
    }

    /// Iterates over the bits, first-pushed first.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bits: self,
            index: 0,
        }
    }

    /// Bitwise XOR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "xor requires equal lengths");
        let mut out = self.clone();
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w ^= o;
        }
        out
    }

    /// Hamming distance to another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        self.xor(other).count_ones()
    }

    fn mask_tail(&mut self) {
        let off = self.len % 64;
        if off != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= low_mask(off);
            }
        }
    }

    /// The `count <= 64` bits from `start` on, bit `start` in the LSB.
    fn bits_at(&self, start: usize, count: usize) -> u64 {
        let (word, off) = (start / 64, start % 64);
        let mut bits = self.words[word] >> off;
        if off != 0 && off + count > 64 {
            bits |= self.words[word + 1] << (64 - off);
        }
        bits & low_mask(count)
    }
}

/// A word with its low `count` bits set (`count >= 64`: every bit).
///
/// ```
/// use casbus_tpg::bits::low_mask;
/// assert_eq!(low_mask(3), 0b111);
/// assert_eq!(low_mask(64), u64::MAX);
/// ```
#[must_use]
pub fn low_mask(count: usize) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Iterator over the bits of a [`BitVec`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bits: &'a BitVec,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.bits.get(self.index)?;
        self.index += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.bits.len - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = BitVec::new();
        for bit in iter {
            v.push(bit);
        }
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

impl From<&[bool]> for BitVec {
    fn from(bits: &[bool]) -> Self {
        bits.iter().copied().collect()
    }
}

impl fmt::Display for BitVec {
    /// Writes bit 0 first, as `'0'`/`'1'` characters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.iter() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(\"{self}\")")
    }
}

/// Error returned when parsing a [`BitVec`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitVecError {
    /// Offending character.
    pub character: char,
    /// Byte offset of the offending character.
    pub position: usize,
}

impl fmt::Display for ParseBitVecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid bit character {:?} at position {}",
            self.character, self.position
        )
    }
}

impl std::error::Error for ParseBitVecError {}

impl FromStr for BitVec {
    type Err = ParseBitVecError;

    /// Parses a string of `'0'`/`'1'` characters; `'_'` separators are
    /// ignored.
    ///
    /// ```
    /// use casbus_tpg::BitVec;
    /// let v: BitVec = "1010_11".parse().unwrap();
    /// assert_eq!(v.len(), 6);
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut v = BitVec::with_capacity(s.len());
        for (position, character) in s.char_indices() {
            match character {
                '0' => v.push(false),
                '1' => v.push(true),
                '_' => {}
                _ => {
                    return Err(ParseBitVecError {
                        character,
                        position,
                    })
                }
            }
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let v = BitVec::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.to_string(), "");
    }

    #[test]
    fn push_get_roundtrip() {
        let mut v = BitVec::new();
        let pattern = [true, false, true, true, false];
        for &b in &pattern {
            v.push(b);
        }
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i), Some(b));
        }
        assert_eq!(v.get(5), None);
    }

    #[test]
    fn push_across_word_boundary() {
        let mut v = BitVec::new();
        for i in 0..130 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 130);
        for i in 0..130 {
            assert_eq!(v.get(i), Some(i % 3 == 0), "bit {i}");
        }
    }

    #[test]
    fn pop_returns_in_reverse() {
        let mut v: BitVec = "101".parse().unwrap();
        assert_eq!(v.pop(), Some(true));
        assert_eq!(v.pop(), Some(false));
        assert_eq!(v.pop(), Some(true));
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn pop_clears_tail_bits() {
        let mut v = BitVec::ones(3);
        v.pop();
        v.push(false);
        assert_eq!(v.to_string(), "110");
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn repeat_and_count() {
        assert_eq!(BitVec::ones(70).count_ones(), 70);
        assert_eq!(BitVec::zeros(70).count_ones(), 0);
        assert_eq!(BitVec::ones(64).count_ones(), 64);
    }

    #[test]
    fn set_and_toggle() {
        let mut v = BitVec::zeros(10);
        v.set(3, true);
        assert_eq!(v.get(3), Some(true));
        assert!(!v.toggle(3));
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut v = BitVec::zeros(2);
        v.set(2, true);
    }

    #[test]
    fn from_u64_lsb_first() {
        let v = BitVec::from_u64(0b0110, 4);
        assert_eq!(v.to_string(), "0110".chars().rev().collect::<String>());
        assert_eq!(v.to_u64(), 0b0110);
    }

    #[test]
    fn from_u64_full_width() {
        let v = BitVec::from_u64(u64::MAX, 64);
        assert_eq!(v.count_ones(), 64);
        assert_eq!(v.to_u64(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn from_u64_too_wide_panics() {
        let _ = BitVec::from_u64(0, 65);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let s = "1011001110001";
        let v: BitVec = s.parse().unwrap();
        assert_eq!(v.to_string(), s);
    }

    #[test]
    fn parse_ignores_separators() {
        let v: BitVec = "10_10".parse().unwrap();
        assert_eq!(v.to_string(), "1010");
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = "10x1".parse::<BitVec>().unwrap_err();
        assert_eq!(err.character, 'x');
        assert_eq!(err.position, 2);
    }

    #[test]
    fn slice_extracts_range() {
        let v: BitVec = "11001010".parse().unwrap();
        assert_eq!(v.slice(2, 4).to_string(), "0010");
        assert_eq!(v.slice(0, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let v = BitVec::zeros(4);
        let _ = v.slice(2, 3);
    }

    #[test]
    fn reversed_reverses() {
        let v: BitVec = "1100".parse().unwrap();
        assert_eq!(v.reversed().to_string(), "0011");
    }

    #[test]
    fn xor_and_hamming() {
        let a: BitVec = "1100".parse().unwrap();
        let b: BitVec = "1010".parse().unwrap();
        assert_eq!(a.xor(&b).to_string(), "0110");
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let mut dst = BitVec::ones(130);
        let src: BitVec = "1011".parse().unwrap();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.push(true);
        assert_eq!(dst.to_string(), "10111");
    }

    #[test]
    fn extend_from_appends() {
        let mut a: BitVec = "10".parse().unwrap();
        let b: BitVec = "01".parse().unwrap();
        a.extend_from(&b);
        assert_eq!(a.to_string(), "1001");
    }

    #[test]
    fn collect_from_iterator() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_string(), "101");
        let back: Vec<bool> = v.iter().collect();
        assert_eq!(back, vec![true, false, true]);
    }

    #[test]
    fn iter_is_exact_size() {
        let v = BitVec::ones(17);
        let mut it = v.iter();
        assert_eq!(it.len(), 17);
        it.next();
        assert_eq!(it.len(), 16);
    }

    #[test]
    fn word_access_is_lsb_first_and_zero_padded() {
        let mut v = BitVec::from_u64(0b1011, 4);
        assert_eq!(v.words(), &[0b1011]);
        assert_eq!(v.word(0), 0b1011);
        assert_eq!(v.word(1), 0, "past-the-end words read as zero");
        for i in 0..70 {
            v.push(i == 65);
        }
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.word(1) >> (69 - 64) & 1, 1);
        // Tail bits beyond len stay clear even after pops.
        v.pop();
        assert_eq!(v.word(1) >> (73 - 64) & 1, 0);
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", BitVec::new()), "BitVec(\"\")");
    }

    #[test]
    fn push_word_matches_bit_pushes() {
        // Exercise every alignment of the write head against the word
        // boundary, including full-word and zero-length appends.
        for prefix in [0usize, 1, 31, 63, 64, 65] {
            for count in [0usize, 1, 7, 33, 63, 64] {
                let word = 0xDEAD_BEEF_CAFE_F00D_u64.rotate_left((prefix + count) as u32);
                let mut fast = BitVec::new();
                let mut slow = BitVec::new();
                for i in 0..prefix {
                    fast.push(i % 5 == 0);
                    slow.push(i % 5 == 0);
                }
                fast.push_word(word, count);
                for t in 0..count {
                    slow.push((word >> t) & 1 == 1);
                }
                assert_eq!(fast, slow, "prefix {prefix} count {count}");
                assert_eq!(fast.words().len(), (prefix + count).div_ceil(64));
            }
        }
    }

    #[test]
    fn fill_range_matches_bit_sets() {
        for (start, end) in [
            (0usize, 0usize),
            (0, 130),
            (3, 64),
            (63, 65),
            (64, 128),
            (70, 71),
        ] {
            for bit in [false, true] {
                let mut fast: BitVec = (0..130).map(|i| i % 3 == 0).collect();
                let mut slow = fast.clone();
                fast.fill_range(start..end, bit);
                for i in start..end {
                    slow.set(i, bit);
                }
                assert_eq!(fast, slow, "{start}..{end} to {bit}");
            }
        }
    }

    /// Bit-serial reference for [`BitVec::scan_shift_word`]: the rebuild
    /// loop the behavioral scan models use, one cycle at a time.
    fn scan_shift_serial(chain: &mut BitVec, input: u64, cycles: usize) -> u64 {
        let mut out = 0u64;
        for t in 0..cycles {
            let len = chain.len();
            if len == 0 {
                if (input >> t) & 1 == 1 {
                    out |= 1 << t;
                }
                continue;
            }
            if chain.get(len - 1).expect("in range") {
                out |= 1 << t;
            }
            let mut next = BitVec::with_capacity(len);
            next.push((input >> t) & 1 == 1);
            for i in 0..len - 1 {
                next.push(chain.get(i).expect("in range"));
            }
            *chain = next;
        }
        out
    }

    #[test]
    fn scan_shift_word_matches_serial_reference() {
        for len in [0usize, 1, 3, 17, 63, 64, 65, 100, 130] {
            for cycles in [0usize, 1, 5, len.min(64), 63, 64] {
                let mut chain = BitVec::new();
                for i in 0..len {
                    chain.push((i * 7 + len) % 3 == 0);
                }
                let mut reference = chain.clone();
                let input = 0x0005_EED0_FACE_u64.wrapping_mul((len + cycles + 1) as u64);
                let fast = chain.scan_shift_word(input, cycles);
                let slow = scan_shift_serial(&mut reference, input, cycles);
                assert_eq!(fast, slow, "output word, len {len} cycles {cycles}");
                assert_eq!(chain, reference, "chain state, len {len} cycles {cycles}");
            }
        }
    }
}
