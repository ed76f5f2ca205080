//! Bit-packed two-plane storage for cubes.
//!
//! Every hot kernel of the DP-fill pipeline — Hamming/toggle profiling,
//! the §V-C stretch scan and the fills — walks bits. Packing 64
//! three-valued bits into two `u64` *planes* turns those walks into word
//! ops:
//!
//! * **care plane** — bit `i` set ⇔ position `i` carries a care bit;
//! * **value plane** — bit `i` holds the care value (`0` where `X`).
//!
//! The paper's metric `hd(T_j, T_{j+1})` then becomes
//! `popcount((a.val ^ b.val) & a.care & b.care)` per word, and stretch
//! scanning becomes `trailing_zeros` hops over each cube's care words,
//! 64 pins at a time. Two types cover the pipeline:
//!
//! * [`PackedBits`] — one packed cube over pins, with word kernels and
//!   mask-splice fills;
//! * [`PackedCubeSet`] — the pattern sequence `T1..Tn`, one [`PackedBits`]
//!   per cube, with popcount toggle kernels.
//!
//! Invariants maintained by every operation (so derived equality is
//! structural equality): `val & !care == 0`, and bits past `len` are zero
//! in both planes.

use crate::popcount::{self, PopcountKernel};
use crate::{Bit, CubeError, CubeSet, TestCube};

/// Number of positions per plane word.
const WORD: usize = 64;

#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(WORD)
}

/// Mask of the live bits in the last word of a `len`-bit plane.
#[inline]
fn tail_mask(len: usize) -> u64 {
    match len % WORD {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

/// A packed vector of three-valued bits: a care plane and a value plane.
///
/// # Example
///
/// ```
/// use dpfill_cubes::packed::PackedBits;
/// use dpfill_cubes::Bit;
///
/// let row: PackedBits = "0XX1".parse::<dpfill_cubes::TestCube>().unwrap().bits().into();
/// assert_eq!(row.len(), 4);
/// assert_eq!(row.x_count(), 2);
/// assert_eq!(row.get(3), Bit::One);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct PackedBits {
    len: usize,
    care: Vec<u64>,
    val: Vec<u64>,
}

impl PackedBits {
    /// An all-`X` vector of `len` bits.
    pub fn all_x(len: usize) -> PackedBits {
        PackedBits {
            len,
            care: vec![0; words_for(len)],
            val: vec![0; words_for(len)],
        }
    }

    /// An empty vector with plane capacity for `bits` positions, so the
    /// streaming row kernel ([`PackedBits::from_pattern_ascii`]) never
    /// reallocates while packing a row of known width.
    pub fn with_capacity(bits: usize) -> PackedBits {
        PackedBits {
            len: 0,
            care: Vec::with_capacity(words_for(bits)),
            val: Vec::with_capacity(words_for(bits)),
        }
    }

    /// Packs a `01Xx-` ASCII pattern row straight into plane words — the
    /// streaming-parser kernel. Each step classifies 8 bytes at once
    /// with exact SWAR byte-equality masks and gathers the mask high bits
    /// into 8 plane bits with one multiply, so a 64-pin word costs 8
    /// branch-free steps. Validity is one flag accumulated over the row
    /// and checked once at the end. Returns the first byte outside the
    /// alphabet as `Err` (multi-byte UTF-8 sequences fail on their lead
    /// byte).
    pub fn from_pattern_ascii(text: &[u8]) -> Result<PackedBits, u8> {
        let mut row = PackedBits::with_capacity(text.len());
        let mut invalid = 0u64;
        let (blocks, tail) = text.as_chunks::<WORD>();
        for block in blocks {
            let (care, val, bad) = ascii_to_word(block);
            row.care.push(care);
            row.val.push(val);
            invalid |= bad;
        }
        if !tail.is_empty() {
            // `X` padding packs to zero in both planes, so the bits past
            // `len` stay clear.
            let mut block = [b'X'; WORD];
            block[..tail.len()].copy_from_slice(tail);
            let (care, val, bad) = ascii_to_word(&block);
            row.care.push(care);
            row.val.push(val);
            invalid |= bad;
        }
        if invalid != 0 {
            return Err(first_invalid_byte(text));
        }
        row.len = text.len();
        Ok(row)
    }

    /// Appends the row as `01X` ASCII to `out` — the emit kernel, the
    /// inverse of [`PackedBits::from_pattern_ascii`]. Each care byte and
    /// value byte spreads into 8 output bytes through one 256-entry
    /// table, so a 64-pin word renders in 8 table steps.
    pub fn write_ascii(&self, out: &mut Vec<u8>) {
        let mut rest = self.len;
        for (&care, &val) in self.care.iter().zip(&self.val) {
            let n = rest.min(WORD);
            out.extend_from_slice(&word_to_ascii(care, val)[..n]);
            rest -= n;
        }
    }

    /// Packs a scalar bit slice.
    pub fn from_bits(bits: &[Bit]) -> PackedBits {
        let mut p = PackedBits::all_x(bits.len());
        for (chunk, (cw, vw)) in bits
            .chunks(WORD)
            .zip(p.care.iter_mut().zip(p.val.iter_mut()))
        {
            let (c, v) = pack_word(chunk);
            *cw = c;
            *vw = v;
        }
        p
    }

    /// Unpacks to a scalar bit vector (branchless table decode).
    pub fn to_bits(&self) -> Vec<Bit> {
        // Indexed by (!care << 1 | val): care-1 -> One, care-0 -> Zero,
        // no-care -> X (val is 0 there by canonicality).
        const DECODE: [Bit; 4] = [Bit::Zero, Bit::One, Bit::X, Bit::X];
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let (w, b) = (i / WORD, i % WORD);
            let key = (!self.care[w] >> b & 1) << 1 | (self.val[w] >> b & 1);
            out.push(DECODE[key as usize]);
        }
        out
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The care plane (bit set ⇔ care position).
    #[inline]
    pub fn care_words(&self) -> &[u64] {
        &self.care
    }

    /// The value plane (`0` wherever the care bit is clear).
    #[inline]
    pub fn value_words(&self) -> &[u64] {
        &self.val
    }

    /// Bit at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Bit {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        let (w, b) = (i / WORD, i % WORD);
        if self.care[w] >> b & 1 == 0 {
            Bit::X
        } else if self.val[w] >> b & 1 == 1 {
            Bit::One
        } else {
            Bit::Zero
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: Bit) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        let (w, b) = (i / WORD, i % WORD);
        let mask = 1u64 << b;
        match value {
            Bit::X => {
                self.care[w] &= !mask;
                self.val[w] &= !mask;
            }
            Bit::Zero => {
                self.care[w] |= mask;
                self.val[w] &= !mask;
            }
            Bit::One => {
                self.care[w] |= mask;
                self.val[w] |= mask;
            }
        }
    }

    /// Number of care bits (one `popcount` per word).
    pub fn care_count(&self) -> usize {
        self.care.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of `X` bits.
    pub fn x_count(&self) -> usize {
        self.len - self.care_count()
    }

    /// Column of the first care bit, if any (`trailing_zeros` hop).
    pub fn first_care(&self) -> Option<usize> {
        self.care
            .iter()
            .enumerate()
            .find_map(|(w, &cw)| (cw != 0).then(|| w * WORD + cw.trailing_zeros() as usize))
    }

    /// Iterates over `(position, value)` of every care bit, skipping `X`
    /// runs in word-sized hops.
    pub fn care_positions(&self) -> CarePositions<'_> {
        CarePositions {
            bits: self,
            word: 0,
            mask: self.care.first().copied().unwrap_or(0),
        }
    }

    /// The paper's `hd`: positions where both vectors carry opposite care
    /// bits — `popcount((a.val ^ b.val) & a.care & b.care)`, reduced by
    /// the active [`popcount`] kernel tier (scalar / AVX2).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ. Use [`PackedBits::try_hamming`]
    /// where the widths come from untrusted input.
    pub fn hamming(&self, other: &PackedBits) -> usize {
        self.try_hamming(other)
            .unwrap_or_else(|e| panic!("hamming distance requires equal widths: {e}"))
    }

    /// [`PackedBits::hamming`] with the width check routed through
    /// [`CubeError`] instead of a panic — the entry point for callers
    /// fed by pattern files, where a malformed row must surface as a
    /// typed error rather than abort the process.
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the widths differ.
    pub fn try_hamming(&self, other: &PackedBits) -> Result<usize, CubeError> {
        self.check_width(other)?;
        Ok(self.hamming_with(popcount::active_kernel(), other))
    }

    /// The Hamming reduction on an explicit kernel tier, widths already
    /// validated — the per-pair step of the whole-set sweeps, which
    /// resolve the kernel once and hoist the dispatch out of the loop.
    #[inline]
    pub fn hamming_with(&self, kernel: PopcountKernel, other: &PackedBits) -> usize {
        debug_assert_eq!(
            self.len, other.len,
            "hamming distance requires equal widths"
        );
        kernel.masked_xor_popcount(&self.val, &other.val, &self.care, &other.care)
    }

    /// Weighted Hamming distance: `Σ weights[i]` over positions `i`
    /// where both vectors carry opposite care bits — the per-pair step
    /// of the weighted sweeps behind the pluggable fill objectives.
    /// Weights are fixed-point integers so the reduction is exact and
    /// order-independent; the conflict mask is the same
    /// `(a.val ^ b.val) & a.care & b.care` word the unit kernel
    /// popcounts, walked by `trailing_zeros` hops (conflict masks are
    /// sparse on ATPG-shaped inputs, so per-set-bit hops beat a full
    /// per-bit multiply-accumulate).
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the vector widths or
    /// the weight-table length differ from this vector's width, and
    /// [`CubeError::Overflow`] when the weighted sum exceeds `u64`.
    pub fn weighted_hamming(&self, other: &PackedBits, weights: &[u64]) -> Result<u64, CubeError> {
        self.check_width(other)?;
        if weights.len() != self.len {
            return Err(CubeError::WidthMismatch {
                expected: self.len,
                found: weights.len(),
            });
        }
        let mut total = 0u64;
        for (w, ((&va, &vb), (&ca, &cb))) in self
            .val
            .iter()
            .zip(&other.val)
            .zip(self.care.iter().zip(&other.care))
            .enumerate()
        {
            let mut m = (va ^ vb) & ca & cb;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                total = total
                    .checked_add(weights[w * WORD + b])
                    .ok_or(CubeError::Overflow {
                        what: "weighted toggle load",
                    })?;
                m &= m - 1;
            }
        }
        Ok(total)
    }

    /// Typed width guard shared by the fallible plane kernels.
    #[inline]
    fn check_width(&self, other: &PackedBits) -> Result<(), CubeError> {
        if self.len == other.len {
            Ok(())
        } else {
            Err(CubeError::WidthMismatch {
                expected: self.len,
                found: other.len,
            })
        }
    }

    /// `true` when no position carries opposite care bits.
    pub fn is_compatible(&self, other: &PackedBits) -> bool {
        self.len == other.len
            && self
                .val
                .iter()
                .zip(&other.val)
                .zip(self.care.iter().zip(&other.care))
                .all(|((&va, &vb), (&ca, &cb))| (va ^ vb) & ca & cb == 0)
    }

    /// Merges two compatible vectors into their intersection — the packed
    /// primitive of static test compaction. With no conflicting care bits,
    /// the merge is one OR per plane word (`val ⊆ care` is preserved
    /// because shared care positions agree). Returns `None` when the
    /// vectors are incompatible or differ in width; use
    /// [`PackedBits::try_merge`] to tell those cases apart.
    pub fn merge(&self, other: &PackedBits) -> Option<PackedBits> {
        self.try_merge(other).ok().flatten()
    }

    /// [`PackedBits::merge`] with the width check routed through
    /// [`CubeError`]: `Err` for mismatched widths (malformed input),
    /// `Ok(None)` for genuinely conflicting care bits (a normal
    /// compaction outcome), `Ok(Some(_))` for the merged cube.
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the widths differ.
    pub fn try_merge(&self, other: &PackedBits) -> Result<Option<PackedBits>, CubeError> {
        self.check_width(other)?;
        if !self.is_compatible(other) {
            return Ok(None);
        }
        Ok(Some(PackedBits {
            len: self.len,
            care: self
                .care
                .iter()
                .zip(&other.care)
                .map(|(&a, &b)| a | b)
                .collect(),
            val: self
                .val
                .iter()
                .zip(&other.val)
                .map(|(&a, &b)| a | b)
                .collect(),
        }))
    }

    /// `true` when every care bit of `other` is matched by `self` — the
    /// word-level containment check behind filling validation: per word,
    /// `other`'s care positions must be care in `self`
    /// (`cb & !ca == 0`) and carry the same value (`cb & (va^vb) == 0`).
    ///
    /// A width mismatch reports `false` (two differently sized vectors
    /// contain nothing of each other); [`PackedBits::try_is_contained_in`]
    /// surfaces it as a typed error instead.
    pub fn is_contained_in(&self, other: &PackedBits) -> bool {
        self.try_is_contained_in(other).unwrap_or(false)
    }

    /// [`PackedBits::is_contained_in`] with the width check routed
    /// through [`CubeError`].
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the widths differ.
    pub fn try_is_contained_in(&self, other: &PackedBits) -> Result<bool, CubeError> {
        self.check_width(other)?;
        Ok(self
            .val
            .iter()
            .zip(&other.val)
            .zip(self.care.iter().zip(&other.care))
            .all(|((&va, &vb), (&ca, &cb))| cb & !ca == 0 && cb & (va ^ vb) == 0))
    }

    /// `true` when no position is `X` (the care plane is all ones over
    /// the live bits).
    pub fn is_fully_specified(&self) -> bool {
        let n = self.care.len();
        let tail = tail_mask(self.len);
        self.care
            .iter()
            .enumerate()
            .all(|(w, &cw)| cw == if w + 1 == n { tail } else { u64::MAX })
    }

    /// Fills every remaining `X` with the care value `value` in
    /// whole-word writes; filling with `X` is a no-op.
    pub fn fill_x_with(&mut self, value: Bit) {
        let Some(fill_one) = value.to_bool() else {
            return;
        };
        let tail = tail_mask(self.len);
        let n = self.care.len();
        for (w, (cw, vw)) in self.care.iter_mut().zip(self.val.iter_mut()).enumerate() {
            let live = if w + 1 == n { tail } else { u64::MAX };
            let x = !*cw & live;
            if fill_one {
                *vw |= x;
            }
            *cw |= x;
        }
    }

    /// Fills every `X` with the word `fill` restricted to the X
    /// positions — the whole-word primitive behind the packed R-fill.
    /// `fill_for_word(w)` supplies 64 random bits for word `w`.
    pub fn fill_x_from_words(&mut self, mut fill_for_word: impl FnMut(usize) -> u64) {
        let tail = tail_mask(self.len);
        let n = self.care.len();
        for (w, (cw, vw)) in self.care.iter_mut().zip(self.val.iter_mut()).enumerate() {
            let live = if w + 1 == n { tail } else { u64::MAX };
            let x = !*cw & live;
            *vw |= fill_for_word(w) & x;
            *cw |= x;
        }
    }

    /// Copy-left fill: every `X` takes the nearest care value to its
    /// left, and a leading `X`-run takes `carry_in` (the value left of
    /// column 0). Returns the filled value of the last column — the
    /// carry into a continuation of this row — or `carry_in` when the
    /// row is empty.
    ///
    /// Word-parallel: with `x` the live `X` positions of a word, `g`
    /// marks each `X`-run whose left neighbour holds a 1 (the value
    /// plane is zero at `X`), and `x + g` carries through exactly those
    /// runs, clearing them — so `x & !(x + g)` is the set of `X`s to
    /// fill with 1.
    pub fn fill_copy_left(&mut self, carry_in: bool) -> bool {
        let tail = tail_mask(self.len);
        let n = self.care.len();
        let mut carry = u64::from(carry_in);
        for (w, (cw, vw)) in self.care.iter_mut().zip(self.val.iter_mut()).enumerate() {
            let live = if w + 1 == n { tail } else { u64::MAX };
            let x = !*cw & live;
            let g = ((*vw << 1) | carry) & x;
            *vw |= x & !x.wrapping_add(g);
            *cw |= x;
            carry = *vw >> 63;
        }
        match self.len {
            0 => carry_in,
            len => self.val[n - 1] >> ((len - 1) % WORD) & 1 == 1,
        }
    }
}

/// Iterator over the care positions of a [`PackedBits`].
#[derive(Clone, Debug)]
pub struct CarePositions<'a> {
    bits: &'a PackedBits,
    word: usize,
    mask: u64,
}

impl Iterator for CarePositions<'_> {
    type Item = (usize, Bit);

    fn next(&mut self) -> Option<(usize, Bit)> {
        while self.mask == 0 {
            self.word += 1;
            if self.word >= self.bits.care.len() {
                return None;
            }
            self.mask = self.bits.care[self.word];
        }
        let b = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        let pos = self.word * WORD + b;
        let value = Bit::from_bool(self.bits.val[self.word] >> b & 1 == 1);
        Some((pos, value))
    }
}

impl std::fmt::Display for PackedBits {
    /// Renders the row as a `01X` string straight from the planes
    /// through the emit kernel ([`PackedBits::write_ascii`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut ascii = Vec::with_capacity(self.len);
        self.write_ascii(&mut ascii);
        f.write_str(std::str::from_utf8(&ascii).map_err(|_| std::fmt::Error)?)
    }
}

/// One byte per lane repeated across a `u64`.
const fn splat(byte: u8) -> u64 {
    0x0101_0101_0101_0101 * byte as u64
}

/// The high bit of every byte lane.
const LANE_HIGH: u64 = splat(0x80);

/// High bit of each byte lane of `x` set exactly where that byte equals
/// `byte`. Exact: the low seven bits are summed separately from the high
/// bit, so no borrow or carry crosses a lane.
#[inline]
fn lanes_equal(x: u64, byte: u8) -> u64 {
    const LOW7: u64 = splat(0x7F);
    let t = x ^ splat(byte);
    !(((t & LOW7) + LOW7) | t) & LANE_HIGH
}

/// Moves the high bit of byte lane `k` to bit `k`: the eight shifted
/// copies the multiply makes land on distinct bits, so nothing carries
/// into the top byte.
#[inline]
fn gather_lane_highs(mask: u64) -> u64 {
    (mask >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Classifies 8 pattern bytes (byte `k` is pin `k`): 8 care bits, 8
/// value bits, and a nonzero lane mask if any byte is outside `01Xx-`.
#[inline]
fn classify_octet(x: u64) -> (u64, u64, u64) {
    // `0` and `1` differ only in bit 0, `X` and `x` only in bit 5; a
    // care lane's value is its bit 0, shifted up to the lane's high bit.
    let care = lanes_equal(x & !splat(0x01), b'0');
    let val = care & (x << 7);
    let dont_care = lanes_equal(x | splat(0x20), b'x') | lanes_equal(x, b'-');
    let invalid = !(care | dont_care) & LANE_HIGH;
    (gather_lane_highs(care), gather_lane_highs(val), invalid)
}

/// Packs 64 pattern bytes into one `(care, value)` word pair plus a
/// nonzero flag if any byte is invalid.
#[inline]
fn ascii_to_word(block: &[u8; WORD]) -> (u64, u64, u64) {
    let (octets, _) = block.as_chunks::<8>();
    let (mut care, mut val, mut invalid) = (0u64, 0u64, 0u64);
    for (k, octet) in octets.iter().enumerate() {
        let (c, v, bad) = classify_octet(u64::from_le_bytes(*octet));
        care |= c << (8 * k);
        val |= v << (8 * k);
        invalid |= bad;
    }
    (care, val, invalid)
}

/// The first byte of `text` outside `01Xx-`, located with the same
/// classifier as the kernel. Only called once the kernel has flagged
/// the row, so the `0` fallback is never taken.
#[cold]
fn first_invalid_byte(text: &[u8]) -> u8 {
    text.chunks(8)
        .find_map(|chunk| {
            let mut octet = [b'X'; 8];
            octet[..chunk.len()].copy_from_slice(chunk);
            let (_, _, bad) = classify_octet(u64::from_le_bytes(octet));
            (bad != 0).then(|| octet[bad.trailing_zeros() as usize / 8])
        })
        .unwrap_or(0)
}

/// Byte lane `k` of `SPREAD[b]` is bit `k` of `b`.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            table[b] |= ((b as u64 >> k) & 1) << (8 * k);
            k += 1;
        }
        b += 1;
    }
    table
};

/// Renders one `(care, value)` word pair as 64 `01X` bytes (pin `k` is
/// byte `k`): `X` where the care bit is clear, flipped to `0` by the
/// care bit and on to `1` by the value bit.
#[inline]
fn word_to_ascii(care: u64, val: u64) -> [u8; WORD] {
    let mut out = [0u8; WORD];
    let (octets, _) = out.as_chunks_mut::<8>();
    for (k, octet) in octets.iter_mut().enumerate() {
        let c = SPREAD[(care >> (8 * k)) as u8 as usize];
        let v = SPREAD[(val >> (8 * k)) as u8 as usize];
        *octet = (splat(b'X') ^ (c * u64::from(b'X' ^ b'0')) ^ v).to_le_bytes();
    }
    out
}

impl From<&[Bit]> for PackedBits {
    fn from(bits: &[Bit]) -> PackedBits {
        PackedBits::from_bits(bits)
    }
}

impl From<&TestCube> for PackedBits {
    fn from(cube: &TestCube) -> PackedBits {
        PackedBits::from_bits(cube.bits())
    }
}

/// Packs up to 64 scalar bits into `(care, value)` planes.
///
/// Branchless: the enum discriminants (`Zero = 0`, `One = 1`, `X = 2`)
/// turn into plane bits with two shifts per element, which keeps the
/// pack leg of the one-shot public kernels out of the branch predictor.
#[inline]
pub fn pack_word(bits: &[Bit]) -> (u64, u64) {
    debug_assert!(bits.len() <= WORD);
    let mut care = 0u64;
    let mut val = 0u64;
    for (i, &b) in bits.iter().enumerate() {
        let d = b as u64; // Zero=0, One=1, X=2
        care |= ((d >> 1) ^ 1) << i;
        val |= (d & 1) << i;
    }
    (care, val)
}

/// A packed pattern sequence: one [`PackedBits`] per cube, all of one
/// width. The popcount backing store of [`CubeSet`].
///
/// # Example
///
/// ```
/// use dpfill_cubes::packed::PackedCubeSet;
/// use dpfill_cubes::CubeSet;
///
/// let set = CubeSet::parse_rows(&["0101", "0011", "XX11"]).unwrap();
/// let packed = PackedCubeSet::from_cube_set(&set);
/// assert_eq!(packed.toggle_profile(), vec![2, 0]);
/// assert_eq!(packed.peak_toggles(), 2);
/// assert_eq!(packed.to_cube_set(), set);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PackedCubeSet {
    width: usize,
    cubes: Vec<PackedBits>,
}

impl PackedCubeSet {
    /// An empty set of the given width.
    pub fn new(width: usize) -> PackedCubeSet {
        PackedCubeSet {
            width,
            cubes: Vec::new(),
        }
    }

    /// Clones a cube set's packed backing store. Since PR 2 the
    /// [`CubeSet`] *is* packed-backed, so this is a plane copy, not a
    /// pack; kept for API compatibility with packed-kernel call sites.
    pub fn from_cube_set(set: &CubeSet) -> PackedCubeSet {
        set.as_packed().clone()
    }

    /// Wraps a clone of this set in the [`CubeSet`] facade (plane copy;
    /// use [`CubeSet::from_packed`] to move without copying).
    pub fn to_cube_set(&self) -> CubeSet {
        CubeSet::from_packed(self.clone())
    }

    /// Cube width in pins.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of cubes.
    #[inline]
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// `true` when the set holds no cubes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The packed cubes in order.
    #[inline]
    pub fn cubes(&self) -> &[PackedBits] {
        &self.cubes
    }

    /// Mutable access for word-level fills.
    #[inline]
    pub fn cubes_mut(&mut self) -> &mut [PackedBits] {
        &mut self.cubes
    }

    /// Cube at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn cube(&self, index: usize) -> &PackedBits {
        &self.cubes[index]
    }

    /// Appends a packed cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube width differs from the set width.
    pub fn push(&mut self, cube: PackedBits) {
        assert_eq!(cube.len(), self.width, "cube width mismatch");
        self.cubes.push(cube);
    }

    /// Per-transition toggle counts `hd(T_j, T_{j+1})` — one batched
    /// sweep over the adjacent pairs: the popcount kernel is resolved
    /// once and every pair reduces through it, instead of per-pair
    /// [`PackedBits::hamming`] calls re-dispatching each time.
    pub fn toggle_profile(&self) -> Vec<usize> {
        let kernel = popcount::active_kernel();
        self.cubes
            .windows(2)
            .map(|w| w[0].hamming_with(kernel, &w[1]))
            .collect()
    }

    /// Peak toggles `max_j hd(T_j, T_{j+1})`; `0` for fewer than two
    /// cubes. One batched adjacent-pair sweep.
    pub fn peak_toggles(&self) -> usize {
        let kernel = popcount::active_kernel();
        self.cubes
            .windows(2)
            .map(|w| w[0].hamming_with(kernel, &w[1]))
            .max()
            .unwrap_or(0)
    }

    /// Total toggles across the sequence. One batched adjacent-pair
    /// sweep.
    pub fn total_toggles(&self) -> usize {
        self.total_conflicts()
    }

    /// Total adjacent conflicts `Σ_j hd(T_j, T_{j+1})` — the same
    /// reduction under its pre-fill name: on a partially specified set
    /// the count is the unavoidable-toggle floor of the ordering, which
    /// is what the ordering scorers minimize.
    pub fn total_conflicts(&self) -> usize {
        let kernel = popcount::active_kernel();
        self.cubes
            .windows(2)
            .map(|w| w[0].hamming_with(kernel, &w[1]))
            .sum()
    }

    /// Pairwise-distance sweep from cube `from` to every cube of the
    /// set: element `i` is `hd(T_from, T_i)` (`0` at `from` itself).
    /// One kernel resolve for the whole sweep. This is the one-vs-all
    /// set-level primitive; chunked candidate loops that filter as they
    /// go (the XStat ordering) hold a kernel-hoisted scorer instead and
    /// skip the materialized vector.
    ///
    /// # Panics
    ///
    /// Panics if `from >= self.len()`.
    pub fn distances_from(&self, from: usize) -> Vec<usize> {
        let kernel = popcount::active_kernel();
        let anchor = &self.cubes[from];
        self.cubes
            .iter()
            .map(|c| anchor.hamming_with(kernel, c))
            .collect()
    }

    /// Batched distance sweep over arbitrary index pairs: element `k` is
    /// `hd(T_{pairs[k].0}, T_{pairs[k].1})`, all pairs sharing one
    /// kernel resolve. Allocation-averse hot loops (the ISA annealer's
    /// move rescoring) hold the kernel themselves and call
    /// [`PackedBits::hamming_with`] per pair; this is the set-level
    /// batch entry point for everyone else.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn hamming_pairs(&self, pairs: &[(usize, usize)]) -> Vec<usize> {
        let kernel = popcount::active_kernel();
        pairs
            .iter()
            .map(|&(a, b)| self.cubes[a].hamming_with(kernel, &self.cubes[b]))
            .collect()
    }

    /// Weighted per-transition toggle loads: element `j` is the
    /// weighted Hamming distance between cubes `j` and `j + 1` under
    /// the per-pin `weights` table — the weighted twin of
    /// [`PackedCubeSet::toggle_profile`], batched the same way (one
    /// sweep over adjacent pairs).
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the weight table's
    /// length differs from the set width, and [`CubeError::Overflow`]
    /// when any transition's weighted sum exceeds `u64`.
    pub fn weighted_toggle_profile(&self, weights: &[u64]) -> Result<Vec<u64>, CubeError> {
        self.cubes
            .windows(2)
            .map(|w| w[0].weighted_hamming(&w[1], weights))
            .collect()
    }

    /// Weighted peak toggle load `max_j whd(T_j, T_{j+1})`; `0` for
    /// fewer than two cubes.
    ///
    /// # Errors
    ///
    /// Same as [`PackedCubeSet::weighted_toggle_profile`].
    pub fn weighted_peak_toggles(&self, weights: &[u64]) -> Result<u64, CubeError> {
        let mut peak = 0u64;
        for w in self.cubes.windows(2) {
            peak = peak.max(w[0].weighted_hamming(&w[1], weights)?);
        }
        Ok(peak)
    }

    /// Total number of `X` bits.
    pub fn x_count(&self) -> usize {
        self.cubes.iter().map(PackedBits::x_count).sum()
    }

    /// A new set whose cube `p` is this set's cube `order[p]` (row
    /// clones, no unpack/repack).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn reordered(&self, order: &[usize]) -> PackedCubeSet {
        PackedCubeSet {
            width: self.width,
            cubes: order.iter().map(|&i| self.cubes[i].clone()).collect(),
        }
    }

    /// Consumes the set and returns its packed rows.
    pub fn into_cubes(self) -> Vec<PackedBits> {
        self.cubes
    }

    /// Builds a set from packed rows of uniform width.
    ///
    /// # Panics
    ///
    /// Panics if any row's width differs from `width`.
    pub fn from_rows(width: usize, cubes: Vec<PackedBits>) -> PackedCubeSet {
        assert!(
            cubes.iter().all(|c| c.len() == width),
            "cube width mismatch"
        );
        PackedCubeSet { width, cubes }
    }
}

impl From<&CubeSet> for PackedCubeSet {
    fn from(set: &CubeSet) -> PackedCubeSet {
        PackedCubeSet::from_cube_set(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_cube_set;

    fn bits(s: &str) -> Vec<Bit> {
        s.chars().map(|c| Bit::from_char(c).unwrap()).collect()
    }

    #[test]
    fn round_trip_all_lengths_near_word_boundary() {
        for len in [0, 1, 63, 64, 65, 127, 128, 130] {
            let set = random_cube_set(len, 3, 0.5, len as u64);
            for cube in set.iter() {
                let packed = PackedBits::from(&cube);
                assert_eq!(packed.to_bits(), cube.bits(), "len {len}");
                assert_eq!(packed.x_count(), cube.x_count());
            }
        }
    }

    #[test]
    fn ascii_parse_classifies_every_byte_at_every_lane() {
        // Every byte value at lanes that start and end octets and plane
        // words, in rows of odd and word-boundary widths whose other
        // bytes cycle through the alphabet. The scalar `Bit::from_char`
        // is the reference, so bytes one bit away from a valid one
        // (0xB0, 0xD8, 0x10, 0x0D, ...) must fail exactly like the rest.
        const ALPHABET: &[u8] = b"01Xx-";
        for width in [1usize, 8, 9, 63, 64, 65, 129] {
            let base: Vec<u8> = (0..width).map(|i| ALPHABET[i % ALPHABET.len()]).collect();
            for col in [0, 7, 8, 63, 64, width - 1] {
                if col >= width {
                    continue;
                }
                for byte in 0..=u8::MAX {
                    let mut row = base.clone();
                    row[col] = byte;
                    let expected: Result<Vec<Bit>, u8> = row
                        .iter()
                        .map(|&b| Bit::from_char(char::from(b)).map_err(|_| b))
                        .collect();
                    assert_eq!(
                        PackedBits::from_pattern_ascii(&row),
                        expected.map(|bits| PackedBits::from_bits(&bits)),
                        "byte {byte:#04x} at column {col} of width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn ascii_render_matches_the_scalar_display_at_every_width() {
        for width in 0..=130usize {
            let mut rows: Vec<TestCube> = random_cube_set(width, 4, 0.5, width as u64)
                .iter()
                .collect();
            rows.push(TestCube::new(vec![Bit::X; width]));
            rows.push(TestCube::new(
                (0..width)
                    .map(|i| Bit::from_bool(i % 3 == 0 || i % 7 == 1))
                    .collect(),
            ));
            for cube in rows {
                let packed = PackedBits::from(&cube);
                let scalar = TestCube::new(packed.to_bits()).to_string();
                assert_eq!(packed.to_string(), scalar, "width {width}");
                let mut out = b"kept".to_vec();
                packed.write_ascii(&mut out);
                assert_eq!(&out[..4], b"kept");
                assert_eq!(&out[4..], scalar.as_bytes(), "width {width}");
            }
        }
    }

    #[test]
    fn get_set_agree_with_scalar() {
        let mut packed = PackedBits::all_x(70);
        packed.set(0, Bit::Zero);
        packed.set(63, Bit::One);
        packed.set(64, Bit::One);
        packed.set(69, Bit::Zero);
        assert_eq!(packed.get(0), Bit::Zero);
        assert_eq!(packed.get(63), Bit::One);
        assert_eq!(packed.get(64), Bit::One);
        assert_eq!(packed.get(69), Bit::Zero);
        assert_eq!(packed.get(1), Bit::X);
        packed.set(63, Bit::X);
        assert_eq!(packed.get(63), Bit::X);
        assert_eq!(packed.x_count(), 70 - 3);
    }

    #[test]
    fn hamming_matches_scalar() {
        for seed in 0..6u64 {
            let set = random_cube_set(130, 6, 0.5, seed);
            for i in 0..set.len() {
                for j in 0..set.len() {
                    let a = PackedBits::from(&set.cube(i));
                    let b = PackedBits::from(&set.cube(j));
                    let scalar = set
                        .cube(i)
                        .iter()
                        .zip(set.cube(j).iter())
                        .filter(|(x, y)| x.conflicts(*y))
                        .count();
                    assert_eq!(a.hamming(&b), scalar, "seed {seed} cubes {i},{j}");
                }
            }
        }
    }

    #[test]
    fn care_positions_skip_x_runs() {
        let mut p = PackedBits::all_x(67);
        p.set(2, Bit::Zero);
        p.set(64, Bit::One);
        let positions: Vec<(usize, Bit)> = p.care_positions().collect();
        assert_eq!(positions, vec![(2, Bit::Zero), (64, Bit::One)]);
        assert_eq!(p.first_care(), Some(2));
        assert_eq!(PackedBits::all_x(5).first_care(), None);
    }

    #[test]
    fn fill_x_with_leaves_care_bits() {
        let mut p = PackedBits::from_bits(&bits("0XX1"));
        p.fill_x_with(Bit::One);
        assert_eq!(p.to_bits(), bits("0111"));
        let mut q = PackedBits::from_bits(&bits("0XX1"));
        q.fill_x_with(Bit::Zero);
        assert_eq!(q.to_bits(), bits("0001"));
    }

    #[test]
    fn fill_copy_left_matches_mt_semantics() {
        // The carry is what the leading run copies: the first care value
        // for MT/Adj semantics, zero for an all-X vector.
        let mut p = PackedBits::from_bits(&bits("XX0XX1XXX0XX"));
        assert!(!p.fill_copy_left(false));
        assert_eq!(
            p.to_bits(),
            bits("000001111000"),
            "leading copies first care, runs copy left, trailing copies last"
        );
        let mut all_x = PackedBits::all_x(5);
        assert!(!all_x.fill_copy_left(false));
        assert_eq!(all_x.to_bits(), bits("00000"));
    }

    #[test]
    fn fill_copy_left_matches_a_per_bit_reference() {
        let mut seed = 0xC0FF_EE00_D15C_0123u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for len in 0..=200usize {
            for round in 0..6 {
                // Rounds vary the X density, so long runs cross words.
                let row: Vec<Bit> = (0..len)
                    .map(|_| match next() % (2 + round * 3) {
                        0 => Bit::Zero,
                        1 => Bit::One,
                        _ => Bit::X,
                    })
                    .collect();
                for carry_in in [false, true] {
                    let mut expect = row.clone();
                    let mut last = Bit::from_bool(carry_in);
                    for b in &mut expect {
                        if b.is_care() {
                            last = *b;
                        } else {
                            *b = last;
                        }
                    }
                    let mut packed = PackedBits::from_bits(&row);
                    let carry_out = packed.fill_copy_left(carry_in);
                    assert_eq!(packed.to_bits(), expect, "len {len} round {round}");
                    assert_eq!(
                        carry_out,
                        last == Bit::One,
                        "len {len} round {round} carry {carry_in}"
                    );
                    // Canonical planes: derived equality stays structural.
                    assert_eq!(packed, PackedBits::from_bits(&expect));
                }
            }
        }
    }

    #[test]
    fn packed_set_toggle_kernels_match_docs() {
        let set = CubeSet::parse_rows(&["000", "011", "010", "101"]).unwrap();
        let packed = PackedCubeSet::from(&set);
        assert_eq!(packed.toggle_profile(), vec![2, 1, 3]);
        assert_eq!(packed.peak_toggles(), 3);
        assert_eq!(packed.total_toggles(), 6);
        assert_eq!(packed.x_count(), 0);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let set = PackedCubeSet::new(4);
        assert!(set.is_empty());
        assert_eq!(set.peak_toggles(), 0);
        assert!(set.toggle_profile().is_empty());
        let back = set.to_cube_set();
        assert_eq!(back.width(), 4);
        assert!(back.is_empty());

        let zero_width = PackedCubeSet::new(0);
        assert_eq!(zero_width.x_count(), 0);
        assert!(zero_width.to_cube_set().is_empty());
    }

    #[test]
    fn fallible_kernels_report_width_mismatch() {
        let a = PackedBits::from_bits(&bits("0X1X"));
        let b = PackedBits::from_bits(&bits("0X1"));
        let mismatch = CubeError::WidthMismatch {
            expected: 4,
            found: 3,
        };
        assert_eq!(a.try_hamming(&b), Err(mismatch.clone()));
        assert_eq!(a.try_merge(&b), Err(mismatch.clone()));
        assert_eq!(a.try_is_contained_in(&b), Err(mismatch));
        // The infallible views keep their documented lenient behavior.
        assert_eq!(a.merge(&b), None);
        assert!(!a.is_contained_in(&b));
        // Equal widths: typed paths agree with the originals.
        let c = PackedBits::from_bits(&bits("0XXX"));
        assert_eq!(a.try_hamming(&c).unwrap(), a.hamming(&c));
        assert_eq!(a.try_merge(&c).unwrap(), a.merge(&c));
        assert_eq!(a.try_is_contained_in(&c).unwrap(), a.is_contained_in(&c));
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn packed_hamming_panics_on_width_mismatch() {
        let a = PackedBits::all_x(4);
        let b = PackedBits::all_x(5);
        let _ = a.hamming(&b);
    }

    #[test]
    fn whole_set_sweeps_match_per_pair_kernels() {
        for seed in 0..4u64 {
            let set = random_cube_set(130, 12, 0.5, seed);
            let packed = PackedCubeSet::from(&set);
            let per_pair: Vec<usize> = packed
                .cubes()
                .windows(2)
                .map(|w| w[0].hamming(&w[1]))
                .collect();
            assert_eq!(packed.toggle_profile(), per_pair, "seed {seed}");
            assert_eq!(
                packed.peak_toggles(),
                per_pair.iter().copied().max().unwrap_or(0)
            );
            assert_eq!(packed.total_conflicts(), per_pair.iter().sum::<usize>());
            assert_eq!(packed.total_toggles(), packed.total_conflicts());
            for from in [0, packed.len() / 2, packed.len() - 1] {
                let sweep = packed.distances_from(from);
                for (i, &d) in sweep.iter().enumerate() {
                    assert_eq!(d, packed.cube(from).hamming(packed.cube(i)));
                }
            }
            let pairs: Vec<(usize, usize)> = (0..packed.len() - 1).map(|i| (i, i + 1)).collect();
            assert_eq!(packed.hamming_pairs(&pairs), per_pair);
        }
        assert!(PackedCubeSet::new(8).hamming_pairs(&[]).is_empty());
    }

    #[test]
    fn compatibility_and_canonical_equality() {
        let a = PackedBits::from_bits(&bits("0X1X"));
        let b = PackedBits::from_bits(&bits("0XX1"));
        let c = PackedBits::from_bits(&bits("1XXX"));
        assert!(a.is_compatible(&b));
        assert!(!a.is_compatible(&c));
        // Setting a bit to X restores exact equality with a fresh pack.
        let mut d = a.clone();
        d.set(2, Bit::X);
        assert_eq!(d, PackedBits::from_bits(&bits("0XXX")));
    }
}
