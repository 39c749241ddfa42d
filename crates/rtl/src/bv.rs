//! Arbitrary-width two-state bit vectors.
//!
//! [`Bv`] is the value type used throughout the RTL simulator and the
//! synthesis front end: a fixed-width vector of bits stored little-endian in
//! `u64` limbs. Widths are explicit and all operations are width-checked so
//! that RTL semantics (truncation, zero-extension) are applied deliberately
//! at call sites rather than by accident.
//!
//! # Examples
//!
//! ```
//! use rtlock_rtl::bv::Bv;
//!
//! let a = Bv::from_u64(8, 0xF0);
//! let b = Bv::from_u64(8, 0x0F);
//! assert_eq!(a.or(&b), Bv::from_u64(8, 0xFF));
//! assert_eq!(a.add(&b), Bv::from_u64(8, 0xFF));
//! assert_eq!(format!("{}", Bv::from_u64(4, 0b1010)), "4'b1010");
//! ```

use std::fmt;

/// A fixed-width two-state bit vector (no X/Z states).
///
/// Bit 0 is the least significant bit. Unused high bits of the top limb are
/// always kept zero (a normalized representation), so equality and hashing
/// are structural.
#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bv {
    width: usize,
    limbs: Vec<u64>,
}

// Written out so that `clone_from` reuses the destination's limb buffer.
impl Clone for Bv {
    fn clone(&self) -> Self {
        Bv { width: self.width, limbs: self.limbs.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.width = source.width;
        self.limbs.clone_from(&source.limbs);
    }
}

fn limbs_for(width: usize) -> usize {
    width.div_ceil(64).max(1)
}

/// The 64 bits of `limbs` starting at bit `at`, zero past the end.
fn word_at(limbs: &[u64], at: usize) -> u64 {
    let (i, s) = (at / 64, at % 64);
    let lo = limbs.get(i).map_or(0, |&l| l >> s);
    if s == 0 {
        lo
    } else {
        lo | limbs.get(i + 1).map_or(0, |&l| l << (64 - s))
    }
}

/// ORs `src` shifted left by `at` bits into `dst`, dropping what falls
/// past the end of `dst`.
fn or_shifted_into(dst: &mut [u64], src: &[u64], at: usize) {
    let (skip, s) = (at / 64, at % 64);
    for (i, &l) in src.iter().enumerate() {
        if let Some(d) = dst.get_mut(skip + i) {
            *d |= l << s;
        }
        if s != 0 {
            if let Some(d) = dst.get_mut(skip + i + 1) {
                *d |= l >> (64 - s);
            }
        }
    }
}

impl Bv {
    /// All-zero vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn zeros(width: usize) -> Self {
        assert!(width > 0, "bit vector width must be positive");
        Bv { width, limbs: vec![0; limbs_for(width)] }
    }

    /// All-one vector of the given width.
    pub fn ones(width: usize) -> Self {
        let mut v = Bv::zeros(width);
        v.limbs.fill(u64::MAX);
        v.normalize();
        v
    }

    /// Builds a vector from the low `width` bits of `value`.
    ///
    /// Values wider than `width` are truncated.
    pub fn from_u64(width: usize, value: u64) -> Self {
        let mut v = Bv::zeros(width);
        v.limbs[0] = value;
        v.normalize();
        v
    }

    /// Builds a one-bit vector from a boolean.
    pub fn from_bool(value: bool) -> Self {
        Bv::from_u64(1, value as u64)
    }

    /// Builds a vector from bits given least-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut v = Bv::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Parses a binary string, most-significant bit first (e.g. `"1010"`).
    ///
    /// Underscores are ignored. Returns `None` on empty or non-binary input.
    pub fn from_binary_str(s: &str) -> Option<Self> {
        let digits: Vec<bool> = s
            .chars()
            .filter(|&c| c != '_')
            .map(|c| match c {
                '0' => Some(false),
                '1' => Some(true),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        if digits.is_empty() {
            return None;
        }
        let mut bits = digits;
        bits.reverse();
        Some(Bv::from_bits(&bits))
    }

    /// Parses a hexadecimal string, most-significant digit first.
    ///
    /// Underscores are ignored; the resulting width is `4 * digits` unless a
    /// target width is supplied via [`Bv::resize`] afterwards.
    pub fn from_hex_str(s: &str) -> Option<Self> {
        let digits: Vec<u64> = s
            .chars()
            .filter(|&c| c != '_')
            .map(|c| c.to_digit(16).map(u64::from))
            .collect::<Option<Vec<_>>>()?;
        if digits.is_empty() {
            return None;
        }
        let mut v = Bv::zeros(digits.len() * 4);
        for (pos, d) in digits.iter().rev().enumerate() {
            for b in 0..4 {
                if d >> b & 1 == 1 {
                    v.set(pos * 4 + b, true);
                }
            }
        }
        Some(v)
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reads a single bit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.width, "bit index {index} out of range for width {}", self.width);
        self.limbs[index / 64] >> (index % 64) & 1 == 1
    }

    /// Writes a single bit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(index < self.width, "bit index {index} out of range for width {}", self.width);
        let mask = 1u64 << (index % 64);
        if value {
            self.limbs[index / 64] |= mask;
        } else {
            self.limbs[index / 64] &= !mask;
        }
    }

    /// `true` if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// The low 64 bits as an integer (bits above 64 are ignored).
    pub fn to_u64_lossy(&self) -> u64 {
        self.limbs[0]
    }

    /// The value as `u64` if it fits, otherwise `None`.
    pub fn to_u64(&self) -> Option<u64> {
        if self.limbs[1..].iter().all(|&l| l == 0) {
            Some(self.limbs[0])
        } else {
            None
        }
    }

    /// Iterator over bits, least significant first.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(|i| self.bit(i))
    }

    /// The bits of the top limb that lie inside the width.
    fn top_mask(&self) -> u64 {
        u64::MAX >> (self.limbs.len() * 64 - self.width)
    }

    fn normalize(&mut self) {
        let mask = self.top_mask();
        if let Some(last) = self.limbs.last_mut() {
            *last &= mask;
        }
    }

    /// Zero-extends or truncates to `width`.
    pub fn resize(&self, width: usize) -> Bv {
        let mut out = Bv::zeros(width);
        let n = out.limbs.len().min(self.limbs.len());
        out.limbs[..n].copy_from_slice(&self.limbs[..n]);
        out.normalize();
        out
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Bv {
        let mut out = self.clone();
        for l in &mut out.limbs {
            *l = !*l;
        }
        out.normalize();
        out
    }

    fn zip_with(&self, rhs: &Bv, f: impl Fn(u64, u64) -> u64) -> Bv {
        assert_eq!(self.width, rhs.width, "width mismatch in bitwise op");
        let limbs = self.limbs.iter().zip(&rhs.limbs).map(|(&a, &b)| f(a, b)).collect();
        let mut out = Bv { width: self.width, limbs };
        out.normalize();
        out
    }

    /// Bitwise AND. Panics on width mismatch.
    pub fn and(&self, rhs: &Bv) -> Bv {
        self.zip_with(rhs, |a, b| a & b)
    }

    /// Bitwise OR. Panics on width mismatch.
    pub fn or(&self, rhs: &Bv) -> Bv {
        self.zip_with(rhs, |a, b| a | b)
    }

    /// Bitwise XOR. Panics on width mismatch.
    pub fn xor(&self, rhs: &Bv) -> Bv {
        self.zip_with(rhs, |a, b| a ^ b)
    }

    /// Modular addition (wraps at `2^width`). Panics on width mismatch.
    pub fn add(&self, rhs: &Bv) -> Bv {
        assert_eq!(self.width, rhs.width, "width mismatch in add");
        let mut out = Bv::zeros(self.width);
        let mut carry = 0u64;
        for i in 0..self.limbs.len() {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.normalize();
        out
    }

    /// Modular subtraction (wraps at `2^width`). Panics on width mismatch.
    pub fn sub(&self, rhs: &Bv) -> Bv {
        assert_eq!(self.width, rhs.width, "width mismatch in sub");
        let mut out = self.clone();
        let mut borrow = false;
        for (d, &b) in out.limbs.iter_mut().zip(&rhs.limbs) {
            let (d1, b1) = d.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            *d = d2;
            borrow = b1 | b2;
        }
        out.normalize();
        out
    }

    /// Two's-complement negation.
    pub fn neg(&self) -> Bv {
        // -a = ~a + 1.
        let mut out = self.clone();
        let mut carry = true;
        for l in &mut out.limbs {
            let (s, c) = (!*l).overflowing_add(u64::from(carry));
            *l = s;
            carry = c;
        }
        out.normalize();
        out
    }

    /// Modular multiplication (truncated to `width`). Panics on width mismatch.
    pub fn mul(&self, rhs: &Bv) -> Bv {
        assert_eq!(self.width, rhs.width, "width mismatch in mul");
        // Schoolbook over limbs, forming only the partial products that
        // land inside the width's limbs. `a * b + acc + carry` fits in a
        // `u128`.
        let n = self.limbs.len();
        let mut out = Bv::zeros(self.width);
        for (i, &a) in self.limbs.iter().enumerate().filter(|&(_, &a)| a != 0) {
            let mut carry = 0u64;
            for (acc, &b) in out.limbs[i..].iter_mut().zip(&rhs.limbs[..n - i]) {
                let t = u128::from(a) * u128::from(b) + u128::from(*acc) + u128::from(carry);
                *acc = t as u64;
                carry = (t >> 64) as u64;
            }
        }
        out.normalize();
        out
    }

    /// Logical shift left by `amount` bits (zero fill).
    pub fn shl(&self, amount: usize) -> Bv {
        let mut out = Bv::zeros(self.width);
        if amount < self.width {
            or_shifted_into(&mut out.limbs, &self.limbs, amount);
            out.normalize();
        }
        out
    }

    /// Logical shift right by `amount` bits (zero fill).
    pub fn shr(&self, amount: usize) -> Bv {
        let mut out = Bv::zeros(self.width);
        if amount < self.width {
            // Bits past the width are zero, so the top limb stays normalized.
            for (i, l) in out.limbs.iter_mut().enumerate() {
                *l = word_at(&self.limbs, amount + i * 64);
            }
        }
        out
    }

    /// Unsigned comparison: `self < rhs`. Panics on width mismatch.
    pub fn ult(&self, rhs: &Bv) -> bool {
        assert_eq!(self.width, rhs.width, "width mismatch in comparison");
        for i in (0..self.limbs.len()).rev() {
            if self.limbs[i] != rhs.limbs[i] {
                return self.limbs[i] < rhs.limbs[i];
            }
        }
        false
    }

    /// AND-reduction over all bits.
    pub fn reduce_and(&self) -> bool {
        let (last, full) = self.limbs.split_last().expect("a bit vector has at least one limb");
        full.iter().all(|&l| l == u64::MAX) && *last == self.top_mask()
    }

    /// OR-reduction over all bits.
    pub fn reduce_or(&self) -> bool {
        !self.is_zero()
    }

    /// XOR-reduction (parity) over all bits.
    pub fn reduce_xor(&self) -> bool {
        self.limbs.iter().fold(0u32, |acc, l| acc ^ l.count_ones()) % 2 == 1
    }

    /// Extracts bits `[hi:lo]` inclusive (Verilog slice order).
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= self.width()`.
    pub fn slice(&self, hi: usize, lo: usize) -> Bv {
        assert!(hi >= lo && hi < self.width, "invalid slice [{hi}:{lo}] of width {}", self.width);
        let mut out = Bv::zeros(hi - lo + 1);
        for (i, l) in out.limbs.iter_mut().enumerate() {
            *l = word_at(&self.limbs, lo + i * 64);
        }
        out.normalize();
        out
    }

    /// Concatenation: `self` becomes the high part (Verilog `{self, low}`).
    pub fn concat(&self, low: &Bv) -> Bv {
        let mut out = Bv::zeros(self.width + low.width);
        out.limbs[..low.limbs.len()].copy_from_slice(&low.limbs);
        or_shifted_into(&mut out.limbs, &self.limbs, low.width);
        out
    }

    /// Repeats `self`, `times` times (Verilog `{times{self}}`).
    ///
    /// # Panics
    ///
    /// Panics if `times == 0`.
    pub fn repeat(&self, times: usize) -> Bv {
        assert!(times > 0, "repeat count must be positive");
        let width = self.width.checked_mul(times).expect("repeat width overflows usize");
        let mut out = Bv::zeros(width);
        for t in 0..times {
            or_shifted_into(&mut out.limbs, &self.limbs, t * self.width);
        }
        out
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> u32 {
        self.limbs.iter().map(|l| l.count_ones()).sum()
    }
}

impl fmt::Debug for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bv({self})")
    }
}

impl fmt::Display for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b", self.width)?;
        for i in (0..self.width).rev() {
            write!(f, "{}", self.bit(i) as u8)?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = self.width.div_ceil(4);
        for d in (0..digits).rev() {
            let mut nib = 0u8;
            for b in 0..4 {
                let idx = d * 4 + b;
                if idx < self.width && self.bit(idx) {
                    nib |= 1 << b;
                }
            }
            write!(f, "{nib:x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = Bv::from_u64(8, 0b1010_0101);
        assert_eq!(v.width(), 8);
        assert!(v.bit(0));
        assert!(!v.bit(1));
        assert!(v.bit(7));
        assert_eq!(v.to_u64(), Some(0xA5));
    }

    #[test]
    fn wide_values_span_limbs() {
        let mut v = Bv::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert_eq!(v.count_ones(), 3);
        assert!(v.bit(64));
        assert!(v.bit(129));
        assert_eq!(v.to_u64(), None);
    }

    #[test]
    fn from_u64_truncates() {
        let v = Bv::from_u64(4, 0xFF);
        assert_eq!(v, Bv::from_u64(4, 0xF));
    }

    #[test]
    fn not_keeps_width_normalized() {
        let v = Bv::from_u64(4, 0b0101).not();
        assert_eq!(v, Bv::from_u64(4, 0b1010));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn add_wraps_modulo_width() {
        let a = Bv::from_u64(8, 200);
        let b = Bv::from_u64(8, 100);
        assert_eq!(a.add(&b), Bv::from_u64(8, 44));
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = Bv::ones(65);
        let one = Bv::from_u64(65, 1);
        assert!(a.add(&one).is_zero());
    }

    #[test]
    fn sub_is_inverse_of_add() {
        let a = Bv::from_u64(16, 0x1234);
        let b = Bv::from_u64(16, 0xFFFF);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_matches_u64_semantics() {
        let a = Bv::from_u64(16, 300);
        let b = Bv::from_u64(16, 250);
        assert_eq!(a.mul(&b).to_u64(), Some((300u64 * 250) & 0xFFFF));
    }

    #[test]
    fn shifts() {
        let v = Bv::from_u64(8, 0b0000_0110);
        assert_eq!(v.shl(2), Bv::from_u64(8, 0b0001_1000));
        assert_eq!(v.shr(1), Bv::from_u64(8, 0b0000_0011));
        assert_eq!(v.shl(9), Bv::zeros(8));
        assert_eq!(v.shr(9), Bv::zeros(8));
    }

    #[test]
    fn comparison_is_unsigned() {
        let a = Bv::from_u64(8, 0x80);
        let b = Bv::from_u64(8, 0x7F);
        assert!(b.ult(&a));
        assert!(!a.ult(&b));
        assert!(!a.ult(&a));
    }

    #[test]
    fn reductions() {
        assert!(Bv::ones(5).reduce_and());
        assert!(!Bv::from_u64(5, 0b10111).reduce_and());
        assert!(Bv::from_u64(5, 0b00100).reduce_or());
        assert!(!Bv::zeros(5).reduce_or());
        assert!(Bv::from_u64(5, 0b00111).reduce_xor());
        assert!(!Bv::from_u64(5, 0b00110).reduce_xor());
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let v = Bv::from_u64(12, 0xABC);
        let hi = v.slice(11, 8);
        let lo = v.slice(7, 0);
        assert_eq!(hi.concat(&lo), v);
        assert_eq!(hi.to_u64(), Some(0xA));
    }

    #[test]
    fn repeat_builds_patterns() {
        let v = Bv::from_u64(2, 0b10);
        assert_eq!(v.repeat(3), Bv::from_u64(6, 0b101010));
    }

    #[test]
    fn parse_binary_and_hex() {
        assert_eq!(Bv::from_binary_str("1010").unwrap(), Bv::from_u64(4, 0b1010));
        assert_eq!(Bv::from_binary_str("1_0a"), None);
        assert_eq!(Bv::from_hex_str("fF").unwrap(), Bv::from_u64(8, 0xFF));
        assert_eq!(Bv::from_hex_str(""), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bv::from_u64(4, 0b1001)), "4'b1001");
        assert_eq!(format!("{:x}", Bv::from_u64(12, 0xABC)), "abc");
        assert_eq!(format!("{:x}", Bv::from_u64(9, 0x1FF)), "1ff");
    }

    #[test]
    fn resize_extends_and_truncates() {
        let v = Bv::from_u64(4, 0b1111);
        assert_eq!(v.resize(8), Bv::from_u64(8, 0b0000_1111));
        assert_eq!(v.resize(2), Bv::from_u64(2, 0b11));
    }

    #[test]
    fn neg_is_twos_complement() {
        let v = Bv::from_u64(8, 1);
        assert_eq!(v.neg(), Bv::from_u64(8, 0xFF));
        assert_eq!(Bv::zeros(8).neg(), Bv::zeros(8));
    }

    /// Bit-at-a-time definitions of the word-level kernels, built on `bit`
    /// and `set` alone.
    mod bitwise {
        use super::Bv;

        pub fn resize(v: &Bv, width: usize) -> Bv {
            let mut out = Bv::zeros(width);
            for i in 0..width.min(v.width()) {
                out.set(i, v.bit(i));
            }
            out
        }

        pub fn shl(v: &Bv, amount: usize) -> Bv {
            let mut out = Bv::zeros(v.width());
            for i in amount..v.width() {
                out.set(i, v.bit(i - amount));
            }
            out
        }

        pub fn shr(v: &Bv, amount: usize) -> Bv {
            let mut out = Bv::zeros(v.width());
            for i in 0..v.width().saturating_sub(amount) {
                out.set(i, v.bit(i + amount));
            }
            out
        }

        pub fn slice(v: &Bv, hi: usize, lo: usize) -> Bv {
            let mut out = Bv::zeros(hi - lo + 1);
            for i in lo..=hi {
                out.set(i - lo, v.bit(i));
            }
            out
        }

        pub fn concat(high: &Bv, low: &Bv) -> Bv {
            let mut out = Bv::zeros(high.width() + low.width());
            for i in 0..low.width() {
                out.set(i, low.bit(i));
            }
            for i in 0..high.width() {
                out.set(low.width() + i, high.bit(i));
            }
            out
        }

        pub fn repeat(v: &Bv, times: usize) -> Bv {
            (1..times).fold(v.clone(), |acc, _| concat(&acc, v))
        }

        /// Ripple-carry `a + b + carry_in`.
        pub fn add(a: &Bv, b: &Bv, carry_in: bool) -> Bv {
            let mut out = Bv::zeros(a.width());
            let mut carry = carry_in;
            for i in 0..a.width() {
                let (x, y) = (a.bit(i), b.bit(i));
                out.set(i, x ^ y ^ carry);
                carry = (x & y) | (carry & (x ^ y));
            }
            out
        }

        pub fn not(v: &Bv) -> Bv {
            let mut out = Bv::zeros(v.width());
            for i in 0..v.width() {
                out.set(i, !v.bit(i));
            }
            out
        }

        /// `a - b = a + ~b + 1`.
        pub fn sub(a: &Bv, b: &Bv) -> Bv {
            add(a, &not(b), true)
        }

        pub fn neg(v: &Bv) -> Bv {
            sub(&Bv::zeros(v.width()), v)
        }

        /// Shift-and-add over the bits of `b`.
        pub fn mul(a: &Bv, b: &Bv) -> Bv {
            (0..b.width()).filter(|&i| b.bit(i)).fold(Bv::zeros(a.width()), |acc, i| add(&acc, &shl(a, i), false))
        }

        pub fn reduce_and(v: &Bv) -> bool {
            (0..v.width()).all(|i| v.bit(i))
        }
    }

    /// SplitMix64: a small seeded generator for the differential test.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A width in 1..=200, one draw in three on or next to a limb edge.
        fn width(&mut self) -> usize {
            const EDGES: [usize; 10] = [1, 63, 64, 65, 127, 128, 129, 191, 192, 193];
            if self.below(3) == 0 {
                EDGES[self.below(EDGES.len())]
            } else {
                1 + self.below(200)
            }
        }

        /// A value of `width` bits: random, all ones, zero, one set bit, or
        /// a run of ones (long carry and borrow chains).
        fn value(&mut self, width: usize) -> Bv {
            let bits: Vec<bool> = match self.below(5) {
                0 => (0..width).map(|_| self.next() & 1 == 1).collect(),
                1 => vec![true; width],
                2 => vec![false; width],
                3 => {
                    let one = self.below(width);
                    (0..width).map(|i| i == one).collect()
                }
                _ => {
                    let (x, y) = (self.below(width + 1), self.below(width + 1));
                    (0..width).map(|i| (x.min(y)..x.max(y)).contains(&i)).collect()
                }
            };
            Bv::from_bits(&bits)
        }
    }

    /// Every word-level kernel against its bit-at-a-time definition on
    /// seeded values whose widths (1–200), shift amounts (0 to width + 2)
    /// and slice bounds cross and land on limb edges.
    #[test]
    fn word_kernels_match_bitwise_definitions() {
        let mut rng = Mix(0xB17_5EED);
        let mut checks = 0usize;
        for _ in 0..1_200 {
            let w = rng.width();
            let (a, b) = (rng.value(w), rng.value(w));
            let ctx = format!("a={a:?} b={b:?}");

            let to = rng.width();
            assert_eq!(a.resize(to), bitwise::resize(&a, to), "resize to {to}, {ctx}");
            for _ in 0..2 {
                let amount = rng.below(w + 3);
                assert_eq!(a.shl(amount), bitwise::shl(&a, amount), "shl {amount}, {ctx}");
                assert_eq!(a.shr(amount), bitwise::shr(&a, amount), "shr {amount}, {ctx}");
            }

            // One random slice, one whose ends sit on limb edges.
            let (x, y) = (rng.below(w), rng.below(w));
            let (hi, lo) = (x.max(y), x.min(y));
            assert_eq!(a.slice(hi, lo), bitwise::slice(&a, hi, lo), "slice [{hi}:{lo}], {ctx}");
            let lo = (rng.below(w) / 64) * 64;
            let hi = (lo + 64 * (1 + rng.below(3)) - 1).min(w - 1);
            assert_eq!(a.slice(hi, lo), bitwise::slice(&a, hi, lo), "slice [{hi}:{lo}], {ctx}");

            let cw = rng.width();
            let c = rng.value(cw);
            assert_eq!(a.concat(&c), bitwise::concat(&a, &c), "concat {c:?}, {ctx}");
            assert_eq!(c.concat(&a), bitwise::concat(&c, &a), "concat {c:?}, {ctx}");
            let sw = 1 + rng.below(70);
            let short = rng.value(sw);
            let times = 1 + rng.below(6);
            assert_eq!(short.repeat(times), bitwise::repeat(&short, times), "repeat {short:?} x{times}");

            assert_eq!(a.sub(&b), bitwise::sub(&a, &b), "sub, {ctx}");
            assert_eq!(a.neg(), bitwise::neg(&a), "neg, {ctx}");
            assert_eq!(a.mul(&b), bitwise::mul(&a, &b), "mul, {ctx}");
            assert_eq!(a.reduce_and(), bitwise::reduce_and(&a), "reduce_and, {ctx}");
            let mut holed = Bv::ones(w);
            assert!(holed.reduce_and(), "reduce_and of ones({w})");
            holed.set(rng.below(w), false);
            assert!(!holed.reduce_and(), "reduce_and of {holed:?}");
            checks += 17;
        }
        assert!(checks >= 10_000, "{checks} checks");
    }
}
