//! Shortest round-trip f64 formatting, byte-identical to std `Display`.
//!
//! The digit search is Ryu's d2d (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): it finds the shortest decimal in the interval
//! of reals that round to the double, and the one closest to the exact
//! value among those. One deliberate difference: when the exact value
//! lies halfway between two shortest candidates, Ryu rounds to even but
//! std rounds up (2^-25 = 2.98023223876953125e-8 prints as `...695313`
//! where Ryu gives `...695312`), so the tie flag Ryu keeps for `vr` is
//! dropped and only the lower bound's trailing-zero flag remains.
//!
//! The two 125-bit power-of-5 tables are built on first use from a small
//! fixed-width bignum instead of being checked in as 668 constant rows.

use std::cmp::Ordering;
use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bit width of every table entry (Ryu's `DOUBLE_POW5_BITCOUNT` and
/// `DOUBLE_POW5_INV_BITCOUNT`).
const POW5_BITS: i32 = 125;
/// Entries of 2^k / 5^q (q up to 290) and of 5^i (i up to 325).
const INV_TABLE_LEN: usize = 342;
const TABLE_LEN: usize = 326;

/// "00" to "99", two ASCII digits each.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Append the std `Display` text of the finite `v` (`format!("{v}")`):
/// plain decimal notation, never an exponent, `-` for negative values
/// including -0.0. Returns whether the text is an integer (no `.`).
pub(crate) fn write_display(out: &mut Vec<u8>, v: f64) -> bool {
    debug_assert!(v.is_finite());
    if v.is_sign_negative() {
        out.push(b'-');
    }
    if v == 0.0 {
        out.push(b'0');
        return true;
    }
    let (mut digits, mut exp) = d2d(v.to_bits());
    while digits.is_multiple_of(10) {
        digits /= 10;
        exp += 1;
    }
    let len = digits.ilog10() as usize + 1;
    let places = exp.unsigned_abs() as usize;
    // The text is `ddd000`, `dd.ddd` or `0.000ddd`: zero-fill it, then
    // place the digits and the point.
    let text_len = if exp >= 0 {
        len + places
    } else if places < len {
        len + 1
    } else {
        2 + places
    };
    let start = out.len();
    out.resize(start + text_len, b'0');
    let text = &mut out[start..];
    if exp >= 0 {
        write_digits(&mut text[..len], digits);
    } else if places < len {
        let point = len - places;
        write_digits(&mut text[1..=len], digits);
        text.copy_within(1..=point, 0);
        text[point] = b'.';
    } else {
        text[1] = b'.';
        write_digits(&mut text[text_len - len..], digits);
    }
    exp >= 0
}

/// Fill `buf` with the last `buf.len()` decimal digits of `v`. Eight-digit
/// chunks are split off first so the pair loops run on u32s.
fn write_digits(buf: &mut [u8], mut v: u64) {
    let mut end = buf.len();
    while end > 8 {
        write_pairs(&mut buf[end - 8..end], (v % 100_000_000) as u32);
        v /= 100_000_000;
        end -= 8;
    }
    write_pairs(&mut buf[..end], v as u32);
}

fn write_pairs(buf: &mut [u8], mut v: u32) {
    let mut end = buf.len();
    while end >= 2 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if end == 1 {
        buf[0] = b'0' + (v % 10) as u8;
    }
}

/// `(digits, exp)` with `digits × 10^exp` the shortest decimal that
/// parses back to the finite, nonzero double with bit pattern `bits`.
fn d2d(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // Unbiased exponent less 2: the interval bounds below live at 4×m2.
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2)
    } else {
        (
            ieee_mantissa | (1 << MANTISSA_BITS),
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
        )
    };
    // Round-to-even parsing includes the interval's ends for even m2.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower gap is half as wide just above a power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let tables = tables();

    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5_bits(q as i32) - 1;
        let shift = -e2 + q as i32 + k;
        let mul = tables.inv[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        // Small q: the products may be exact. (mv divisible by 5 is where Ryu
        // tracks whether vr is exact, which only its tie rule needs.)
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            } else {
                vp -= u64::from(pow5_factor(mv + 2) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS;
        let shift = q as i32 - k;
        let mul = tables.pow[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        if q <= 1 {
            // mv has at least q trailing binary zeros, so all three are exact.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    let mut last_removed_digit = 0;
    if !vm_is_trailing_zeros {
        // Two at a time while they can go (most doubles).
        while vp / 100 > vm / 100 {
            last_removed_digit = vr % 100 / 10;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
    }
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm.is_multiple_of(10);
        last_removed_digit = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The included lower bound is itself a shorter decimal.
        while vm.is_multiple_of(10) {
            last_removed_digit = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Round half up (std), and step off an excluded lower bound.
    let round_up =
        (vr == vm && (!accept_bounds || !vm_is_trailing_zeros)) || last_removed_digit >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// Bit length of 5^e (1 for e = 0), valid for 0 <= e <= 3528.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// floor(log10(2^e)) for 0 <= e <= 1650.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// floor(log10(5^e)) for 0 <= e <= 2620.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Largest p with 5^p dividing the nonzero `v`.
fn pow5_factor(mut v: u64) -> u32 {
    let mut p = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        p += 1;
    }
    p
}

/// floor(m × mul / 2^shift) for a 125-bit `mul` and shift >= 64.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

struct Tables {
    /// floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1.
    inv: Vec<u128>,
    /// The top 125 bits of 5^i (5^i shifted left when it is shorter).
    pow: Vec<u128>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut inv = Vec::with_capacity(INV_TABLE_LEN);
        let mut pow = Vec::with_capacity(TABLE_LEN);
        let mut pow5 = Big::from(1);
        for i in 0..INV_TABLE_LEN {
            let len = pow5.bit_len();
            if i < TABLE_LEN {
                pow.push(pow5.top_bits(len, POW5_BITS as u32));
            }
            // Binary long division of 2^(len - 1 + 125) by 5^i: start from
            // the leading 2^(len - 1) (< 5^i unless i = 0) and bring down
            // 125 zero bits, one quotient bit per step.
            let mut rem = Big::pow2(len - 1);
            let mut quotient = 0u128;
            for _ in 0..=POW5_BITS {
                quotient <<= 1;
                if rem >= pow5 {
                    rem.sub(&pow5);
                    quotient |= 1;
                }
                rem.shl1();
            }
            inv.push(quotient + 1);
            pow5.mul_small(5);
        }
        Tables { inv, pow }
    })
}

/// Little-endian fixed-width unsigned integer: 13 limbs hold 5^341
/// (792 bits) doubled.
#[derive(PartialEq, Eq)]
struct Big([u64; 13]);

impl Big {
    fn from(v: u64) -> Big {
        let mut limbs = [0; 13];
        limbs[0] = v;
        Big(limbs)
    }

    fn pow2(k: u32) -> Big {
        let mut big = Big::from(0);
        big.0[k as usize / 64] = 1 << (k % 64);
        big
    }

    fn bit(&self, k: u32) -> bool {
        self.0[k as usize / 64] >> (k % 64) & 1 == 1
    }

    fn bit_len(&self) -> u32 {
        self.0
            .iter()
            .rposition(|&limb| limb != 0)
            .map_or(0, |i| 64 * (i as u32 + 1) - self.0[i].leading_zeros())
    }

    /// The `width` bits below bit `len` (the bit length), as an integer;
    /// a shorter value is shifted left to fill them.
    fn top_bits(&self, len: u32, width: u32) -> u128 {
        if len <= width {
            return (u128::from(self.0[1]) << 64 | u128::from(self.0[0])) << (width - len);
        }
        (0..width).fold(0, |acc, k| acc << 1 | u128::from(self.bit(len - 1 - k)))
    }

    fn mul_small(&mut self, m: u64) {
        let mut carry = 0u128;
        for limb in &mut self.0 {
            let t = u128::from(*limb) * u128::from(m) + carry;
            *limb = t as u64;
            carry = t >> 64;
        }
    }

    fn shl1(&mut self) {
        let mut carry = 0;
        for limb in &mut self.0 {
            let next = *limb >> 63;
            *limb = *limb << 1 | carry;
            carry = next;
        }
    }

    /// self -= other, for other <= self.
    fn sub(&mut self, other: &Big) {
        let mut borrow = false;
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            let (d, b1) = a.overflowing_sub(b);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *a = d;
            borrow = b1 || b2;
        }
    }
}

impl PartialOrd for Big {
    fn partial_cmp(&self, other: &Big) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Big {
    fn cmp(&self, other: &Big) -> Ordering {
        self.0.iter().rev().cmp(other.0.iter().rev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn display(v: f64) -> String {
        let mut out = Vec::new();
        write_display(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn table_ends_match_ryu() {
        let t = tables();
        assert_eq!(t.inv.len(), INV_TABLE_LEN);
        assert_eq!(t.pow.len(), TABLE_LEN);
        // Ryu's DOUBLE_POW5_INV_SPLIT[0..2] and DOUBLE_POW5_SPLIT[0..2].
        assert_eq!(t.inv[0], (1 << 125) + 1);
        assert_eq!(t.inv[1], (1u128 << 127) / 5 + 1);
        assert_eq!(t.pow[0], 1 << 124);
        assert_eq!(t.pow[1], 5 << 122);
        // Every entry is exactly 125 bits wide, as pow5_bits predicts.
        for (i, &p) in t.pow.iter().enumerate() {
            assert_eq!(128 - p.leading_zeros(), POW5_BITS as u32, "pow[{i}]");
        }
        let mut pow5 = Big::from(1);
        for i in 0..INV_TABLE_LEN as i32 {
            assert_eq!(pow5.bit_len() as i32, pow5_bits(i), "5^{i}");
            pow5.mul_small(5);
        }
    }

    #[test]
    fn matches_std_on_edges() {
        let values = [
            1.0,
            0.1,
            0.3,
            1.5,
            123.456,
            1e15,
            1e16,
            1e23,
            9007199254740993.0,
            2f64.powi(-25),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            5e-324,
            -2.5e-8,
            -0.0,
            0.0,
        ];
        for v in values {
            assert_eq!(display(v), format!("{v}"), "{v:e}");
        }
    }
}
