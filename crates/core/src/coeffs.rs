//! [`Coeffs`] — the small inline coefficient vector a
//! [`LocalModel`](crate::predict::LocalModel) carries its slope and its
//! centre in.
//!
//! Algorithm 3 returns one local model per member of `W(q)`, and each
//! holds two `d`-vectors. As `Vec<f64>` that was two heap allocations per
//! member per answer — a few hundred `malloc`/`free` pairs on a `LINREG`
//! whose arithmetic is `O(d)` per member. The paper's experiments (and
//! this repository's figure binaries and ledger) run at `d ≤ 5`, so the
//! vector keeps up to 8 coordinates in place (a private constant) and
//! only spills to the heap beyond that; the list's own buffer is then the
//! one allocation of a served Q2 answer (`served_allocations` pins it).
//!
//! It is a value, not a container: built once from a slice or a `Vec`,
//! read through `Deref<Target = [f64]>`, never grown.

use std::fmt;
use std::ops::Deref;

/// Coordinates held in place; one more spills to the heap.
const INLINE_DIMS: usize = 8;

/// An immutable `f64` vector that lives inline up to 8 coordinates and on
/// the heap beyond — reads like the `Vec<f64>` it replaces (`Deref` to
/// `[f64]`, slice-shaped `Debug`, slice equality, `for b in &coeffs`).
#[derive(Clone)]
pub struct Coeffs(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` are the coordinates; the tail stays `0.0`.
    Inline {
        len: u8,
        buf: [f64; INLINE_DIMS],
    },
    Heap(Box<[f64]>),
}

impl Deref for Coeffs {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(spilled) => spilled,
        }
    }
}

impl From<&[f64]> for Coeffs {
    #[inline]
    fn from(v: &[f64]) -> Self {
        if v.len() <= INLINE_DIMS {
            let mut buf = [0.0; INLINE_DIMS];
            buf[..v.len()].copy_from_slice(v);
            // `as`: the branch bounds `len` by INLINE_DIMS, far below 256.
            let len = v.len() as u8;
            Coeffs(Repr::Inline { len, buf })
        } else {
            Coeffs(Repr::Heap(v.into()))
        }
    }
}

impl From<Vec<f64>> for Coeffs {
    fn from(v: Vec<f64>) -> Self {
        if v.len() <= INLINE_DIMS {
            Coeffs::from(v.as_slice())
        } else {
            Coeffs(Repr::Heap(v.into_boxed_slice()))
        }
    }
}

impl PartialEq for Coeffs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Coeffs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<'a> IntoIterator for &'a Coeffs {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both sides of the inline/heap boundary, plus the ledger's and the
    /// high-dimension test's `d`.
    const DIMS: [usize; 5] = [1, 7, 8, 9, 64];

    fn ramp(d: usize) -> Vec<f64> {
        (0..d).map(|i| i as f64 * 0.5 - 1.25).collect()
    }

    #[test]
    fn reads_like_the_vec_it_replaces() {
        for d in DIMS {
            let v = ramp(d);
            let from_vec = Coeffs::from(v.clone());
            let from_slice = Coeffs::from(v.as_slice());
            assert_eq!(
                matches!(from_vec.0, Repr::Inline { .. }),
                d <= INLINE_DIMS,
                "d = {d}"
            );
            for c in [&from_vec, &from_slice] {
                assert_eq!(&**c, v.as_slice(), "d = {d}");
                assert_eq!(c.len(), d);
                assert_eq!(format!("{c:?}"), format!("{v:?}"));
                assert_eq!(format!("{c:#?}"), format!("{v:#?}"));
                assert!(c.iter().eq(v.iter()));
                let mut walked = Vec::new();
                for x in c {
                    walked.push(*x);
                }
                assert_eq!(walked, v);
                assert_eq!(c.clone(), *c);
            }
            assert_eq!(from_vec, from_slice);
        }
    }

    #[test]
    fn equality_is_slice_equality() {
        for d in DIMS {
            let v = ramp(d);
            let mut longer = v.clone();
            longer.push(0.0);
            // A trailing zero is a coordinate, not padding.
            assert_ne!(Coeffs::from(v.clone()), Coeffs::from(longer));
            let mut nudged = v.clone();
            nudged[d - 1] = nudged[d - 1].next_up();
            assert_ne!(Coeffs::from(v.clone()), Coeffs::from(nudged));
            // NaN is unequal to itself, as in a `Vec<f64>`.
            let mut nan = v.clone();
            nan[0] = f64::NAN;
            assert_ne!(Coeffs::from(nan.clone()), Coeffs::from(nan));
            // `-0.0 == 0.0`, as in a `Vec<f64>`.
            let (mut neg, mut pos) = (v.clone(), v);
            (neg[0], pos[0]) = (-0.0, 0.0);
            assert_eq!(Coeffs::from(neg), Coeffs::from(pos));
        }
        assert_eq!(Coeffs::from(Vec::new()), Coeffs::from(&[][..]));
        assert!(Coeffs::from(Vec::new()).is_empty());
    }
}
