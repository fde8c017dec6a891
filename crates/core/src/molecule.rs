//! The formal Molecule model: vectors in ℕⁿ with lattice structure.
//!
//! Section 3.1 of the paper defines the data structure `(ℕⁿ, ∪, ∩, ≤)`:
//! a *Molecule* `m = (m₁, …, mₙ)` records how many instances of each Atom
//! kind are required to implement it. The operators are
//!
//! * `m ∪ o` — element-wise maximum: the *Meta-Molecule* containing the
//!   Atoms required to implement both `m` and `o` (not necessarily
//!   concurrently);
//! * `m ∩ o` — element-wise minimum: the Atoms collectively needed by both;
//! * `m ≤ o` — element-wise comparison (partial order);
//! * `sup M` / `inf M` — supremum/infimum of a set of Molecules;
//! * `|m|` (the *determinant*) — the total number of Atom instances, Σᵢ mᵢ;
//! * `o ⊖ m` ([`Molecule::additional_atoms`]) — the minimum set of Atoms
//!   that still have to be made available to implement `o` when the Atoms
//!   of `m` are already loaded.
//!
//! `(ℕⁿ, ∪)` is an Abelian semigroup with neutral element `(0, …, 0)` and
//! `(ℕⁿ, ≤)` is a complete lattice; the property tests in this crate check
//! these laws.
//!
//! Molecules sit on the run-time system's hottest path (every forecast
//! event recomputes a selection over them), so the count vector is stored
//! inline for platform widths up to [`Molecule::INLINE_WIDTH`] — the
//! common case by far; the paper's H.264 platform has 4 Atom kinds — and
//! only spills to the heap beyond that. All lattice ops additionally have
//! in-place/counting variants ([`Molecule::union_in_place`],
//! [`Molecule::union_determinant`]) so hot loops can avoid building
//! intermediate vectors altogether.

use std::fmt;
use std::ops::{BitAnd, BitOr, Index};

use crate::atom::AtomKind;
use crate::error::WidthMismatchError;

/// Inline-stored count vector for widths up to
/// [`Molecule::INLINE_WIDTH`]; heap-backed beyond that.
#[derive(Clone)]
enum Counts {
    Inline { len: u8, buf: [u32; 8] },
    Heap(Vec<u32>),
}

impl Counts {
    fn as_slice(&self) -> &[u32] {
        match self {
            Counts::Inline { len, buf } => &buf[..*len as usize],
            Counts::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u32] {
        match self {
            Counts::Inline { len, buf } => &mut buf[..*len as usize],
            Counts::Heap(v) => v,
        }
    }
}

/// An element of ℕⁿ: the per-Atom-kind instance requirements of a Molecule
/// (or Meta-Molecule).
///
/// The width `n` is dynamic and fixed per platform by the
/// [`AtomSet`](crate::atom::AtomSet). All binary operations require equal
/// widths; the checked variants return [`WidthMismatchError`], the operator
/// sugar (`|`, `&`) panics.
///
/// # Examples
///
/// ```
/// use rispp_core::molecule::Molecule;
///
/// let m = Molecule::from_counts([1, 0, 2]);
/// let o = Molecule::from_counts([0, 3, 1]);
/// let sup = m.clone() | o.clone();
/// assert_eq!(sup, Molecule::from_counts([1, 3, 2]));
/// assert_eq!(m.determinant(), 3);
/// assert!(m <= sup);
/// ```
#[derive(Clone)]
pub struct Molecule {
    counts: Counts,
}

impl Molecule {
    /// Widths up to this many Atom kinds are stored inline (no heap
    /// allocation anywhere in the lattice ops); wider platforms spill to
    /// a heap vector transparently.
    pub const INLINE_WIDTH: usize = 8;

    /// The neutral element `(0, …, 0)` of width `n`.
    #[must_use]
    pub fn zero(n: usize) -> Self {
        if n <= Self::INLINE_WIDTH {
            Molecule {
                counts: Counts::Inline {
                    len: n as u8,
                    buf: [0; 8],
                },
            }
        } else {
            Molecule {
                counts: Counts::Heap(vec![0; n]),
            }
        }
    }

    /// Builds a Molecule from explicit per-kind counts.
    #[must_use]
    pub fn from_counts<I>(counts: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        let mut iter = counts.into_iter();
        let mut buf = [0u32; 8];
        let mut len = 0usize;
        for c in iter.by_ref() {
            if len < Self::INLINE_WIDTH {
                buf[len] = c;
                len += 1;
            } else {
                // Width exceeds the inline capacity: spill to the heap.
                let mut v = Vec::with_capacity(Self::INLINE_WIDTH * 2);
                v.extend_from_slice(&buf);
                v.push(c);
                v.extend(iter);
                return Molecule {
                    counts: Counts::Heap(v),
                };
            }
        }
        Molecule {
            counts: Counts::Inline {
                len: len as u8,
                buf,
            },
        }
    }

    /// Builds a Molecule of width `n` from sparse `(kind, count)` pairs.
    ///
    /// Pairs with the same kind accumulate.
    ///
    /// # Panics
    ///
    /// Panics if any kind index is `>= n`.
    #[must_use]
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (AtomKind, u32)>,
    {
        let mut m = Molecule::zero(n);
        let counts = m.counts.as_mut_slice();
        for (kind, count) in pairs {
            counts[kind.index()] += count;
        }
        m
    }

    /// Width `n` of the vector (number of Atom kinds on the platform).
    #[must_use]
    pub fn width(&self) -> usize {
        self.as_slice().len()
    }

    /// The determinant `|m| = Σᵢ mᵢ`: total Atom instances required.
    #[must_use]
    pub fn determinant(&self) -> u32 {
        self.as_slice().iter().sum()
    }

    /// Returns `true` if this is the neutral element (no Atoms required).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.as_slice().iter().all(|&c| c == 0)
    }

    /// Count of instances required for one Atom kind.
    ///
    /// Returns 0 for kinds beyond the width (a narrower vector is implicitly
    /// zero-extended, which matches the formal model where all vectors share
    /// the platform width).
    #[must_use]
    pub fn count(&self, kind: AtomKind) -> u32 {
        self.as_slice().get(kind.index()).copied().unwrap_or(0)
    }

    /// Mutates the count of one Atom kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is out of range.
    pub fn set_count(&mut self, kind: AtomKind, count: u32) {
        self.counts.as_mut_slice()[kind.index()] = count;
    }

    /// Iterates over `(kind, count)` for all kinds, including zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (AtomKind, u32)> + '_ {
        self.as_slice()
            .iter()
            .enumerate()
            .map(|(i, &c)| (AtomKind(i), c))
    }

    /// Iterates over `(kind, count)` for kinds with non-zero counts.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (AtomKind, u32)> + '_ {
        self.iter().filter(|&(_, c)| c > 0)
    }

    /// The raw count slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        self.counts.as_slice()
    }

    /// The raw count slice, mutably (in-place kernels within the crate).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u32] {
        self.counts.as_mut_slice()
    }

    /// Checked `∪` (element-wise max): the Meta-Molecule able to host both
    /// operands.
    ///
    /// # Errors
    ///
    /// Returns [`WidthMismatchError`] when the widths differ.
    pub fn try_union(&self, other: &Molecule) -> Result<Molecule, WidthMismatchError> {
        let mut out = self.clone();
        out.union_in_place(other)?;
        Ok(out)
    }

    /// In-place `∪`: `self ← self ∪ other`, without building a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`WidthMismatchError`] when the widths differ (leaving
    /// `self` unchanged).
    pub fn union_in_place(&mut self, other: &Molecule) -> Result<(), WidthMismatchError> {
        self.check_width(other)?;
        for (a, &b) in self.counts.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a = (*a).max(b);
        }
        Ok(())
    }

    /// The determinant `|self ∪ other|` without materialising the union —
    /// what a greedy selection loop needs to price a candidate upgrade.
    ///
    /// # Errors
    ///
    /// Returns [`WidthMismatchError`] when the widths differ.
    pub fn union_determinant(&self, other: &Molecule) -> Result<u32, WidthMismatchError> {
        self.check_width(other)?;
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a.max(b))
            .sum())
    }

    /// Checked `∩` (element-wise min): Atoms collectively required by both.
    ///
    /// # Errors
    ///
    /// Returns [`WidthMismatchError`] when the widths differ.
    pub fn try_intersection(&self, other: &Molecule) -> Result<Molecule, WidthMismatchError> {
        let mut out = self.clone();
        out.intersection_in_place(other)?;
        Ok(out)
    }

    /// In-place `∩`: `self ← self ∩ other`.
    ///
    /// # Errors
    ///
    /// Returns [`WidthMismatchError`] when the widths differ (leaving
    /// `self` unchanged).
    pub fn intersection_in_place(&mut self, other: &Molecule) -> Result<(), WidthMismatchError> {
        self.check_width(other)?;
        for (a, &b) in self.counts.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a = (*a).min(b);
        }
        Ok(())
    }

    /// The paper's `⊖` operator: the minimum Meta-Molecule that still has to
    /// be offered so that `goal` becomes implementable, assuming the Atoms
    /// of `self` are already available.
    ///
    /// `pᵢ = max(goalᵢ − selfᵢ, 0)` — i.e. saturating subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`WidthMismatchError`] when the widths differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use rispp_core::molecule::Molecule;
    ///
    /// let loaded = Molecule::from_counts([2, 1, 0]);
    /// let goal = Molecule::from_counts([1, 3, 2]);
    /// let missing = loaded.additional_atoms(&goal)?;
    /// assert_eq!(missing, Molecule::from_counts([0, 2, 2]));
    /// # Ok::<(), rispp_core::error::WidthMismatchError>(())
    /// ```
    pub fn additional_atoms(&self, goal: &Molecule) -> Result<Molecule, WidthMismatchError> {
        self.check_width(goal)?;
        let mut out = goal.clone();
        for (g, &have) in out.counts.as_mut_slice().iter_mut().zip(self.as_slice()) {
            *g = g.saturating_sub(have);
        }
        Ok(out)
    }

    /// Partial-order test `self ≤ other` (per-element).
    ///
    /// Unlike [`PartialOrd`], this never mixes widths silently: differing
    /// widths compare as *incomparable* (`false` both ways).
    #[must_use]
    pub fn le(&self, other: &Molecule) -> bool {
        self.width() == other.width()
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(&a, &b)| a <= b)
    }

    /// Supremum of a set of Molecules: `sup M = ∪_{m ∈ M} m`.
    ///
    /// `sup ∅` is the neutral element of width `n`. The supremum declares
    /// every Atom needed to implement *any* Molecule of `M`.
    ///
    /// # Errors
    ///
    /// Returns [`WidthMismatchError`] if members have differing widths.
    pub fn supremum<'a, I>(n: usize, molecules: I) -> Result<Molecule, WidthMismatchError>
    where
        I: IntoIterator<Item = &'a Molecule>,
    {
        let mut acc = Molecule::zero(n);
        for m in molecules {
            acc.union_in_place(m)?;
        }
        Ok(acc)
    }

    /// Infimum of a non-empty set of Molecules: `inf M = ∩_{m ∈ M} m`.
    ///
    /// The infimum contains the Atoms collectively needed by *all* Molecules
    /// of `M`. Returns `None` for an empty iterator (the lattice-theoretic
    /// `inf ∅` would be the top element, which does not exist in ℕⁿ with
    /// finite counts).
    ///
    /// # Errors
    ///
    /// Returns [`WidthMismatchError`] if members have differing widths.
    pub fn infimum<'a, I>(molecules: I) -> Result<Option<Molecule>, WidthMismatchError>
    where
        I: IntoIterator<Item = &'a Molecule>,
    {
        let mut iter = molecules.into_iter();
        let Some(first) = iter.next() else {
            return Ok(None);
        };
        let mut acc = first.clone();
        for m in iter {
            acc.intersection_in_place(m)?;
        }
        Ok(Some(acc))
    }

    fn check_width(&self, other: &Molecule) -> Result<(), WidthMismatchError> {
        if self.width() == other.width() {
            Ok(())
        } else {
            Err(WidthMismatchError {
                left: self.width(),
                right: other.width(),
            })
        }
    }
}

impl Default for Molecule {
    fn default() -> Self {
        Molecule::zero(0)
    }
}

/// Equality is over the logical count vector, regardless of storage
/// (inline vs heap) — the two representations never coexist for one
/// width, but the invariant belongs here, not in the callers.
impl PartialEq for Molecule {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Molecule {}

impl std::hash::Hash for Molecule {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Molecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Molecule")
            .field("counts", &self.as_slice())
            .finish()
    }
}

impl PartialOrd for Molecule {
    /// The lattice partial order: `Some(_)` only when the vectors are
    /// comparable element-wise and of equal width.
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        if self.width() != other.width() {
            return None;
        }
        let le = self.le(other);
        let ge = other.le(self);
        match (le, ge) {
            (true, true) => Some(std::cmp::Ordering::Equal),
            (true, false) => Some(std::cmp::Ordering::Less),
            (false, true) => Some(std::cmp::Ordering::Greater),
            (false, false) => None,
        }
    }
}

/// `m | o` is the paper's `m ∪ o` (element-wise max).
///
/// # Panics
///
/// Panics on width mismatch; use [`Molecule::try_union`] to handle that case.
impl BitOr for Molecule {
    type Output = Molecule;

    fn bitor(self, rhs: Molecule) -> Molecule {
        self.try_union(&rhs).expect("molecule width mismatch in ∪")
    }
}

impl BitOr for &Molecule {
    type Output = Molecule;

    fn bitor(self, rhs: &Molecule) -> Molecule {
        self.try_union(rhs).expect("molecule width mismatch in ∪")
    }
}

/// `m & o` is the paper's `m ∩ o` (element-wise min).
///
/// # Panics
///
/// Panics on width mismatch; use [`Molecule::try_intersection`] instead.
impl BitAnd for Molecule {
    type Output = Molecule;

    fn bitand(self, rhs: Molecule) -> Molecule {
        self.try_intersection(&rhs)
            .expect("molecule width mismatch in ∩")
    }
}

impl BitAnd for &Molecule {
    type Output = Molecule;

    fn bitand(self, rhs: &Molecule) -> Molecule {
        self.try_intersection(rhs)
            .expect("molecule width mismatch in ∩")
    }
}

impl Index<AtomKind> for Molecule {
    type Output = u32;

    fn index(&self, kind: AtomKind) -> &u32 {
        &self.as_slice()[kind.index()]
    }
}

impl fmt::Display for Molecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<u32> for Molecule {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Molecule::from_counts(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: impl IntoIterator<Item = u32>) -> Molecule {
        Molecule::from_counts(v)
    }

    #[test]
    fn union_is_elementwise_max() {
        assert_eq!(m([1, 4, 0]) | m([3, 2, 0]), m([3, 4, 0]));
    }

    #[test]
    fn intersection_is_elementwise_min() {
        assert_eq!(m([1, 4, 0]) & m([3, 2, 0]), m([1, 2, 0]));
    }

    #[test]
    fn zero_is_neutral_for_union() {
        let a = m([5, 0, 7]);
        assert_eq!(a.clone() | Molecule::zero(3), a);
    }

    #[test]
    fn additional_atoms_saturates() {
        let have = m([2, 1, 0]);
        let goal = m([1, 3, 2]);
        assert_eq!(have.additional_atoms(&goal).unwrap(), m([0, 2, 2]));
    }

    #[test]
    fn additional_atoms_zero_when_already_loaded() {
        let have = m([2, 3, 1]);
        let goal = m([1, 3, 0]);
        assert!(have.additional_atoms(&goal).unwrap().is_zero());
    }

    #[test]
    fn supremum_over_set() {
        let set = [m([1, 0]), m([0, 2]), m([1, 1])];
        assert_eq!(Molecule::supremum(2, &set).unwrap(), m([1, 2]));
        assert_eq!(Molecule::supremum(2, []).unwrap(), Molecule::zero(2));
    }

    #[test]
    fn infimum_over_set() {
        let set = [m([1, 3]), m([2, 2]), m([1, 1])];
        assert_eq!(Molecule::infimum(&set).unwrap(), Some(m([1, 1])));
        assert_eq!(Molecule::infimum([]).unwrap(), None);
    }

    #[test]
    fn partial_order_detects_incomparable() {
        let a = m([1, 0]);
        let b = m([0, 1]);
        assert_eq!(a.partial_cmp(&b), None);
        assert!(a.le(&(a.clone() | b.clone())));
        assert!(b.le(&(&a | &b)));
    }

    #[test]
    fn width_mismatch_is_error() {
        assert!(m([1]).try_union(&m([1, 2])).is_err());
        assert!(m([1]).try_intersection(&m([1, 2])).is_err());
        assert!(m([1]).additional_atoms(&m([1, 2])).is_err());
        assert!(m([1]).union_determinant(&m([1, 2])).is_err());
        assert!(!m([1]).le(&m([1, 2])));
        assert_eq!(m([1]).partial_cmp(&m([1, 2])), None);
    }

    #[test]
    fn determinant_sums_counts() {
        assert_eq!(m([1, 2, 3]).determinant(), 6);
        assert_eq!(Molecule::zero(4).determinant(), 0);
    }

    #[test]
    fn from_pairs_accumulates() {
        let mol = Molecule::from_pairs(3, [(AtomKind(0), 1), (AtomKind(0), 2), (AtomKind(2), 1)]);
        assert_eq!(mol, m([3, 0, 1]));
    }

    #[test]
    fn display_formats_vector() {
        assert_eq!(m([1, 0, 4]).to_string(), "(1,0,4)");
    }

    #[test]
    fn index_by_kind() {
        let mol = m([7, 8]);
        assert_eq!(mol[AtomKind(1)], 8);
        assert_eq!(mol.count(AtomKind(9)), 0);
    }

    #[test]
    fn union_determinant_matches_materialised_union() {
        let a = m([1, 4, 0, 2]);
        let b = m([3, 2, 5, 0]);
        assert_eq!(a.union_determinant(&b).unwrap(), (&a | &b).determinant(),);
    }

    #[test]
    fn in_place_ops_match_value_ops() {
        let a = m([1, 4, 0]);
        let b = m([3, 2, 7]);
        let mut u = a.clone();
        u.union_in_place(&b).unwrap();
        assert_eq!(u, &a | &b);
        let mut i = a.clone();
        i.intersection_in_place(&b).unwrap();
        assert_eq!(i, &a & &b);
        // A failed in-place op leaves the receiver untouched.
        let mut untouched = a.clone();
        assert!(untouched.union_in_place(&m([1])).is_err());
        assert_eq!(untouched, a);
    }

    #[test]
    fn wide_vectors_spill_to_heap_with_identical_semantics() {
        // Width 12 exceeds INLINE_WIDTH: everything must still hold.
        let a = m((0..12).map(|i| i % 5));
        let b = m((0..12).map(|i| (11 - i) % 4));
        assert_eq!(a.width(), 12);
        let sup = &a | &b;
        for k in 0..12 {
            assert_eq!(sup.as_slice()[k], a.as_slice()[k].max(b.as_slice()[k]));
        }
        assert_eq!(a.union_determinant(&b).unwrap(), sup.determinant());
        assert!(a.le(&sup) && b.le(&sup));
        assert_eq!(
            a.additional_atoms(&sup).unwrap().determinant(),
            sup.determinant() - a.determinant()
        );
        // Inline and heap-backed vectors of different widths stay
        // incomparable, like any width mismatch.
        assert!(!m([1, 2]).le(&a));
        // Equality and hashing see through the representation.
        assert_eq!(m((0..12).map(|i| i % 5)), a);
        assert_eq!(Molecule::zero(12), m([0; 12]));
    }

    #[test]
    fn exactly_inline_width_stays_comparable() {
        let a = m([1; 8]);
        let b = m([2; 8]);
        assert!(a.le(&b));
        assert_eq!(a.union_determinant(&b).unwrap(), 16);
        assert_eq!(Molecule::zero(8).width(), 8);
    }
}
