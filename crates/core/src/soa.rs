//! Structure-of-arrays problem views for the solve→dispatch hot path.
//!
//! [`Problem`] already stores its data column-wise, but every hot loop in
//! the workspace used to walk it through an index indirection
//! (`active[j]` gathers inside each solver pass) or through the
//! [`Element`](crate::problem::Element) AoS view. At `N = 10⁷` those
//! gathers dominate: each solver pass touches three `f64`
//! columns through a permutation, so the prefetcher sees random access.
//!
//! This module packages the two layouts the hot paths actually want:
//!
//! * [`ProblemColumns`] — a free, borrowed view of the problem's full
//!   `p`/`λ`/`s` columns, for loops that iterate every element in index
//!   order (simulation scoring, dispatch planning);
//! * [`PackedColumns`] — an owned, densely packed copy of a *subset* (or
//!   permutation) of the columns plus a frequency column `f` and the
//!   stable id permutation that maps packed positions back to original
//!   element indices. The Lagrange solver gathers its active set once
//!   and then runs every water-filling pass over contiguous memory.
//!
//! Packing performs the gather exactly once; all later passes are linear
//! sweeps. Iteration order over a packed set equals the order of the ids
//! it was gathered with, so compensated reductions over packed columns
//! are bit-identical to the historical gather-per-probe loops.

use crate::problem::Problem;

/// A borrowed, zero-cost structure-of-arrays view of a problem's columns.
///
/// All three slices share the problem's element indexing and length.
#[derive(Debug, Clone, Copy)]
pub struct ProblemColumns<'a> {
    /// Access probabilities `pᵢ`.
    pub p: &'a [f64],
    /// Change rates `λᵢ`.
    pub lambda: &'a [f64],
    /// Object sizes `sᵢ`.
    pub s: &'a [f64],
}

impl<'a> ProblemColumns<'a> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }
}

/// A borrowed slice of a [`PackedColumns`]: contiguous sub-columns plus
/// the original element ids for each packed position.
#[derive(Debug, Clone, Copy)]
pub struct ColumnsRef<'a> {
    /// Original element index of each packed position.
    pub ids: &'a [usize],
    /// Access probabilities, packed.
    pub p: &'a [f64],
    /// Change rates, packed.
    pub lambda: &'a [f64],
    /// Sizes, packed.
    pub s: &'a [f64],
    /// Per-poll costs, packed (all 1.0 for cost-blind problems).
    pub c: &'a [f64],
}

impl<'a> ColumnsRef<'a> {
    /// Number of packed elements in this slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// An owned, densely packed structure-of-arrays copy of a subset (or
/// permutation) of a problem's columns, with a mutable frequency column.
///
/// The packed order is exactly the order of the `ids` used to gather, so
/// chunked reductions over packed ranges reproduce the accumulation
/// order of an equivalent `for &i in ids` gather loop bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct PackedColumns {
    ids: Vec<usize>,
    p: Vec<f64>,
    lambda: Vec<f64>,
    s: Vec<f64>,
    c: Vec<f64>,
    f: Vec<f64>,
}

impl PackedColumns {
    /// Gather `ids` out of `problem` into contiguous columns. The
    /// frequency column starts at zero.
    ///
    /// # Panics
    /// Panics when any id is out of bounds.
    pub fn gather(problem: &Problem, ids: &[usize]) -> PackedColumns {
        let (p, lam, s) = (
            problem.access_probs(),
            problem.change_rates(),
            problem.sizes(),
        );
        let c = match problem.poll_costs() {
            Some(costs) => ids.iter().map(|&i| costs[i]).collect(),
            None => vec![1.0; ids.len()],
        };
        PackedColumns {
            ids: ids.to_vec(),
            p: ids.iter().map(|&i| p[i]).collect(),
            lambda: ids.iter().map(|&i| lam[i]).collect(),
            s: ids.iter().map(|&i| s[i]).collect(),
            c,
            f: vec![0.0; ids.len()],
        }
    }

    /// Gather `ids` out of `problem`, seeding the frequency column from a
    /// full-length `seed` vector (`f[k] = seed[ids[k]]`) — the warm-start
    /// layout incremental repair begins from.
    ///
    /// # Panics
    /// Panics when any id is out of bounds for `problem` or `seed`.
    pub fn gather_seeded(problem: &Problem, ids: &[usize], seed: &[f64]) -> PackedColumns {
        let mut packed = Self::gather(problem, ids);
        for (f, &i) in packed.f.iter_mut().zip(ids) {
            *f = seed[i];
        }
        packed
    }

    /// Number of packed elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing was packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Original element index of each packed position (the stable sort /
    /// gather permutation).
    #[inline]
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Packed access probabilities.
    #[inline]
    pub fn p(&self) -> &[f64] {
        &self.p
    }

    /// Packed change rates.
    #[inline]
    pub fn lambda(&self) -> &[f64] {
        &self.lambda
    }

    /// Packed sizes.
    #[inline]
    pub fn s(&self) -> &[f64] {
        &self.s
    }

    /// Packed per-poll costs (all 1.0 for cost-blind problems).
    #[inline]
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// Packed frequency column.
    #[inline]
    pub fn f(&self) -> &[f64] {
        &self.f
    }

    /// Mutable packed frequency column.
    #[inline]
    pub fn f_mut(&mut self) -> &mut [f64] {
        &mut self.f
    }

    /// Exchange the frequency column with `other`, an equally long
    /// buffer: O(1), so a caller can park one pass's allocation and let
    /// the next pass overwrite the old buffer.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn swap_f(&mut self, other: &mut Vec<f64>) {
        assert_eq!(other.len(), self.f.len(), "swapped frequency column length");
        std::mem::swap(&mut self.f, other);
    }

    /// Borrow a contiguous sub-slice of the packed columns (without the
    /// frequency column, which callers usually need mutably).
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> ColumnsRef<'_> {
        ColumnsRef {
            ids: &self.ids[range.clone()],
            p: &self.p[range.clone()],
            lambda: &self.lambda[range.clone()],
            s: &self.s[range.clone()],
            c: &self.c[range],
        }
    }

    /// Borrow the read-only columns together with the mutable frequency
    /// column in one call. Hot loops that refine `f` in place while
    /// reading `p`/`λ`/`s` need all four simultaneously; the split
    /// borrow avoids cloning three `f64` columns per pass (1.9 GB of
    /// copies over a typical repair at `N = 10⁷`).
    pub fn parts_mut(&mut self) -> (ColumnsRef<'_>, &mut [f64]) {
        (
            ColumnsRef {
                ids: &self.ids,
                p: &self.p,
                lambda: &self.lambda,
                s: &self.s,
                c: &self.c,
            },
            &mut self.f,
        )
    }

    /// Scatter the packed frequency column back into a full-length
    /// vector: `out[ids[k]] = f[k]`. Positions not covered by `ids` are
    /// left untouched.
    ///
    /// # Panics
    /// Panics when any id is out of bounds for `out`.
    pub fn scatter_f(&self, out: &mut [f64]) {
        for (&i, &f) in self.ids.iter().zip(&self.f) {
            out[i] = f;
        }
    }
}

impl Problem {
    /// Borrow the problem's columns as a structure-of-arrays view. Free:
    /// the problem already stores its data column-wise.
    #[inline]
    pub fn columns(&self) -> ProblemColumns<'_> {
        ProblemColumns {
            p: self.access_probs(),
            lambda: self.change_rates(),
            s: self.sizes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Problem {
        Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0, 4.0])
            .access_probs(vec![0.4, 0.3, 0.2, 0.1])
            .sizes(vec![1.0, 2.0, 0.5, 4.0])
            .bandwidth(3.0)
            .build()
            .unwrap()
    }

    #[test]
    fn columns_view_mirrors_problem() {
        let p = toy();
        let cols = p.columns();
        assert_eq!(cols.len(), 4);
        assert!(!cols.is_empty());
        assert_eq!(cols.p, p.access_probs());
        assert_eq!(cols.lambda, p.change_rates());
        assert_eq!(cols.s, p.sizes());
    }

    #[test]
    fn gather_packs_in_id_order() {
        let p = toy();
        let packed = PackedColumns::gather(&p, &[2, 0, 3]);
        assert_eq!(packed.len(), 3);
        assert_eq!(packed.ids(), &[2, 0, 3]);
        assert_eq!(packed.p(), &[0.2, 0.4, 0.1]);
        assert_eq!(packed.lambda(), &[3.0, 1.0, 4.0]);
        assert_eq!(packed.s(), &[0.5, 1.0, 4.0]);
        assert_eq!(packed.f(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn gather_seeded_pulls_previous_frequencies() {
        let p = toy();
        let seed = [10.0, 20.0, 30.0, 40.0];
        let packed = PackedColumns::gather_seeded(&p, &[3, 1], &seed);
        assert_eq!(packed.f(), &[40.0, 20.0]);
    }

    #[test]
    fn slice_is_a_true_subslice() {
        let p = toy();
        let packed = PackedColumns::gather(&p, &[0, 1, 2, 3]);
        let sub = packed.slice(1..3);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.ids, &[1, 2]);
        assert_eq!(sub.p, &packed.p()[1..3]);
        // Pointer identity: the slice borrows, never copies.
        assert!(std::ptr::eq(sub.p.as_ptr(), packed.p()[1..3].as_ptr()));
    }

    #[test]
    fn scatter_writes_back_through_the_permutation() {
        let p = toy();
        let mut packed = PackedColumns::gather(&p, &[2, 0]);
        packed.f_mut()[0] = 7.0;
        packed.f_mut()[1] = 9.0;
        let mut out = vec![0.0; 4];
        packed.scatter_f(&mut out);
        assert_eq!(out, vec![9.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn parts_mut_splits_without_copying() {
        let p = toy();
        let mut packed = PackedColumns::gather(&p, &[1, 3]);
        let p_ptr = packed.p().as_ptr();
        let (ro, f) = packed.parts_mut();
        assert_eq!(ro.ids, &[1, 3]);
        assert!(std::ptr::eq(ro.p.as_ptr(), p_ptr));
        f[0] = 5.0;
        assert_eq!(packed.f(), &[5.0, 0.0]);
    }

    #[test]
    fn gather_packs_costs_defaulting_to_one() {
        let p = toy();
        let packed = PackedColumns::gather(&p, &[2, 0]);
        assert_eq!(packed.c(), &[1.0, 1.0]);
        let costly = Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0, 4.0])
            .access_probs(vec![0.4, 0.3, 0.2, 0.1])
            .costs(vec![5.0, 6.0, 7.0, 8.0])
            .bandwidth(3.0)
            .build()
            .unwrap();
        let packed = PackedColumns::gather(&costly, &[2, 0, 3]);
        assert_eq!(packed.c(), &[7.0, 5.0, 8.0]);
        assert_eq!(packed.slice(1..3).c, &[5.0, 8.0]);
    }

    #[test]
    fn empty_pack_is_fine() {
        let p = toy();
        let packed = PackedColumns::gather(&p, &[]);
        assert!(packed.is_empty());
        let mut out = vec![1.0; 4];
        packed.scatter_f(&mut out);
        assert_eq!(out, vec![1.0; 4]);
    }
}
