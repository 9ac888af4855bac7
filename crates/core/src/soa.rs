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
//! * [`PackedColumns`] — an owned, densely packed copy of a *subset* of
//!   the columns, in index order, plus a frequency column `f` and the
//!   ascending ids that map packed positions back to original element
//!   indices. The Lagrange solver gathers its active set once and then
//!   runs every water-filling pass over contiguous memory.
//!
//! Packing performs the gather exactly once, in fixed chunks on the
//! solver's executor; all later passes are linear sweeps. Iteration
//! order over a packed set is index order, so compensated reductions
//! over packed columns are bit-identical to the historical
//! gather-per-probe loops.

use std::ops::Range;

use crate::exec::{chunk_ranges, Executor, DEFAULT_CHUNK};
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

/// A borrowed view of a [`PackedColumns`]'s read-only columns plus the
/// original element id of each packed position.
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

/// An owned, densely packed structure-of-arrays copy of a subset of a
/// problem's columns, with a mutable frequency column.
///
/// The packed order is index order, so chunked reductions over packed
/// ranges reproduce the accumulation order of an equivalent
/// `for &i in ids` gather loop bit-for-bit.
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
    /// Gather the elements of `problem` that `keep` accepts, in index
    /// order, into contiguous columns. The frequency column starts at
    /// zero. Each column is gathered in fixed chunks of [`DEFAULT_CHUNK`]
    /// on `executor`; the filter runs on the calling thread, which keeps
    /// every allocation there (per-chunk id lists built on the workers
    /// raised a 10⁶-element solve's peak memory by ~5 MB and saved no
    /// measurable time).
    pub fn gather(
        problem: &Problem,
        executor: &Executor,
        keep: impl Fn(usize) -> bool,
    ) -> PackedColumns {
        let ids: Vec<usize> = (0..problem.len()).filter(|&i| keep(i)).collect();
        let chunks = chunk_ranges(ids.len(), DEFAULT_CHUNK);
        let column = |source: &[f64]| {
            let mut column = vec![0.0; ids.len()];
            executor.map_ranges_mut(&chunks, &mut column, |range, out| {
                for (out, &i) in out.iter_mut().zip(&ids[range]) {
                    *out = source[i];
                }
            });
            column
        };
        PackedColumns {
            p: column(problem.access_probs()),
            lambda: column(problem.change_rates()),
            s: column(problem.sizes()),
            c: match problem.poll_costs() {
                Some(costs) => column(costs),
                None => vec![1.0; ids.len()],
            },
            f: vec![0.0; ids.len()],
            ids,
        }
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

    /// Original element index of each packed position, ascending.
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

    /// Borrow the read-only columns together with the mutable frequency
    /// column in one call. Hot loops that refine `f` in place while
    /// reading `p`/`λ`/`s` need all four simultaneously; the split
    /// borrow avoids cloning the read-only columns on every pass.
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
    /// left untouched. The ids ascend, so each fixed chunk of packed
    /// positions writes its own span of `out`, and the chunks run on
    /// `executor`.
    ///
    /// # Panics
    /// Panics when any id is out of bounds for `out`.
    pub fn scatter_f(&self, out: &mut [f64], executor: &Executor) {
        let spans: Vec<Range<usize>> = chunk_ranges(self.len(), DEFAULT_CHUNK)
            .into_iter()
            .map(|range| self.ids[range.start]..self.ids[range.end - 1] + 1)
            .collect();
        executor.map_ranges_mut(&spans, out, |span, out| {
            let start = self.ids.partition_point(|&i| i < span.start);
            let end = start + self.ids[start..].partition_point(|&i| i < span.end);
            for (&i, &f) in self.ids[start..end].iter().zip(&self.f[start..end]) {
                out[i - span.start] = f;
            }
        });
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
    fn gather_packs_kept_elements_in_index_order() {
        let p = toy();
        let packed = PackedColumns::gather(&p, &Executor::serial(), |i| i != 1);
        assert_eq!(packed.len(), 3);
        assert_eq!(packed.ids(), &[0, 2, 3]);
        assert_eq!(packed.p(), &[0.4, 0.2, 0.1]);
        assert_eq!(packed.lambda(), &[1.0, 3.0, 4.0]);
        assert_eq!(packed.s(), &[1.0, 0.5, 4.0]);
        assert_eq!(packed.f(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn scatter_writes_back_through_the_ids() {
        let p = toy();
        let mut packed = PackedColumns::gather(&p, &Executor::serial(), |i| i % 2 == 0);
        packed.f_mut()[0] = 7.0;
        packed.f_mut()[1] = 9.0;
        let mut out = vec![0.0; 4];
        packed.scatter_f(&mut out, &Executor::serial());
        assert_eq!(out, vec![7.0, 0.0, 9.0, 0.0]);
    }

    /// Across several chunks, a pool packs and scatters exactly what the
    /// serial executor does.
    #[test]
    fn pool_gather_and_scatter_match_serial() {
        let n = 3 * DEFAULT_CHUNK + 17;
        let problem = Problem::builder()
            .change_rates((0..n).map(|i| (i % 5) as f64).collect())
            .access_weights((0..n).map(|i| 1.0 / (1 + i) as f64).collect())
            .sizes((0..n).map(|i| 0.5 + (i % 3) as f64).collect())
            .costs((0..n).map(|i| 1.0 + (i % 7) as f64).collect())
            .bandwidth(10.0)
            .build()
            .unwrap();
        let keep = |i: usize| problem.change_rates()[i] > 0.0 && i % 11 != 3;
        let run = |exec: &Executor| {
            let mut packed = PackedColumns::gather(&problem, exec, keep);
            for (k, f) in packed.f_mut().iter_mut().enumerate() {
                *f = k as f64 + 0.5;
            }
            let mut out = vec![-1.0; n];
            packed.scatter_f(&mut out, exec);
            (packed, out)
        };
        let (serial, serial_out) = run(&Executor::serial());
        let expected: Vec<usize> = (0..n).filter(|&i| keep(i)).collect();
        assert_eq!(serial.ids(), &expected[..]);
        for (k, &i) in expected.iter().enumerate() {
            assert_eq!(serial_out[i], k as f64 + 0.5);
            assert_eq!(serial.c()[k], problem.poll_cost(i));
        }
        for workers in [2, 3] {
            let (pooled, pooled_out) = run(&Executor::thread_pool(workers));
            assert_eq!(pooled.ids(), serial.ids());
            assert_eq!(pooled.p(), serial.p());
            assert_eq!(pooled.lambda(), serial.lambda());
            assert_eq!(pooled.s(), serial.s());
            assert_eq!(pooled.c(), serial.c());
            assert_eq!(pooled_out, serial_out, "workers={workers}");
        }
    }

    #[test]
    fn parts_mut_splits_without_copying() {
        let p = toy();
        let mut packed = PackedColumns::gather(&p, &Executor::serial(), |i| i % 2 == 1);
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
        let packed = PackedColumns::gather(&p, &Executor::serial(), |i| i % 2 == 0);
        assert_eq!(packed.c(), &[1.0, 1.0]);
        let costly = Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0, 4.0])
            .access_probs(vec![0.4, 0.3, 0.2, 0.1])
            .costs(vec![5.0, 6.0, 7.0, 8.0])
            .bandwidth(3.0)
            .build()
            .unwrap();
        let packed = PackedColumns::gather(&costly, &Executor::serial(), |i| i != 1);
        assert_eq!(packed.c(), &[5.0, 7.0, 8.0]);
    }

    #[test]
    fn empty_pack_is_fine() {
        let p = toy();
        let packed = PackedColumns::gather(&p, &Executor::thread_pool(2), |_| false);
        assert!(packed.is_empty());
        let mut out = vec![1.0; 4];
        packed.scatter_f(&mut out, &Executor::thread_pool(2));
        assert_eq!(out, vec![1.0; 4]);
    }
}
