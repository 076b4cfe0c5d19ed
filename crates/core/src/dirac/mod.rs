//! Dirac operators and the linear-operator interface used by the solvers.
//!
//! Each operator — [`WilsonDirac`], [`PrecWilson`], [`MobiusDirac`] and
//! [`PrecMobius`] — has one execution path per entry point (`apply`,
//! `apply_dagger`, `apply_block`, `apply_dagger_block`): AoS storage with
//! the diagonal and fifth-dimension algebra folded into the stencil's
//! output write where a fused form exists, and each 4D site's gauge links
//! reused across the whole s-extent. The only tuned knob is the parallel
//! `grain` (see [`crate::tune`]).
//!
//! Every operator also keeps its unfused chain as the inherent
//! `apply_reference`/`apply_dagger_reference` (taking `nrhs`): separate
//! algebra passes around slice-by-slice hops, each intermediate in a fresh
//! vector. They are the oracle the fused paths are pinned against bit for
//! bit (`crates/core/tests/dslash_variants.rs`). Where an operator has no
//! fused blocked form — the 4D Wilson operators and [`PrecMobius`] — its
//! `apply_block`/`apply_dagger_block` run that same chain.

mod hopping;
mod mobius;
mod wilson;

pub(crate) use hopping::SiteLinks;
pub use hopping::{hop_site, hop_site_block, HoppingKernel, HOPPING_FLOPS_PER_SITE};
pub use mobius::{Hop5dBlock, MobiusDirac, MobiusParams, PrecMobius};
pub use wilson::{PrecWilson, WilsonDirac};

use crate::real::Real;
use crate::spinor::Spinor;
use parking_lot::Mutex;

/// A general linear operator on a fermion vector, as seen by Krylov solvers.
pub trait LinearOp<R: Real>: Sync {
    /// Length (in spinors) of vectors this operator acts on.
    fn vec_len(&self) -> usize;
    /// `out = A · inp`.
    fn apply(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]);
    /// Floating-point operations per `apply`, for performance reporting.
    fn flops_per_apply(&self) -> f64 {
        0.0
    }
}

/// A Dirac-type operator: knows its adjoint (via γ5-hermiticity), so the
/// normal equations `D†D x = D†b` can be formed.
pub trait DiracOp<R: Real>: LinearOp<R> {
    /// `out = D† · inp`.
    fn apply_dagger(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]);
}

/// A linear operator with a batched multi-RHS entry point.
///
/// Slices hold `vec_len() * nrhs` spinors interleaved RHS-innermost
/// (`data[i * nrhs + j]`, see [`crate::block::BlockSpinor`]). The contract
/// is *bit-exactness*: column `j` of `apply_block` must equal `apply` on a
/// packed copy of column `j`, to the last bit — the blocked kernels reuse
/// the single-RHS per-site arithmetic and only amortize the gauge-link
/// loads across columns.
pub trait BlockLinearOp<R: Real>: LinearOp<R> {
    /// `out = A · inp` on an interleaved block of `nrhs` right-hand-sides.
    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize);
}

/// A Dirac-type operator with a batched adjoint, so blocked normal
/// equations can be formed.
pub trait BlockDiracOp<R: Real>: BlockLinearOp<R> + DiracOp<R> {
    /// `out = D† · inp` on an interleaved block of `nrhs` right-hand-sides.
    fn apply_dagger_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize);
}

/// `D† D`, the Hermitian positive-definite operator CG actually inverts —
/// "conjugate gradient on the normal equations", the paper's solver for the
/// Möbius domain-wall discretization.
///
/// The intermediate `D·x` lives in one buffer reused across applies (behind
/// a lock so `apply` keeps its `&self` solver interface); `D` overwrites it
/// completely, so reuse cannot change a bit of the result.
pub struct NormalOp<'a, R: Real, D: DiracOp<R>> {
    op: &'a D,
    tmp: Mutex<Vec<Spinor<R>>>,
}

impl<'a, R: Real, D: DiracOp<R>> NormalOp<'a, R, D> {
    /// Wrap a Dirac operator.
    pub fn new(op: &'a D) -> Self {
        Self {
            op,
            tmp: Mutex::new(Vec::new()),
        }
    }

    /// The underlying Dirac operator.
    pub fn inner(&self) -> &D {
        self.op
    }
}

impl<'a, R: Real, D: DiracOp<R>> LinearOp<R> for NormalOp<'a, R, D> {
    fn vec_len(&self) -> usize {
        self.op.vec_len()
    }

    fn apply(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
        let mut tmp = self.tmp.lock();
        tmp.resize(self.op.vec_len(), Spinor::zero());
        self.op.apply(&mut tmp, inp);
        self.op.apply_dagger(out, &tmp);
    }

    fn flops_per_apply(&self) -> f64 {
        2.0 * self.op.flops_per_apply()
    }
}

impl<'a, R: Real, D: BlockDiracOp<R>> BlockLinearOp<R> for NormalOp<'a, R, D> {
    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        let mut tmp = self.tmp.lock();
        tmp.resize(self.op.vec_len() * nrhs, Spinor::zero());
        self.op.apply_block(&mut tmp, inp, nrhs);
        self.op.apply_dagger_block(out, &tmp, nrhs);
    }
}

/// The bit-identity check every operator's tests share.
#[cfg(test)]
pub(crate) mod testing {
    use super::BlockDiracOp;
    use crate::block::BlockSpinor;
    use crate::field::FermionField;
    use crate::spinor::Spinor;

    /// A reference chain `(out, inp, nrhs)`.
    type Chain<'r> = &'r dyn Fn(&mut [Spinor<f64>], &[Spinor<f64>], usize);

    /// Pin the production `D`, `D†` (twice each: the fused paths reuse
    /// their scratch) and the two-column blocked `D`, `D†` (twice: the
    /// scratch regrows) against the single-RHS reference chains, bit for
    /// bit.
    pub(crate) fn assert_matches_reference(
        op: &impl BlockDiracOp<f64>,
        reference: Chain<'_>,
        reference_dagger: Chain<'_>,
        seed: u64,
    ) {
        let n = op.vec_len();
        let cols: Vec<Vec<Spinor<f64>>> = (0..2)
            .map(|j| FermionField::<f64>::gaussian(n, seed + j).data)
            .collect();
        let block = BlockSpinor::from_columns(&cols);
        let single = |chain: Chain<'_>, col: &[Spinor<f64>]| {
            let mut out = vec![Spinor::zero(); n];
            chain(&mut out, col, 1);
            out
        };
        let want: Vec<_> = cols.iter().map(|c| single(reference, c)).collect();
        let want_dag: Vec<_> = cols.iter().map(|c| single(reference_dagger, c)).collect();
        for round in 0..2 {
            let mut out = vec![Spinor::zero(); n];
            op.apply(&mut out, &cols[0]);
            assert_eq!(out, want[0], "D, round {round}");
            op.apply_dagger(&mut out, &cols[0]);
            assert_eq!(out, want_dag[0], "D†, round {round}");
            let mut out = BlockSpinor::zeros(n, 2);
            op.apply_block(out.data_mut(), block.data(), 2);
            assert_eq!(
                vec![out.col(0), out.col(1)],
                want,
                "blocked D, round {round}"
            );
            op.apply_dagger_block(out.data_mut(), block.data(), 2);
            let got = vec![out.col(0), out.col(1)];
            assert_eq!(got, want_dag, "blocked D†, round {round}");
        }
    }
}
