//! Dirac operators and the linear-operator interface used by the solvers.

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

/// Execution strategy of a Dirac operator's `apply` — the axis the
/// layout-aware autotuner sweeps (see [`crate::tune::tune_dslash_variant`]).
///
/// Every variant is deterministic, width-invariant, and **bit-identical** to
/// every other variant of the same operator: the fused paths fold algebra
/// passes into the stencil's output write without reassociating any
/// per-element operation chain, and the SoA path evaluates the identical
/// scalar chains lane-parallel (see [`crate::simd`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DslashVariant {
    /// Reference path: slice-by-slice hops with separate algebra passes over
    /// AoS storage.
    AosScalar,
    /// AoS storage with the diagonal/5th-dimension algebra fused into the
    /// hop's output write and gauge links reused across the whole s-extent.
    AosFused,
    /// Blocked SoA storage with lane-vectorized complex arithmetic
    /// (full-volume 4D operators; requires the x-extent to be a multiple of
    /// [`crate::simd::LANES`]).
    Soa,
}

impl DslashVariant {
    /// Stable short name used in tune keys and bench output.
    pub fn name(self) -> &'static str {
        match self {
            DslashVariant::AosScalar => "aos",
            DslashVariant::AosFused => "aos_fused",
            DslashVariant::Soa => "soa",
        }
    }
}

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
