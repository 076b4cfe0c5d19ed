//! Runtime dispatch of the AVX2-compiled kernel twins.
//!
//! The hot loops — the fused dslash chunk bodies in
//! [`crate::dirac::HoppingKernel`], the fifth-dimension column sweeps of the
//! Möbius operators and the BLAS update loops — are written once, as plain
//! `#[inline(always)]` scalar code over AoS spinors that rustc
//! autovectorizes at the baseline ISA (128-bit on `x86_64`). The `arch-simd`
//! cargo feature additionally compiles each of those bodies a second time
//! under `#[target_feature(enable = "avx2")]`; the callers pick the twin
//! after [`avx2_detected`] confirms CPU support.
//!
//! Determinism contract: both compilations execute the same elementwise
//! IEEE add/sub/mul sequence (rustc never contracts mul+add to FMA), so the
//! feature gate changes codegen width and never a bit of any result.

/// Whether the AVX2-compiled kernel twins should run: requires the
/// `arch-simd` feature, an `x86_64` target, and runtime CPU support.
#[inline]
pub fn avx2_detected() -> bool {
    #[cfg(all(feature = "arch-simd", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(feature = "arch-simd", target_arch = "x86_64")))]
    {
        false
    }
}
