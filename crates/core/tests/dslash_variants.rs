//! Cross-cutting determinism suite for the Dirac operators' fused paths.
//!
//! Pins a committed golden digest for every (operator × precision ×
//! reconstruction) combination, once for the unfused reference chain
//! (`apply_reference`/`apply_dagger_reference`, golden key suffix `_aos`)
//! and once for the production path (`apply`/`apply_dagger`, suffix
//! `_aos_fused`), and asserts end to end:
//!
//! - the production path is **bit-identical** to the reference — for `D`,
//!   for the adjoint `D†`, and for the normal operator `D†D` the solvers
//!   invert — so the fused path shares the reference's golden,
//! - results are bit-identical at pool widths 1 and 4 (1, 2 and 4 on the
//!   Feynman–Hellmann lattice, where the fused passes split into many
//!   chunks),
//! - the sharded halo-exchange kernel reproduces the dense hop to the bit
//!   under multiple comm policies,
//! - the 12-real / 8-real reconstructed operators track full storage to
//!   tight tolerance (they trade exactness for bandwidth, so they pin their
//!   own goldens rather than sharing the full-storage one).
//!
//! Regenerate the goldens after an *intentional* numerical change with:
//! `UPDATE_GOLDENS=1 cargo test -p lqcd-core --test dslash_variants`
//! (the digests must not depend on cargo features: `arch-simd` only widens
//! codegen, never changes results — CI runs this suite both ways).

use lqcd_core::comms::{policy_from_index, ShardedField, ShardedHopping};
use lqcd_core::dirac::LinearOp;
use lqcd_core::prelude::*;
use lqcd_core::{comms::DomainDecomposition, dirac::HoppingKernel};
use std::collections::BTreeMap;
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/dslash_variants.json"
);

fn fnv1a(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Order-dependent FNV-1a over the exact bit patterns (f32 components are
/// widened to f64 first — a lossless, deterministic embedding).
fn digest<R: Real>(v: &[Spinor<R>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for sp in v {
        for row in &sp.s {
            for z in &row.c {
                h = fnv1a(h, z.re.to_f64().to_bits());
                h = fnv1a(h, z.im.to_f64().to_bits());
            }
        }
    }
    h
}

fn with_width<T: Send>(w: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("test pool")
        .install(f)
}

/// One application an operator is digested under.
#[derive(Clone, Copy)]
enum Form {
    /// `D`, golden key `{case}_{path}`.
    Apply,
    /// `D†`, golden key `{case}_dagger_{path}`.
    Dagger,
    /// `D†D`, golden key `{case}_normal_{path}`.
    Normal,
}

impl Form {
    fn key(self, case: &str, path: &str) -> String {
        match self {
            Form::Apply => format!("{case}_{path}"),
            Form::Dagger => format!("{case}_dagger_{path}"),
            Form::Normal => format!("{case}_normal_{path}"),
        }
    }
}

/// A single-RHS `(out, inp)` application.
type Chain<'c, R> = &'c (dyn Fn(&mut [Spinor<R>], &[Spinor<R>]) + Sync);

/// `D`, `D†` or `D†D` from a pair of `D`/`D†` chains.
fn run<R: Real>(
    form: Form,
    d: Chain<'_, R>,
    d_dagger: Chain<'_, R>,
    out: &mut [Spinor<R>],
    inp: &[Spinor<R>],
) {
    match form {
        Form::Apply => d(out, inp),
        Form::Dagger => d_dagger(out, inp),
        Form::Normal => {
            let mut tmp = vec![Spinor::zero(); inp.len()];
            d(&mut tmp, inp);
            d_dagger(out, &tmp);
        }
    }
}

/// Apply `op` in every [`Form`] through its reference chains (`_aos`) and
/// its production path (`_aos_fused`, `D†D` through [`NormalOp`]) at each
/// pool width in `widths`; assert every result of one form shares one
/// digest and record it under both golden keys.
#[allow(clippy::too_many_arguments)]
fn digest_paths<R: Real, Op: DiracOp<R>>(
    case: &str,
    op: &Op,
    reference: Chain<'_, R>,
    reference_dagger: Chain<'_, R>,
    seed: u64,
    widths: &[usize],
    map: &mut BTreeMap<String, u64>,
) {
    let n = op.vec_len();
    let inp = FermionField::<R>::gaussian(n, seed).data;
    let normal = NormalOp::new(op);
    let fused: Chain<'_, R> = &|o, i| op.apply(o, i);
    let fused_dagger: Chain<'_, R> = &|o, i| op.apply_dagger(o, i);
    for form in [Form::Apply, Form::Dagger, Form::Normal] {
        let mut golden = None;
        for (path, d, d_dagger) in [
            ("aos", reference, reference_dagger),
            ("aos_fused", fused, fused_dagger),
        ] {
            for &w in widths {
                let mut out = vec![Spinor::zero(); n];
                with_width(w, || match (path, form) {
                    ("aos_fused", Form::Normal) => normal.apply(&mut out, &inp),
                    _ => run(form, d, d_dagger, &mut out, &inp),
                });
                let got = digest(&out);
                let want = *golden.get_or_insert(got);
                assert_eq!(
                    got,
                    want,
                    "{} at width {w} diverges from the reference",
                    form.key(case, path)
                );
            }
            map.insert(form.key(case, path), golden.unwrap());
        }
    }
}

/// [`digest_paths`] with the operator's own inherent reference chains.
macro_rules! digest_op {
    ($case:expr, $op:expr, $seed:expr, $widths:expr, $map:expr $(,)?) => {{
        let op = &$op;
        digest_paths(
            $case,
            op,
            &|o, i| op.apply_reference(o, i, 1),
            &|o, i| op.apply_dagger_reference(o, i, 1),
            $seed,
            $widths,
            $map,
        )
    }};
}

/// Build the full digest map across operators, precisions, and gauge
/// reconstructions.
fn golden_map() -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();

    let lat = Lattice::new([4, 4, 4, 4]);
    let gauge64 = GaugeField::<f64>::hot(&lat, 31);
    let gauge32 = gauge64.cast::<f32>();
    let params = MobiusParams::standard(4, 0.08);

    digest_op!(
        "wilson_f64_full",
        WilsonDirac::new(&lat, &gauge64, 0.1, true),
        71,
        &[1, 4],
        &mut map,
    );
    digest_op!(
        "wilson_f32_full",
        WilsonDirac::new(&lat, &gauge32, 0.1, true),
        72,
        &[1, 4],
        &mut map,
    );
    digest_op!(
        "prec_wilson_f64_full",
        PrecWilson::new(&lat, &gauge64, 0.1, true),
        73,
        &[1, 4],
        &mut map,
    );
    digest_op!(
        "mobius_f64_full",
        MobiusDirac::new(&lat, &gauge64, params),
        74,
        &[1, 4],
        &mut map,
    );
    digest_op!(
        "prec_mobius_f64_full",
        PrecMobius::new(&lat, &gauge64, params),
        75,
        &[1, 4],
        &mut map,
    );
    digest_op!(
        "prec_mobius_f32_full",
        PrecMobius::new(&lat, &gauge32, params),
        76,
        &[1, 4],
        &mut map,
    );

    // Compressed-link operators: not bit-equal to full storage (their
    // tolerance is asserted separately below), so they pin their own rows.
    let r12 = Recon12Gauge::from_gauge(&gauge64);
    digest_op!(
        "wilson_f64_recon12",
        WilsonDirac::new(&lat, &r12, 0.1, true),
        71,
        &[1, 4],
        &mut map,
    );
    let r8 = Recon8Gauge::from_gauge(&gauge64);
    digest_op!(
        "wilson_f64_recon8",
        WilsonDirac::new(&lat, &r8, 0.1, true),
        71,
        &[1, 4],
        &mut map,
    );

    // The Feynman–Hellmann propagator's geometry: a 4³×8 lattice at
    // `L5 = 8`, on which the default grain splits every fused 5D pass into
    // many chunks, so width 2 and 4 really run chunks on different threads.
    let fh_lat = Lattice::new([4, 4, 4, 8]);
    let fh64 = GaugeField::<f64>::hot(&fh_lat, 35);
    let fh32 = fh64.cast::<f32>();
    let fh_params = MobiusParams::standard(8, 0.1);
    let fh_op64 = PrecMobius::new(&fh_lat, &fh64, fh_params);
    assert!(
        fh_op64.grain.div_ceil(fh_params.l5) * 4 <= fh_lat.half_volume(),
        "the fh case must split its fused passes into several chunks"
    );
    digest_op!("prec_mobius_f64_fh", fh_op64, 77, &[1, 2, 4], &mut map);
    digest_op!(
        "prec_mobius_f32_fh",
        PrecMobius::new(&fh_lat, &fh32, fh_params),
        78,
        &[1, 2, 4],
        &mut map,
    );
    map
}

fn render(map: &BTreeMap<String, u64>) -> String {
    let mut s = String::from("{\n");
    for (i, (k, v)) in map.iter().enumerate() {
        s.push_str(&format!(
            "  \"{k}\": \"{v:#018x}\"{}\n",
            if i + 1 < map.len() { "," } else { "" }
        ));
    }
    s.push_str("}\n");
    s
}

fn parse_goldens(text: &str) -> BTreeMap<String, u64> {
    let json = obs::Json::parse(text).expect("parse committed goldens");
    let obs::Json::Obj(pairs) = json else {
        panic!("goldens file must be a JSON object");
    };
    pairs
        .into_iter()
        .map(|(k, v)| {
            let obs::Json::Str(hex) = v else {
                panic!("golden {k} must be a hex string");
            };
            let raw = hex.trim_start_matches("0x");
            (k, u64::from_str_radix(raw, 16).expect("hex digest"))
        })
        .collect()
}

#[test]
fn fused_and_reference_goldens_are_pinned_and_width_invariant() {
    let map = golden_map();
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::write(GOLDEN_PATH, render(&map)).expect("write goldens");
        return;
    }
    let committed = parse_goldens(&std::fs::read_to_string(GOLDEN_PATH).expect(
        "missing committed goldens — run UPDATE_GOLDENS=1 cargo test -p lqcd-core \
             --test dslash_variants",
    ));
    assert_eq!(
        map, committed,
        "dslash digests drifted from the committed goldens; if the change \
         is intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn sharded_policies_match_dense_hop() {
    // A bare `ShardedHopping` against the single-domain hop, slice by
    // slice, under a Coarse policy on an x-split grid and a Fine policy on
    // a t-split grid (the antiperiodic sign crosses the rank boundary).
    let lat = Lattice::new([4, 4, 4, 8]);
    let l5 = 4;
    let gauge = GaugeField::<f64>::hot(&lat, 33);
    let v = lat.volume();
    let inp = FermionField::<f64>::gaussian(l5 * v, 81).data;

    let hop = HoppingKernel::new(&lat, &gauge, true);
    let mut expect = vec![Spinor::<f64>::zero(); l5 * v];
    for s in 0..l5 {
        hop.apply_full(
            &mut expect[s * v..(s + 1) * v],
            &inp[s * v..(s + 1) * v],
            64,
        );
    }

    for (grid, pidx) in [([2, 1, 1, 1], 0usize), ([1, 1, 1, 2], 1)] {
        let domain = Arc::new(
            DomainDecomposition::new(&lat, grid, l5, 2).expect("grid decomposes the lattice"),
        );
        let mut sharded =
            ShardedHopping::new(domain.clone(), &gauge, true, policy_from_index(pidx));
        for w in [1usize, 4] {
            let mut si = ShardedField::scatter(&domain, &inp, l5);
            let mut so = ShardedField::zeros(&domain, l5);
            with_width(w, || {
                sharded.apply(&mut so, &mut si).expect("fault-free apply");
            });
            let mut got = vec![Spinor::<f64>::zero(); l5 * v];
            so.gather_into(&domain, &mut got);
            assert_eq!(got, expect, "grid {grid:?} policy {pidx} width {w}");
        }
    }
}

#[test]
fn reconstructed_links_track_full_storage_to_tolerance() {
    let lat = Lattice::new([4, 4, 4, 4]);
    let gauge = GaugeField::<f64>::hot(&lat, 31);
    let inp = FermionField::<f64>::gaussian(lat.volume(), 91).data;

    let full = WilsonDirac::new(&lat, &gauge, 0.1, true);
    let mut out_full = vec![Spinor::<f64>::zero(); lat.volume()];
    full.apply(&mut out_full, &inp);
    let norm = blas::norm_sqr(&out_full).sqrt();

    // The reconstruction must return to the group (unitarity), and the
    // operator built on decompressed links must track full storage.
    fn check<G: GaugeLinks<f64>>(
        name: &str,
        lat: &Lattice,
        links: &G,
        tol: f64,
        inp: &[Spinor<f64>],
        out_full: &[Spinor<f64>],
        norm: f64,
    ) {
        let worst = (0..lat.volume())
            .flat_map(|x| (0..4).map(move |mu| (x, mu)))
            .map(|(x, mu)| links.link(x, mu).unitarity_error())
            .fold(0.0f64, f64::max);
        assert!(worst < tol, "{name}: unitarity error {worst:.3e} ≥ {tol:e}");

        let d = WilsonDirac::new(lat, links, 0.1, true);
        let mut out = vec![Spinor::<f64>::zero(); lat.volume()];
        d.apply(&mut out, inp);
        let err = blas::norm_sqr(&blas::sub(&out, out_full)).sqrt() / norm;
        assert!(err < tol, "{name}: relative error {err:.3e} ≥ {tol:e}");
    }
    let r12 = Recon12Gauge::from_gauge(&gauge);
    check("recon12", &lat, &r12, 1e-12, &inp, &out_full, norm);
    let r8 = Recon8Gauge::from_gauge(&gauge);
    check("recon8", &lat, &r8, 1e-9, &inp, &out_full, norm);
}
