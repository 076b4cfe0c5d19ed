//! Cross-cutting determinism suite for the dslash execution variants.
//!
//! Pins a committed golden digest for every (operator × precision ×
//! reconstruction × variant) combination, and asserts the tentpole
//! invariants end to end:
//!
//! - every variant of one operator is **bit-identical** to its scalar AoS
//!   reference — for `apply`, for the adjoint `apply_dagger`, and for the
//!   normal operator `D†D` the solvers invert,
//! - results are bit-identical at pool widths 1 and 4 (1, 2 and 4 on the
//!   Feynman–Hellmann lattice, where the fused passes split into many
//!   chunks),
//! - the sharded halo-exchange kernel reproduces the dense hop to the bit
//!   under multiple comm policies, including when the field is packed from
//!   and unpacked to the blocked-SoA layout,
//! - the 12-real / 8-real reconstructed operators track full storage to
//!   tight tolerance (they trade exactness for bandwidth, so they pin their
//!   own goldens rather than sharing the full-storage one).
//!
//! Regenerate the goldens after an *intentional* numerical change with:
//! `UPDATE_GOLDENS=1 cargo test -p lqcd-core --test dslash_variants`
//! (the digests must not depend on cargo features: `arch-simd` only widens
//! codegen, never changes results — CI runs this suite both ways).

use lqcd_core::comms::{policy_from_index, ShardedField, ShardedHopping};
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
    /// `D`, golden key `{case}_{variant}`.
    Apply,
    /// `D†`, golden key `{case}_dagger_{variant}`.
    Dagger,
    /// `D†D` through [`NormalOp`], golden key `{case}_normal_{variant}`.
    Normal,
}

impl Form {
    fn key(self, case: &str, v: DslashVariant) -> String {
        match self {
            Form::Apply => format!("{case}_{}", v.name()),
            Form::Dagger => format!("{case}_dagger_{}", v.name()),
            Form::Normal => format!("{case}_normal_{}", v.name()),
        }
    }

    fn run<R: Real, Op: DiracOp<R>>(self, op: &Op, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
        match self {
            Form::Apply => op.apply(out, inp),
            Form::Dagger => op.apply_dagger(out, inp),
            Form::Normal => NormalOp::new(op).apply(out, inp),
        }
    }
}

/// Apply `op` in every [`Form`] under every supported variant at each pool
/// width in `widths`; assert all (variant × width) results of one form
/// share one digest and record it under per-variant golden keys.
fn digest_variants<R, Op>(
    case: &str,
    op: &mut Op,
    seed: u64,
    widths: &[usize],
    map: &mut BTreeMap<String, u64>,
) where
    R: Real,
    Op: VariantTunable<R> + DiracOp<R> + Send,
{
    let n = op.vec_len();
    let inp = FermionField::<R>::gaussian(n, seed).data;
    for form in [Form::Apply, Form::Dagger, Form::Normal] {
        let mut reference = None;
        for v in op.supported_variants() {
            op.set_variant(v);
            for &w in widths {
                let mut out = vec![Spinor::zero(); n];
                let (op_ref, out_ref, inp_ref) = (&*op, &mut out, &inp);
                with_width(w, move || form.run(op_ref, out_ref, inp_ref));
                let d = digest(&out);
                match reference {
                    None => reference = Some(d),
                    Some(r) => assert_eq!(
                        d,
                        r,
                        "{}: variant {v:?} at width {w} diverges from the scalar reference",
                        form.key(case, v)
                    ),
                }
            }
            map.insert(form.key(case, v), reference.unwrap());
        }
    }
}

/// Build the full digest map across operators, precisions, and gauge
/// reconstructions.
fn golden_map() -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();

    let lat = Lattice::new([4, 4, 4, 4]);
    let gauge64 = GaugeField::<f64>::hot(&lat, 31);
    let gauge32 = gauge64.cast::<f32>();
    let params = MobiusParams::standard(4, 0.08);

    digest_variants(
        "wilson_f64_full",
        &mut WilsonDirac::new(&lat, &gauge64, 0.1, true),
        71,
        &[1, 4],
        &mut map,
    );
    digest_variants(
        "wilson_f32_full",
        &mut WilsonDirac::new(&lat, &gauge32, 0.1, true),
        72,
        &[1, 4],
        &mut map,
    );
    digest_variants(
        "prec_wilson_f64_full",
        &mut PrecWilson::new(&lat, &gauge64, 0.1, true),
        73,
        &[1, 4],
        &mut map,
    );
    digest_variants(
        "mobius_f64_full",
        &mut MobiusDirac::new(&lat, &gauge64, params),
        74,
        &[1, 4],
        &mut map,
    );
    digest_variants(
        "prec_mobius_f64_full",
        &mut PrecMobius::new(&lat, &gauge64, params),
        75,
        &[1, 4],
        &mut map,
    );
    digest_variants(
        "prec_mobius_f32_full",
        &mut PrecMobius::new(&lat, &gauge32, params),
        76,
        &[1, 4],
        &mut map,
    );

    // Compressed-link operators: not bit-equal to full storage (their
    // tolerance is asserted separately below), so they pin their own rows.
    let r12 = Recon12Gauge::from_gauge(&gauge64);
    digest_variants(
        "wilson_f64_recon12",
        &mut WilsonDirac::new(&lat, &r12, 0.1, true),
        71,
        &[1, 4],
        &mut map,
    );
    let r8 = Recon8Gauge::from_gauge(&gauge64);
    digest_variants(
        "wilson_f64_recon8",
        &mut WilsonDirac::new(&lat, &r8, 0.1, true),
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
    let mut fh_op64 = PrecMobius::new(&fh_lat, &fh64, fh_params);
    assert!(
        fh_op64.grain.div_ceil(fh_params.l5) * 4 <= fh_lat.half_volume(),
        "the fh case must split its fused passes into several chunks"
    );
    digest_variants("prec_mobius_f64_fh", &mut fh_op64, 77, &[1, 2, 4], &mut map);
    digest_variants(
        "prec_mobius_f32_fh",
        &mut PrecMobius::new(&fh_lat, &fh32, fh_params),
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
fn variant_goldens_are_pinned_and_width_invariant() {
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
        "variant digests drifted from the committed goldens; if the change \
         is intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn sharded_policies_match_dense_hop_through_soa_frames() {
    let lat = Lattice::new([4, 4, 4, 8]);
    let l5 = 4;
    let gauge = GaugeField::<f64>::hot(&lat, 33);
    let v = lat.volume();
    let inp = FermionField::<f64>::gaussian(l5 * v, 81).data;

    // Dense reference: the single-domain hop, slice by slice.
    let hop = HoppingKernel::new(&lat, &gauge, true);
    let mut expect = vec![Spinor::<f64>::zero(); l5 * v];
    for s in 0..l5 {
        hop.apply_full(
            &mut expect[s * v..(s + 1) * v],
            &inp[s * v..(s + 1) * v],
            64,
        );
    }

    let soa_in = SoaSpinorField::from_aos(&inp);
    for (grid, pidx) in [([2, 1, 1, 1], 0usize), ([1, 1, 1, 2], 1)] {
        let domain = Arc::new(
            DomainDecomposition::new(&lat, grid, l5, 2).expect("grid decomposes the lattice"),
        );
        let mut sharded =
            ShardedHopping::new(domain.clone(), &gauge, true, policy_from_index(pidx));
        for w in [1usize, 4] {
            // Pack from the blocked-SoA layout, exchange, unpack back.
            let mut si = ShardedField::scatter_soa(&domain, &soa_in, l5);
            let mut so = ShardedField::zeros(&domain, l5);
            let (sh, si_ref, so_ref) = (&mut sharded, &mut si, &mut so);
            with_width(w, move || {
                sh.apply(so_ref, si_ref).expect("fault-free apply");
            });
            let mut soa_out = SoaSpinorField::zeros(l5 * v);
            so.gather_into_soa(&domain, &mut soa_out);
            assert_eq!(
                soa_out.to_aos(),
                expect,
                "grid {grid:?} policy {pidx} width {w}"
            );
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
