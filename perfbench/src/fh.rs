//! `fh_propagator`: the paper's unit of work, one Feynman–Hellmann
//! propagator.
//!
//! A 4³×8 lattice with one hot gauge field and `MobiusParams::standard(8,
//! 0.1)`; 12 point-source columns at a seed-chosen site through the
//! mixed-precision red–black Möbius solver, 12 sequential solves through
//! the axial insertion, both propagators written as f32 bundles and read
//! back, then the proton and FH nucleon contractions of the read-back
//! propagators.
//!
//! The untraced unit calls `PropagatorSolver::solve` column by column (the
//! loop `point_propagator` and `fh_propagator` run) so every column is timed
//! and an unconverged column is counted instead of aborting the run. The
//! traced unit runs the same prepare / mixed CG / reconstruct sequence with
//! timers around the two normal operators, and must reproduce the untraced
//! correlators bit for bit.

use crate::common::{derive, now, reals, time_setup, unit_count, ScratchDir};
use crate::layers::{self, CKPT_IO, COMMS, FT, SERVICE, SPILL_IO};
use crate::report::{Ledger, Metric, Report};
use crate::stats::{median, tail_json};
use crate::trace::{peak_rss_mib, process_cpu_s, Tally, TimedOp};
use crate::Args;
use lattice_io::{read_propagator, write_propagator, BundlePrecision};
use lqcd_core::blas;
use lqcd_core::complex::C64;
use lqcd_core::contract::proton_correlator;
use lqcd_core::dirac::{DiracOp, LinearOp, MobiusDirac, MobiusParams, NormalOp, PrecMobius};
use lqcd_core::fh::{fh_nucleon_correlator, FeynmanHellmann};
use lqcd_core::field::{FermionField, GaugeField};
use lqcd_core::gamma::{polarized_projector, SpinMatrix};
use lqcd_core::lattice::Lattice;
use lqcd_core::prop::{point_source, Propagator, PropagatorSolver, SolverKind};
use lqcd_core::solver::{mixed_cg, CgParams, MixedParams, SolveStats};
use lqcd_core::spinor::Spinor;
use obs::{Json, Registry};
use std::collections::BTreeMap;

/// Lattice of the fh_propagator and sharded_ft workloads.
pub const DIMS: [usize; 4] = [4, 4, 4, 8];
/// Fifth-dimension extent and quark mass of their Möbius operator.
pub const L5: usize = 8;
pub const MASS: f64 = 0.1;

/// Relative residual `‖rhs − M̂x‖/‖rhs‖` every column must reach. The
/// mixed solver stops on the normal-equation residual at the solver's
/// 1e-8; the first-order residual it reports is allowed one decade more.
pub const RESIDUAL_BOUND: f64 = 1e-7;

/// Seconds one FH propagator takes on a 2-vCPU Xeon VM, rounded up: a run
/// of `--seconds 40` measures two.
const NOMINAL_UNIT_S: f64 = 20.0;

/// Bundle files of the propagator and the FH propagator.
const BUNDLES: [&str; 2] = ["prop.lqio", "fh_prop.lqio"];

const GAUGE_STREAM: u64 = 1;
const SITE_STREAM: u64 = 2;

/// The generated inputs shared by fh_propagator and sharded_ft.
pub struct Inputs {
    pub lat: Lattice,
    pub gauge: GaugeField<f64>,
    pub params: MobiusParams,
    pub site: usize,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let lat = Lattice::new(DIMS);
        let gauge = GaugeField::<f64>::hot(&lat, derive(seed, GAUGE_STREAM));
        let site = (derive(seed, SITE_STREAM) % lat.volume() as u64) as usize;
        Inputs {
            lat,
            gauge,
            params: MobiusParams::standard(L5, MASS),
            site,
        }
    }
}

/// One FH propagator's outputs and timings.
struct Unit {
    wall: f64,
    solve_walls: Vec<f64>,
    stats: Vec<SolveStats>,
    c2: Vec<C64>,
    cfh: Vec<C64>,
}

/// Timers of the traced solves.
#[derive(Default)]
struct SolveTallies {
    dirac64: Tally,
    dirac32: Tally,
    /// `mixed_cg` calls and their wall time.
    solver: Tally,
    /// Worst f64 recheck of `‖rhs − M̂x‖/‖rhs‖` over the columns.
    max_recheck: f64,
}

/// Timers of the traced unit's I/O and contraction layers.
#[derive(Default)]
struct UnitTallies {
    bundle_write: Tally,
    bundle_read: Tally,
    contract: Tally,
}

fn timed<T>(tally: Option<&Tally>, f: impl FnOnce() -> T) -> T {
    match tally {
        Some(t) => t.time(f),
        None => f(),
    }
}

/// Whether `read` is `written` rounded to f32, element by element.
fn is_f32_rounding(written: &Propagator, read: &Propagator) -> bool {
    read.source_site == written.source_site
        && read.columns.len() == written.columns.len()
        && written.columns.iter().zip(&read.columns).all(|(w, r)| {
            reals(&w.data)
                .map(|v| (v as f32 as f64).to_bits())
                .eq(reals(&r.data).map(f64::to_bits))
        })
}

/// Bit patterns of a correlator's real and imaginary parts.
fn correlator_bits(c: &[C64]) -> Vec<u64> {
    c.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// Solves `D q = b` for one 4D source column.
type ColumnSolver<'a> = dyn FnMut(&FermionField<f64>) -> (FermionField<f64>, SolveStats) + 'a;

/// One FH propagator: 24 solves through `solve`, the bundle round trip and
/// both contractions. `tallies` times the I/O and contraction layers.
fn fh_unit(
    inp: &Inputs,
    insertion: &SpinMatrix<f64>,
    dir: &ScratchDir,
    ledger: &mut Ledger,
    tallies: Option<&UnitTallies>,
    solve: &mut ColumnSolver,
) -> Result<Unit, String> {
    let t_unit = now();
    let mut solve_walls = Vec::with_capacity(24);
    let mut stats = Vec::with_capacity(24);
    let mut column = |src: &FermionField<f64>, what: String, ledger: &mut Ledger| {
        let t0 = now();
        let (q, s) = solve(src);
        solve_walls.push(now() - t0);
        let ok = s.converged && s.final_rel_residual <= RESIDUAL_BOUND;
        ledger.record(ok, || format!("{what}: {s:?}"));
        stats.push(s);
        q
    };

    let mut columns = Vec::with_capacity(12);
    for spin in 0..4 {
        for color in 0..3 {
            let b = point_source(&inp.lat, inp.site, spin, color);
            columns.push(column(&b, format!("point column ({spin},{color})"), ledger));
        }
    }
    let prop = Propagator {
        columns,
        source_site: inp.site,
        source_time: inp.lat.time_of(inp.site),
    };
    let mut fh_columns = Vec::with_capacity(12);
    for (i, col) in prop.columns.iter().enumerate() {
        let src = FermionField {
            data: col
                .data
                .iter()
                .map(|s| s.apply_spin_matrix(insertion))
                .collect(),
        };
        fh_columns.push(column(&src, format!("FH column {i}"), ledger));
    }
    let fh_prop = Propagator {
        columns: fh_columns,
        source_site: prop.source_site,
        source_time: prop.source_time,
    };

    let (t_write, t_read, t_contract) = match tallies {
        Some(t) => (
            Some(&t.bundle_write),
            Some(&t.bundle_read),
            Some(&t.contract),
        ),
        None => (None, None, None),
    };
    let paths = BUNDLES.map(|f| dir.path().join(f));
    let mut read_back = Vec::with_capacity(2);
    for (p, path) in [&prop, &fh_prop].into_iter().zip(&paths) {
        timed(t_write, || {
            write_propagator(path, p, BundlePrecision::F32, BTreeMap::new())
        })
        .map_err(|e| format!("bundle write {}: {e:?}", path.display()))?;
    }
    for (p, path) in [&prop, &fh_prop].into_iter().zip(&paths) {
        let r = timed(t_read, || read_propagator(path))
            .map_err(|e| format!("bundle read {}: {e:?}", path.display()))?;
        ledger.record(is_f32_rounding(p, &r), || {
            format!(
                "{} does not read back as the f32 rounding of what was written",
                path.display()
            )
        });
        read_back.push(r);
    }
    let (prop_r, fh_r) = (&read_back[0], &read_back[1]);

    let proj = polarized_projector();
    let (c2, cfh) = timed(t_contract, || {
        let c2 = proton_correlator(&inp.lat, prop_r, prop_r, &proj);
        let cfh = fh_nucleon_correlator(&inp.lat, prop_r, prop_r, fh_r, fh_r, &proj);
        (c2, cfh)
    });
    let finite = c2
        .iter()
        .chain(&cfh)
        .all(|c| c.re.is_finite() && c.im.is_finite());
    let nonzero = c2.iter().any(|c| c.re != 0.0);
    ledger.record(finite && nonzero, || {
        "correlators are not finite and nonzero".into()
    });

    Ok(Unit {
        wall: now() - t_unit,
        solve_walls,
        stats,
        c2,
        cfh,
    })
}

/// The traced column solve: `PropagatorSolver`'s Möbius path (wall
/// injection, red–black prepare, CGNE source, mixed CG, reconstruct, wall
/// extraction) with timers around the f64 and f32 normal operators, and
/// the first-order residual rechecked in f64 from the solution held here.
fn traced_solve(
    inp: &Inputs,
    gauge32: &GaugeField<f32>,
    solve_params: CgParams,
    source: &FermionField<f64>,
    t: &mut SolveTallies,
) -> (FermionField<f64>, SolveStats) {
    let (lat, params) = (&inp.lat, inp.params);
    let v = lat.volume();
    let l5 = params.l5;
    let mut b5 = vec![Spinor::zero(); l5 * v];
    for (x, s) in source.data.iter().enumerate() {
        b5[(l5 - 1) * v + x] = s.chiral_project(false);
        b5[x] += s.chiral_project(true);
    }
    let prec = PrecMobius::new(lat, &inp.gauge, params);
    let (b_e, b_o) = prec.split(&b5);
    let rhs = prec.prepare_source(&b_e, &b_o);
    let mut x_o = vec![Spinor::zero(); prec.vec_len()];

    let prec32 = PrecMobius::new(lat, gauge32, params);
    let n64 = NormalOp::new(&prec);
    let n32 = NormalOp::new(&prec32);
    let mut ne_rhs = vec![Spinor::zero(); prec.vec_len()];
    prec.apply_dagger(&mut ne_rhs, &rhs);
    let hi = TimedOp {
        inner: &n64,
        tally: &t.dirac64,
    };
    let lo = TimedOp {
        inner: &n32,
        tally: &t.dirac32,
    };
    let mixed = MixedParams {
        outer: solve_params,
        ..MixedParams::default()
    };
    let mut stats = t
        .solver
        .time(|| mixed_cg(&hi, &lo, &mut x_o, &ne_rhs, mixed));

    let mut mx = vec![Spinor::zero(); prec.vec_len()];
    prec.apply(&mut mx, &x_o);
    let diff = blas::sub(&rhs, &mx);
    let b2 = blas::norm_sqr(&rhs);
    if b2 > 0.0 {
        stats.final_rel_residual = (blas::norm_sqr(&diff) / b2).sqrt();
    }
    t.max_recheck = t.max_recheck.max(stats.final_rel_residual);

    let x_e = prec.reconstruct_even(&b_e, &x_o);
    let full = prec.merge(&x_e, &x_o);
    let mut q = FermionField::zeros(v);
    for x in 0..v {
        q.data[x] = full[x].chiral_project(false) + full[(l5 - 1) * v + x].chiral_project(true);
    }
    (q, stats)
}

/// Computed (not measured) memory traffic of one normal apply `M̂†M̂` of
/// the preconditioned Möbius operator, from array sizes: each of `M̂` and
/// `M̂†` makes four passes over 5D half-volume vectors, touching ten vector
/// sweeps (ρ/diagonal sweep 3, two stencil passes 2 and 3, the `A⁻¹` sweep
/// 2) and reading the whole gauge field in each of its two stencil passes.
/// Caches are assumed to hold each pass's neighbour reuse.
pub fn normal_apply_bytes(volume: usize, l5: usize, real_bytes: usize) -> f64 {
    let spinor = 24 * real_bytes;
    let link = 18 * real_bytes;
    let half_5d = l5 * volume / 2;
    let one_op = 10 * half_5d * spinor + 2 * (4 * volume * link);
    (2 * one_op) as f64
}

/// Median seconds per apply of `op`, in five batches of `per_batch`.
pub fn time_applies<O: LinearOp<f64>>(op: &O, per_batch: usize) -> f64 {
    let x = FermionField::<f64>::gaussian(op.vec_len(), 11).data;
    let mut y = vec![Spinor::zero(); op.vec_len()];
    op.apply(&mut y, &x);
    let mut per_apply = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = now();
        for _ in 0..per_batch {
            op.apply(&mut y, std::hint::black_box(&x));
        }
        per_apply.push((now() - t0) / per_batch as f64);
    }
    std::hint::black_box(&y);
    median(&per_apply)
}

/// Reference figures every traced run reports: one dense (unsharded)
/// Möbius normal apply on this lattice, and the preconditioned normal
/// apply the fh solves spend their time in, at pool width 1 and 2.
pub struct Reference {
    pub dense_apply_s: f64,
    width1_s: f64,
    width2_s: f64,
    width2: usize,
}

impl Reference {
    pub fn measure(inp: &Inputs) -> Self {
        let dense = MobiusDirac::new(&inp.lat, &inp.gauge, inp.params);
        let dense_apply_s = time_applies(&NormalOp::new(&dense), 4);
        let prec = PrecMobius::new(&inp.lat, &inp.gauge, inp.params);
        let normal = NormalOp::new(&prec);
        let at_width = |w: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(w)
                .build()
                .expect("a width-capped view of the global pool");
            pool.install(|| time_applies(&normal, 8))
        };
        let width2 = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        Reference {
            dense_apply_s,
            width1_s: at_width(1),
            width2_s: at_width(width2),
            width2,
        }
    }

    pub fn metrics(&self) -> [Metric; 2] {
        [
            Metric::new("comms.dense_apply_s", self.dense_apply_s, "s"),
            Metric::ratio("pool.speedup_w2", self.width1_s, self.width2_s),
        ]
    }

    pub fn detail(&self) -> (&'static str, Json) {
        let d = Json::obj(vec![
            ("apply_s_width_1", Json::Num(self.width1_s)),
            ("apply_s_width_2", Json::Num(self.width2_s)),
            ("width_2_effective", Json::from(self.width2)),
        ]);
        ("pool_speedup", d)
    }
}

pub fn run(args: &Args, dir: &ScratchDir) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    let kind = |inp: &Inputs| SolverKind::MobiusMixed { params: inp.params };
    let (inp, setup_s, setup_reps) = time_setup(|| {
        let inp = Inputs::generate(args.seed);
        std::hint::black_box(PropagatorSolver::new(&inp.lat, &inp.gauge, kind(&inp)));
        inp
    });
    let solver = PropagatorSolver::new(&inp.lat, &inp.gauge, kind(&inp));
    let insertion = *FeynmanHellmann::axial(&solver).insertion();

    let untraced_unit = |ledger: &mut Ledger| {
        let reg = Registry::new();
        let _scope = reg.install_scoped();
        fh_unit(&inp, &insertion, dir, ledger, None, &mut |b| {
            solver.solve(b)
        })
    };

    if !args.trace {
        let units = (0..unit_count(args.seconds, NOMINAL_UNIT_S))
            .map(|_| untraced_unit(&mut ledger))
            .collect::<Result<Vec<_>, _>>()?;
        let walls: Vec<f64> = units.iter().map(|u| u.wall).collect();
        let solve_walls: Vec<f64> = units.iter().flat_map(|u| u.solve_walls.clone()).collect();
        let flops: f64 = units.iter().flat_map(|u| &u.stats).map(|s| s.flops).sum();
        let iters: Vec<Json> = units[0]
            .stats
            .iter()
            .map(|s| Json::from(s.iterations))
            .collect();
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s").with_samples(setup_reps),
            Metric::new("unit_s", median(&walls), "s").with_samples(walls.len()),
            Metric::new("step_s_p50", median(&solve_walls), "s").with_samples(solve_walls.len()),
            Metric::new(
                "solve_gflops",
                flops / solve_walls.iter().sum::<f64>() * 1e-9,
                "Gflop/s",
            ),
            Metric::new("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
        ];
        let details = vec![
            ("fh_prop_s", Json::Num(median(&walls))),
            ("solve_s_p50", Json::Num(median(&solve_walls))),
            ("solve_s_tail", tail_json(&solve_walls)),
            ("fh_propagators", Json::from(units.len())),
            ("column_solves", Json::from(solve_walls.len())),
            ("column_iterations", Json::Arr(iters)),
            ("source_site", Json::from(inp.site)),
        ];
        return Ok(Report {
            metrics,
            ledger,
            details,
        });
    }

    // Traced: one untraced unit as the bit-identity and overhead reference,
    // then the same unit through the wrappers.
    let cpu0 = process_cpu_s();
    let reference = untraced_unit(&mut ledger)?;
    let cpu = cpu0.zip(process_cpu_s()).map_or(f64::NAN, |(a, b)| b - a);

    let gauge32: GaugeField<f32> = inp.gauge.cast();
    let t = UnitTallies::default();
    let mut s = SolveTallies::default();
    let traced = {
        let reg = Registry::new();
        let _scope = reg.install_scoped();
        fh_unit(&inp, &insertion, dir, &mut ledger, Some(&t), &mut |b| {
            traced_solve(&inp, &gauge32, solver.solve_params, b, &mut s)
        })?
    };

    ledger.record(
        correlator_bits(&traced.c2) == correlator_bits(&reference.c2)
            && correlator_bits(&traced.cfh) == correlator_bits(&reference.cfh),
        || "traced correlators differ from the untraced run".into(),
    );
    let same_iters = traced
        .stats
        .iter()
        .map(|s| s.iterations)
        .eq(reference.stats.iter().map(|s| s.iterations));
    ledger.record(same_iters, || {
        "traced iteration counts differ from the untraced run".into()
    });
    ledger.record(s.max_recheck <= RESIDUAL_BOUND, || {
        format!(
            "f64 residual recheck {} exceeds {RESIDUAL_BOUND}",
            s.max_recheck
        )
    });

    let flops64 =
        NormalOp::new(&PrecMobius::new(&inp.lat, &inp.gauge, inp.params)).flops_per_apply();
    let flops32 = NormalOp::new(&PrecMobius::new(&inp.lat, &gauge32, inp.params)).flops_per_apply();
    let (a64, a32) = (s.dirac64.calls() as f64, s.dirac32.calls() as f64);
    let dirac_busy = s.dirac64.busy_s() + s.dirac32.busy_s();
    let dirac_flops = a64 * flops64 + a32 * flops32;
    let v = inp.lat.volume();
    let bytes = a64 * normal_apply_bytes(v, L5, 8) + a32 * normal_apply_bytes(v, L5, 4);
    let solver_wall = s.solver.busy_s();
    // The traced unit's two bundles are still on disk.
    let bundle_bytes: u64 = BUNDLES
        .iter()
        .map(|f| std::fs::metadata(dir.path().join(f)).map_or(0, |m| m.len()))
        .sum();

    let mut metrics = vec![
        Metric::count("dirac.f64.applies", s.dirac64.calls()),
        Metric::new("dirac.f64.busy_s", s.dirac64.busy_s(), "s"),
        Metric::count("dirac.f32.applies", s.dirac32.calls()),
        Metric::new("dirac.f32.busy_s", s.dirac32.busy_s(), "s"),
        Metric::new("dirac.gflops", dirac_flops / dirac_busy * 1e-9, "Gflop/s"),
        Metric::new("dirac.bytes_per_apply", bytes / (a64 + a32), "B"),
        Metric::new("dirac.flops_per_byte", dirac_flops / bytes, "flop/B"),
        Metric::ratio("dirac.share", dirac_busy, solver_wall),
        Metric::count(
            "solver.iters",
            traced.stats.iter().map(|s| s.iterations as u64).sum(),
        ),
        Metric::count(
            "solver.reliable_updates",
            traced.stats.iter().map(|s| s.reliable_updates as u64).sum(),
        ),
        Metric::new("solver.self_s", solver_wall - dirac_busy, "s"),
        Metric::new("contract.busy_s", t.contract.busy_s(), "s"),
        Metric::new("io.bundle_write_s", t.bundle_write.busy_s(), "s"),
        Metric::new("io.bundle_read_s", t.bundle_read.busy_s(), "s"),
        Metric::new("io.bundle_bytes", bundle_bytes as f64, "B"),
    ];
    let reference_figures = Reference::measure(&inp);
    metrics.extend(reference_figures.metrics());
    metrics.push(Metric::ratio("pool.cpu_per_wall", cpu, reference.wall));
    metrics.push(Metric::ratio(
        "trace.overhead_frac",
        traced.wall - reference.wall,
        reference.wall,
    ));
    metrics.extend(layers::zeros(&[&COMMS, &FT, &CKPT_IO, &SPILL_IO, &SERVICE]));
    let mut details = vec![
        ("untraced_unit_s", Json::Num(reference.wall)),
        ("traced_unit_s", Json::Num(traced.wall)),
        ("max_residual_recheck", Json::Num(s.max_recheck)),
        ("bytes_model", "computed from array sizes".into()),
    ];
    details.push(reference_figures.detail());
    Ok(Report {
        metrics,
        ledger,
        details,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let (a, b, c) = (
            Inputs::generate(5),
            Inputs::generate(5),
            Inputs::generate(6),
        );
        assert!(a.gauge.links() == b.gauge.links() && a.site == b.site);
        assert!(a.gauge.links() != c.gauge.links());
        let sites: std::collections::BTreeSet<usize> =
            (0..16).map(|s| Inputs::generate(s).site).collect();
        assert!(sites.len() > 1, "the source site never moves with the seed");
    }

    #[test]
    fn bundle_check_accepts_exactly_the_f32_rounding() {
        let prop = |cols: Vec<FermionField<f64>>| Propagator {
            columns: cols,
            source_site: 3,
            source_time: 0,
        };
        let written: Vec<FermionField<f64>> =
            (0..12).map(|i| FermionField::gaussian(4, i)).collect();
        let rounded: Vec<FermionField<f64>> = written
            .iter()
            .map(|c| c.cast::<f32>().cast::<f64>())
            .collect();
        assert!(is_f32_rounding(
            &prop(written.clone()),
            &prop(rounded.clone())
        ));
        assert!(!is_f32_rounding(
            &prop(written.clone()),
            &prop(written.clone())
        ));
        let mut off = rounded;
        off[11].data[3].s[2].c[1].im = f64::from_bits(off[11].data[3].s[2].c[1].im.to_bits() + 1);
        assert!(!is_f32_rounding(&prop(written), &prop(off)));
    }

    #[test]
    fn computed_bytes_scale_with_precision_and_volume() {
        let (v, l5) = (512, 8);
        assert_eq!(
            normal_apply_bytes(v, l5, 8),
            2.0 * normal_apply_bytes(v, l5, 4)
        );
        // Ten 5D half-volume vector sweeps plus two gauge-field reads, twice.
        let one_op = 10 * (l5 * v / 2) * 24 * 8 + 2 * 4 * v * 18 * 8;
        assert_eq!(normal_apply_bytes(v, l5, 8), (2 * one_op) as f64);
    }
}
