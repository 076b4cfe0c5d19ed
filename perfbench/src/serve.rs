//! `serve_zipf`: the solve service under a Zipf stream that overflows its
//! cache to disk.
//!
//! A `Backend` over four 4×4×2×4 configurations with dense traffic only, a
//! 64-entry `ResultCache` (fewer than the 256 distinct keys, so it spills
//! to a scratch directory and revives from it), and one closed-loop client
//! that submits a 65 536-request Zipf stream (exponent 1.1, two tenants)
//! in consecutive 256-request windows, one `Gateway::run` per window, with
//! the cache kept across windows. The queue holds a whole window, so the
//! client's outstanding requests are never refused.

use crate::common::{derive, now, time_setup, unit_count, ScratchDir};
use crate::fh::{Inputs, Reference};
use crate::layers::{self, BUNDLE_IO, CKPT_IO, COMMS, CONTRACT, DIRAC, FT};
use crate::report::{Ledger, Metric, Report};
use crate::stats::{median, percentile, tail_json, tail_per_mille};
use crate::trace::{peak_rss_mib, process_cpu_s};
use crate::Args;
use lqcd_core::blas;
use lqcd_core::dirac::{LinearOp, NormalOp, WilsonDirac};
use lqcd_core::field::GaugeField;
use lqcd_core::spinor::Spinor;
use obs::{Json, Registry};
use solve_service::{
    generate, Backend, BackendConfig, CacheKey, CacheStats, Gateway, GatewayConfig, Policy,
    Precision, ResultCache, ServeReport, SolveRequest, TrafficConfig,
};

/// Requests per closed-loop window and windows per stream.
pub const WINDOW: usize = 256;
pub const WINDOWS: usize = 256;
const CACHE_ENTRIES: usize = 64;
/// Resident cache entries whose residual is recomputed after each stream.
const RESIDUAL_SAMPLE: usize = 8;
/// Allowed ratio of a recomputed residual to the request's tolerance: CG
/// stops on its recurrence residual, and the true residual may drift above
/// it by rounding.
const RESIDUAL_SLACK: f64 = 10.0;

/// Seconds one stream takes on a 2-vCPU Xeon VM, rounded up: a run of
/// `--seconds 40` measures four.
const NOMINAL_UNIT_S: f64 = 10.0;

const TRAFFIC_STREAM: u64 = 300;
const SAMPLE_STREAM: u64 = 301;

fn backend_config() -> BackendConfig {
    BackendConfig {
        dims: [4, 4, 2, 4],
        n_configs: 4,
        l5: 4,
        max_iter: 4000,
        fault_profile: None,
    }
}

fn traffic(seed: u64) -> TrafficConfig {
    TrafficConfig {
        n_requests: WINDOW * WINDOWS,
        n_tenants: 2,
        n_configs: 4,
        n_seeds: 16,
        masses: vec![0.2, 0.08],
        zipf_exponent: 1.1,
        mean_interarrival: 2,
        sharded_per_mille: 0,
        seed: derive(seed, TRAFFIC_STREAM),
    }
}

/// `repro serve`'s gateway, with a queue that holds one whole window. The
/// gateway counts hits towards an audit within one `run`, so the audit
/// interval must be below the window size for audits to run at all: every
/// 251st hit of a window is re-solved cold and compared bit for bit.
fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        queue_capacity: 2 * WINDOW,
        n_servers: 2,
        max_nrhs: 8,
        n_tenants: 2,
        drr_quantum: 1.0,
        hit_cost: 1,
        batch_base_cost: 16,
        cost_per_iteration: 4,
        cost_per_column: 2,
        audit_every: 251,
    }
}

/// The workload's generated inputs.
pub struct Setup {
    backend: Backend,
    requests: Vec<SolveRequest>,
}

impl Setup {
    pub fn generate(seed: u64) -> Result<Self, String> {
        Ok(Setup {
            backend: Backend::new(backend_config()).map_err(|e| e.to_string())?,
            requests: generate(&traffic(seed)),
        })
    }
}

/// One stream's window timings and the service's own accounting of it.
struct Unit {
    walls: Vec<f64>,
    report: ServeReport,
    cache: CacheStats,
    cg_block_applies: u64,
    solver_iters: u64,
    flops: f64,
}

/// Add one window's report into the stream's totals.
fn accumulate(total: &mut ServeReport, w: &ServeReport) {
    total.submitted += w.submitted;
    total.served += w.served;
    total.rejected += w.rejected;
    total.hits += w.hits;
    total.spill_hits += w.spill_hits;
    total.coalesced += w.coalesced;
    total.solved_keys += w.solved_keys;
    total.batches += w.batches;
    total.batched_columns += w.batched_columns;
    total.unconverged += w.unconverged;
    total.audits_passed += w.audits_passed;
    total.max_queue_depth = total.max_queue_depth.max(w.max_queue_depth);
}

/// Recompute `‖b − A x‖/‖b‖` for a seeded sample of resident entries with
/// the Wilson normal operator, from the backend's public sources and the
/// configurations regenerated as `Backend::new` seeds them (a wrong
/// regeneration shows as a failed check, never as a pass).
fn recheck_residuals(
    s: &Setup,
    configs: &[GaugeField<f64>],
    cache: &ResultCache,
    sample_seed: u64,
    ledger: &mut Ledger,
) {
    let keys: Vec<CacheKey> = cache.resident_keys();
    let lat = s.backend.lattice();
    for k in 0..RESIDUAL_SAMPLE.min(keys.len()) {
        let key = keys[(derive(sample_seed, k as u64) % keys.len() as u64) as usize];
        let config = (0..configs.len() as u32)
            .find(|&id| s.backend.config_hash(id).ok() == Some(key.config_hash));
        let (Some(id), Some((result, _))) = (config, cache.lookup(&key)) else {
            ledger.record(false, || {
                format!("resident key {key:?} has no configuration or entry")
            });
            continue;
        };
        let tol = if key.precision == Precision::Double.tag() {
            Precision::Double.tol()
        } else {
            Precision::Sloppy.tol()
        };
        let d = WilsonDirac::new(
            lat,
            &configs[id as usize],
            f64::from_bits(key.mass_bits),
            true,
        );
        let a = NormalOp::new(&d);
        let b = s.backend.source(key.source_seed, Policy::Dense);
        let mut ax = vec![Spinor::zero(); a.vec_len()];
        a.apply(&mut ax, &result.solution);
        let rel = (blas::norm_sqr(&blas::sub(&b, &ax)) / blas::norm_sqr(&b)).sqrt();
        ledger.record(result.converged && rel <= RESIDUAL_SLACK * tol, || {
            format!("resident key {key:?}: residual {rel} against tolerance {tol}")
        });
    }
}

fn serve_unit(
    s: &Setup,
    configs: &[GaugeField<f64>],
    dir: &ScratchDir,
    index: usize,
    sample_seed: u64,
    ledger: &mut Ledger,
) -> Result<Unit, String> {
    let spill = dir.path().join(format!("spill{index}"));
    std::fs::create_dir_all(&spill).map_err(|e| format!("spill dir: {e}"))?;
    let cache = ResultCache::new(CACHE_ENTRIES, Some(spill.clone()));
    let reg = Registry::new();
    let _scope = reg.install_scoped();
    let gateway = Gateway::new(&s.backend, &cache, gateway_config());
    let mut walls = Vec::with_capacity(WINDOWS);
    let mut report = ServeReport::default();
    for (w, window) in s.requests.chunks(WINDOW).enumerate() {
        let t0 = now();
        let out = gateway.run(window);
        walls.push(now() - t0);
        match out {
            Ok(r) => {
                let ok = r.served - r.unconverged;
                ledger.succeeded(ok);
                for _ in 0..r.unconverged + r.rejected {
                    ledger.record(false, || {
                        format!("window {w}: a request was refused or unconverged")
                    });
                }
                ledger.record(r.served + r.rejected == r.submitted, || {
                    format!("window {w}: served + rejected != submitted in {r:?}")
                });
                accumulate(&mut report, &r);
            }
            Err(e) => ledger.record(false, || format!("window {w}: {e}")),
        }
    }
    ledger.record(report.audits_passed > 0, || "no in-run audit ran".into());
    let cache_stats = cache.stats();
    let counter = |n: &str| reg.counter(n).get();
    let unit = Unit {
        walls,
        report,
        cache: cache_stats,
        cg_block_applies: counter("solver.cg_block.block_applies"),
        solver_iters: counter("solver.cg_block.iters") + counter("solver.cg.iters"),
        flops: reg.float_counter("solver.cg_block.flops").get()
            + reg.float_counter("solver.cg.flops").get(),
    };
    recheck_residuals(
        s,
        configs,
        &cache,
        derive(sample_seed, index as u64),
        ledger,
    );
    drop(cache);
    std::fs::remove_dir_all(&spill).ok();
    Ok(unit)
}

pub fn run(args: &Args, dir: &ScratchDir) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    let (setup, setup_s, setup_reps) = time_setup(|| Setup::generate(args.seed));
    let setup = setup?;
    let configs: Vec<GaugeField<f64>> = (0..backend_config().n_configs)
        .map(|i| GaugeField::<f64>::hot(setup.backend.lattice(), 1000 + i as u64))
        .collect();
    let tail = tail_per_mille(WINDOWS);
    assert_eq!(
        tail,
        Some(950),
        "p95 must be the deepest tail {WINDOWS} windows support"
    );
    let sample_seed = derive(args.seed, SAMPLE_STREAM);
    let mut index = 0;
    let mut unit = |ledger: &mut Ledger| {
        index += 1;
        serve_unit(&setup, &configs, dir, index, sample_seed, ledger)
    };

    if !args.trace {
        let units = (0..unit_count(args.seconds, NOMINAL_UNIT_S))
            .map(|_| unit(&mut ledger))
            .collect::<Result<Vec<_>, _>>()?;
        let stream_walls: Vec<f64> = units.iter().map(|u| u.walls.iter().sum()).collect();
        let windows: Vec<f64> = units.iter().flat_map(|u| u.walls.clone()).collect();
        let p95: Vec<f64> = units.iter().map(|u| percentile(&u.walls, 950)).collect();
        let total_wall: f64 = stream_walls.iter().sum();
        let served: u64 = units.iter().map(|u| u.report.served).sum();
        let flops: f64 = units.iter().map(|u| u.flops).sum();
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s").with_samples(setup_reps),
            Metric::new("unit_s", median(&stream_walls), "s").with_samples(units.len()),
            Metric::new("step_s_p50", median(&windows), "s").with_samples(windows.len()),
            Metric::new("solve_gflops", flops / total_wall * 1e-9, "Gflop/s"),
            Metric::new("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
        ];
        let first = &units[0];
        let details = vec![
            ("serve_rps", Json::Num(served as f64 / total_wall)),
            ("window_s_p50", Json::Num(median(&windows))),
            ("window_s_p95", Json::Num(median(&p95))),
            ("window_s_tail", tail_json(&windows)),
            ("windows", Json::from(windows.len())),
            ("streams", Json::from(units.len())),
            ("served_per_stream", Json::from(first.report.served)),
            (
                "solved_keys_per_stream",
                Json::from(first.report.solved_keys),
            ),
            ("spill_hits_per_stream", Json::from(first.report.spill_hits)),
        ];
        return Ok(Report {
            metrics,
            ledger,
            details,
        });
    }

    let (cpu0, t0) = (process_cpu_s(), now());
    let reference = unit(&mut ledger)?;
    let (cpu, wall) = (
        cpu0.zip(process_cpu_s()).map_or(f64::NAN, |(a, b)| b - a),
        now() - t0,
    );
    let traced = unit(&mut ledger)?;
    let (ref_wall, traced_wall): (f64, f64) =
        (reference.walls.iter().sum(), traced.walls.iter().sum());
    ledger.record(
        reference.report == traced.report && reference.cache == traced.cache,
        || "the service's accounting differs between two streams at one seed".into(),
    );

    let (r, c) = (&traced.report, &traced.cache);
    let served = r.served as f64;
    let mut metrics = vec![
        Metric::count("solver.iters", traced.solver_iters),
        Metric::count("solver.reliable_updates", 0),
        Metric::new("solver.self_s", 0.0, "s"),
        Metric::count("io.spills", c.spills),
        Metric::count("io.spill_hits", c.spill_hits),
        Metric::count("io.spill_rejects", c.spill_rejects),
        Metric::ratio("service.hit_ratio", (r.hits + r.spill_hits) as f64, served),
        Metric::ratio("service.spill_hit_ratio", r.spill_hits as f64, served),
        Metric::count("service.solved_keys", r.solved_keys),
        Metric::count("service.batches", r.batches),
        Metric::ratio(
            "service.batch_occupancy",
            r.batched_columns as f64,
            r.batches as f64,
        ),
        Metric::count("service.audits", r.audits_passed),
        Metric::count("service.evictions", c.evictions),
        Metric::count("service.max_queue_depth", r.max_queue_depth),
        Metric::count("service.cg_block_applies", traced.cg_block_applies),
        Metric::new(
            "service.window_s_p95",
            percentile(&reference.walls, 950),
            "s",
        )
        .with_samples(WINDOWS),
        Metric::ratio("pool.cpu_per_wall", cpu, wall),
        Metric::ratio("trace.overhead_frac", traced_wall - ref_wall, ref_wall),
    ];
    let reference_figures = Reference::measure(&Inputs::generate(args.seed));
    metrics.extend(reference_figures.metrics());
    metrics.extend(layers::zeros(&[
        &DIRAC, &CONTRACT, &COMMS, &FT, &BUNDLE_IO, &CKPT_IO,
    ]));
    let mut details = vec![
        ("untraced_stream_s", Json::Num(ref_wall)),
        ("traced_stream_s", Json::Num(traced_wall)),
        (
            "solver_self_s",
            "not separable from outside Gateway::run".into(),
        ),
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
    fn traffic_follows_the_seed() {
        let a = Setup::generate(5).expect("backend");
        let b = Setup::generate(5).expect("backend");
        let c = Setup::generate(6).expect("backend");
        assert_eq!(a.requests.len(), WINDOW * WINDOWS);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);
        assert!(a.requests.iter().all(|r| r.policy == Policy::Dense));
    }

    #[test]
    fn a_window_fits_in_one_tenant_queue() {
        let g = gateway_config();
        assert!(g.queue_capacity / g.n_tenants >= WINDOW);
        assert!(g.audit_every > 0 && (g.audit_every as usize) < WINDOW);
    }
}
