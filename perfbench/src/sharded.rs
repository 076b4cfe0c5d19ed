//! `sharded_ft`: fault-tolerant solves over the sharded halo exchange.
//!
//! Four seed-drawn sources on the fh_propagator lattice and operator, each
//! solved by `cg_ft` on the Möbius normal equations over `ShardedNormal`
//! on a 2×2×1×1 rank grid, with the chaos sweep's `mild` wire faults
//! (seeded per source from the workload seed), checkpoints every ten
//! iterations written through `lattice_io::CheckpointStore`, and the comm
//! policy fixed to the one the solve service uses.

use crate::common::{derive, now, reals, time_setup, unit_count, ScratchDir};
use crate::fh::{Inputs, Reference};
use crate::layers::{self, BUNDLE_IO, CONTRACT, DIRAC, SERVICE, SPILL_IO};
use crate::report::{Ledger, Metric, Report};
use crate::stats::{median, tail_json};
use crate::trace::{peak_rss_mib, process_cpu_s, Tally, TimedFallible};
use crate::Args;
use lattice_io::CheckpointStore;
use lqcd_core::blas;
use lqcd_core::comms::{
    policy_from_index, CommFaultProfile, CommFaultStats, CommRetryPolicy, CommStats, ShardedNormal,
};
use lqcd_core::dirac::{LinearOp, MobiusDirac, NormalOp};
use lqcd_core::field::FermionField;
use lqcd_core::solver::{cg_ft, CgCheckpoint, CgParams, CheckpointSink, FtParams, SolverOutcome};
use lqcd_core::spinor::Spinor;
use obs::{Json, Registry};

/// Rank grid and accelerators per node of the sharded operator.
const GRID: [usize; 4] = [2, 2, 1, 1];
const GPUS_PER_NODE: usize = 4;
const N_SOURCES: u64 = 4;
const TOL: f64 = 1e-8;
const MAX_ITER: usize = 20_000;
/// Bound on `‖b − A x‖/‖b‖` recomputed with the dense normal operator: the
/// recurrence stops at 1e-8, and rounding drift is allowed one decade.
const TRUE_RESIDUAL_BOUND: f64 = 1e-7;

/// Seconds the four solves take on a 2-vCPU Xeon VM, rounded up: a run of
/// `--seconds 40` measures two sets.
const NOMINAL_UNIT_S: f64 = 20.0;

const SOURCE_STREAM: u64 = 100;
const FAULT_STREAM: u64 = 200;

/// The `mild` wire-fault intensity of `repro chaos` and `repro serve`:
/// every fault class active, all healable by NACK/retransmit.
fn mild_faults(seed: u64) -> CommFaultProfile {
    CommFaultProfile {
        corrupt_prob: 0.03,
        drop_prob: 0.03,
        duplicate_prob: 0.025,
        reorder_prob: 0.025,
        delay_prob: 0.05,
        seed,
        ..CommFaultProfile::default()
    }
}

/// Wire-fault seed of source `i`.
fn fault_seed(seed: u64, i: usize) -> u64 {
    derive(seed, FAULT_STREAM + i as u64)
}

/// The workload's generated inputs.
pub struct Setup {
    inp: Inputs,
    sources: Vec<Vec<Spinor<f64>>>,
}

impl Setup {
    pub fn generate(seed: u64) -> Self {
        let inp = Inputs::generate(seed);
        let n = inp.params.l5 * inp.lat.volume();
        let sources = (0..N_SOURCES)
            .map(|i| FermionField::<f64>::gaussian(n, derive(seed, SOURCE_STREAM + i)).data)
            .collect();
        Setup { inp, sources }
    }
}

/// Writes each checkpoint through a two-slot `CheckpointStore`.
struct StoreSink<'a> {
    store: CheckpointStore,
    tally: Option<&'a Tally>,
    bytes: u64,
}

impl CheckpointSink<f64> for StoreSink<'_> {
    fn store(&mut self, ckpt: &CgCheckpoint<f64>) -> Result<(), String> {
        let data = ckpt.to_f64_vec();
        self.bytes += 8 * data.len() as u64;
        let store = &mut self.store;
        let mut save = || store.save(&data).map_err(|e| format!("{e:?}"));
        match self.tally {
            Some(t) => t.time(save),
            None => save(),
        }
    }
}

/// One fault-tolerant solve's outcome and what its layers recorded.
struct Solve {
    wall: f64,
    outcome: SolverOutcome,
    x: Vec<Spinor<f64>>,
    comm: CommStats,
    faults: CommFaultStats,
    ckpt_bytes: u64,
}

/// Timers of the traced unit.
#[derive(Default)]
struct Tallies {
    comms: Tally,
    ckpt: Tally,
}

fn injected(f: &CommFaultStats) -> u64 {
    f.injected_corruptions
        + f.injected_drops
        + f.injected_duplicates
        + f.injected_reorders
        + f.injected_delays
}

/// Solve source `i`: bind the sharded operator, inject the wire faults,
/// run `cg_ft` with checkpoints through the store.
fn ft_solve(
    s: &Setup,
    i: usize,
    seed: u64,
    dir: &ScratchDir,
    tallies: Option<&Tallies>,
) -> Result<Solve, String> {
    let inp = &s.inp;
    let b = &s.sources[i];
    let t0 = now();
    let mut op = ShardedNormal::new(
        &inp.lat,
        &inp.gauge,
        inp.params,
        GRID,
        GPUS_PER_NODE,
        policy_from_index(0),
    )
    .ok_or("the rank grid does not decompose the lattice")?;
    op.set_fault_profile(mild_faults(fault_seed(seed, i)), CommRetryPolicy::default());
    let mut sink = StoreSink {
        store: CheckpointStore::new(&dir.path().join(format!("ckpt{i}")), "sharded_ft"),
        tally: tallies.map(|t| &t.ckpt),
        bytes: 0,
    };
    let ft = FtParams {
        cg: CgParams {
            tol: TOL,
            max_iter: MAX_ITER,
        },
        checkpoint_every: 10,
        max_comm_restarts: 24,
        max_total_iters: 4 * MAX_ITER,
    };
    let mut x = vec![Spinor::zero(); b.len()];
    let outcome = match tallies {
        Some(t) => {
            let mut timed = TimedFallible {
                inner: &mut op,
                tally: &t.comms,
            };
            cg_ft(&mut timed, &mut x, b, &ft, Some(&mut sink))
        }
        None => cg_ft(&mut op, &mut x, b, &ft, Some(&mut sink)),
    };
    let wall = now() - t0;
    Ok(Solve {
        wall,
        outcome,
        x,
        comm: op.mobius_mut().hopping_mut().stats(),
        faults: op.fault_stats(),
        ckpt_bytes: sink.bytes,
    })
}

/// Four solves; each is gated on convergence, its true residual under the
/// dense operator, and faults having actually been injected.
fn ft_unit(
    s: &Setup,
    seed: u64,
    dir: &ScratchDir,
    ledger: &mut Ledger,
    tallies: Option<&Tallies>,
) -> Result<(f64, Vec<Solve>), String> {
    let reg = Registry::new();
    let _scope = reg.install_scoped();
    let t0 = now();
    let solves = (0..s.sources.len())
        .map(|i| ft_solve(s, i, seed, dir, tallies))
        .collect::<Result<Vec<_>, _>>()?;
    let wall = now() - t0;

    let dense = MobiusDirac::new(&s.inp.lat, &s.inp.gauge, s.inp.params);
    let normal = NormalOp::new(&dense);
    for (i, (solve, b)) in solves.iter().zip(&s.sources).enumerate() {
        ledger.record(solve.outcome.is_converged(), || {
            format!("source {i}: {:?}", solve.outcome)
        });
        let mut ax = vec![Spinor::zero(); normal.vec_len()];
        normal.apply(&mut ax, &solve.x);
        let r = blas::sub(b, &ax);
        let true_res = (blas::norm_sqr(&r) / blas::norm_sqr(b)).sqrt();
        ledger.record(true_res <= TRUE_RESIDUAL_BOUND, || {
            format!("source {i}: true residual {true_res} exceeds {TRUE_RESIDUAL_BOUND}")
        });
        ledger.record(injected(&solve.faults) > 0, || {
            format!("source {i}: no wire fault was injected, recovery went unexercised")
        });
    }
    Ok((wall, solves))
}

pub fn run(args: &Args, dir: &ScratchDir) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    let (setup, setup_s, setup_reps) = time_setup(|| Setup::generate(args.seed));

    if !args.trace {
        let units = (0..unit_count(args.seconds, NOMINAL_UNIT_S))
            .map(|_| ft_unit(&setup, args.seed, dir, &mut ledger, None))
            .collect::<Result<Vec<_>, _>>()?;
        let walls: Vec<f64> = units.iter().map(|u| u.0).collect();
        let solves: Vec<&Solve> = units.iter().flat_map(|u| &u.1).collect();
        let solve_walls: Vec<f64> = solves.iter().map(|s| s.wall).collect();
        let flops: f64 = solves.iter().map(|s| s.outcome.stats().flops).sum();
        let first = &units[0].1;
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
            ("ft_solve_s_p50", Json::Num(median(&solve_walls))),
            ("ft_solves", Json::from(solve_walls.len())),
            ("ft_solve_s_tail", tail_json(&solve_walls)),
            (
                "iterations",
                Json::Arr(
                    first
                        .iter()
                        .map(|s| Json::from(s.outcome.stats().iterations))
                        .collect(),
                ),
            ),
            (
                "faults_injected",
                Json::Arr(
                    first
                        .iter()
                        .map(|s| Json::from(injected(&s.faults)))
                        .collect(),
                ),
            ),
        ];
        return Ok(Report {
            metrics,
            ledger,
            details,
        });
    }

    let cpu0 = process_cpu_s();
    let (ref_wall, reference) = ft_unit(&setup, args.seed, dir, &mut ledger, None)?;
    let cpu = cpu0.zip(process_cpu_s()).map_or(f64::NAN, |(a, b)| b - a);
    let t = Tallies::default();
    let (traced_wall, traced) = ft_unit(&setup, args.seed, dir, &mut ledger, Some(&t))?;

    for (i, (a, b)) in traced.iter().zip(&reference).enumerate() {
        let same = reals(&a.x)
            .map(f64::to_bits)
            .eq(reals(&b.x).map(f64::to_bits));
        ledger.record(same, || {
            format!("source {i}: traced solution differs from the untraced one")
        });
    }

    let sum = |f: &dyn Fn(&Solve) -> u64| traced.iter().map(f).sum::<u64>();
    let messages = sum(&|s| s.comm.messages);
    let retries = sum(&|s| s.faults.retries);
    let iters = sum(&|s| s.outcome.stats().iterations as u64);
    let restarts = sum(&|s| match s.outcome {
        SolverOutcome::Converged { restarts, .. }
        | SolverOutcome::MaxIterations { restarts, .. }
        | SolverOutcome::Failed { restarts, .. } => restarts as u64,
    });
    let wall: f64 = traced.iter().map(|s| s.wall).sum();
    let reference_figures = Reference::measure(&setup.inp);
    let dense_apply_s = reference_figures.dense_apply_s;
    let (applies, busy) = (t.comms.calls(), t.comms.busy_s());

    let mut metrics = vec![
        Metric::count("solver.iters", iters),
        Metric::count("solver.reliable_updates", 0),
        Metric::new("solver.self_s", wall - busy - t.ckpt.busy_s(), "s"),
        Metric::count("comms.applies", applies),
        Metric::new("comms.busy_s", busy, "s"),
        Metric::ratio(
            "comms.overhead_frac",
            busy - applies as f64 * dense_apply_s,
            busy,
        ),
        Metric::count("comms.messages", messages),
        Metric::new("comms.bytes_sent", sum(&|s| s.comm.bytes_sent) as f64, "B"),
        Metric::new(
            "comms.bytes_packed",
            sum(&|s| s.comm.bytes_packed) as f64,
            "B",
        ),
        Metric::count("comms.copies", sum(&|s| s.comm.copies)),
        Metric::count("comms.retries", retries),
        Metric::count("comms.crc_failures", sum(&|s| s.faults.crc_failures)),
        Metric::count("comms.timeouts", sum(&|s| s.faults.timeouts)),
        Metric::count(
            "comms.duplicates_dropped",
            sum(&|s| s.faults.duplicates_dropped),
        ),
        Metric::ratio(
            "comms.delivery_ratio",
            messages as f64,
            (messages + retries) as f64,
        ),
        Metric::count("ft.applies", iters),
        Metric::count("ft.restarts", restarts),
        Metric::count(
            "ft.checkpoints",
            sum(&|s| s.outcome.stats().checkpoints as u64),
        ),
        Metric::count("io.ckpt_writes", t.ckpt.calls()),
        Metric::new("io.ckpt_write_s", t.ckpt.busy_s(), "s"),
        Metric::new("io.ckpt_bytes", sum(&|s| s.ckpt_bytes) as f64, "B"),
        Metric::ratio("pool.cpu_per_wall", cpu, ref_wall),
        Metric::ratio("trace.overhead_frac", traced_wall - ref_wall, ref_wall),
    ];
    metrics.extend(reference_figures.metrics());
    metrics.extend(layers::zeros(&[
        &DIRAC, &CONTRACT, &BUNDLE_IO, &SPILL_IO, &SERVICE,
    ]));
    let mut details = vec![
        ("untraced_unit_s", Json::Num(ref_wall)),
        ("traced_unit_s", Json::Num(traced_wall)),
        (
            "injected_faults",
            Json::from(traced.iter().map(|s| injected(&s.faults)).sum::<u64>()),
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
    fn sources_and_fault_seeds_follow_the_seed() {
        let (a, b, c) = (Setup::generate(5), Setup::generate(5), Setup::generate(6));
        assert_eq!(a.sources, b.sources);
        assert_ne!(a.sources, c.sources);
        assert_ne!(
            a.sources[0], a.sources[1],
            "sources within a run are distinct"
        );
        assert_eq!(fault_seed(5, 0), fault_seed(5, 0));
        assert_ne!(fault_seed(5, 0), fault_seed(6, 0));
        assert_ne!(fault_seed(5, 0), fault_seed(5, 1));
    }
}
