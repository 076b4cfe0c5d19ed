//! Pieces every workload shares: seed derivation, the scratch directory,
//! the set-up timer and the number of units a run measures.

use lqcd_core::comms::splitmix64;
use lqcd_core::spinor::Spinor;
use obs::{Clock, WallClock};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Seconds on the monotonic wall clock every timer of a run shares: the
/// repository's `obs::WallClock`, which keeps raw time behind its clock
/// abstraction.
pub fn now() -> f64 {
    static CLOCK: OnceLock<WallClock> = OnceLock::new();
    CLOCK.get_or_init(WallClock::new).now()
}

/// Every real component of `v`, in memory order; compare their bit
/// patterns for bit-for-bit identity (stricter than `==`, which equates
/// `-0.0` and `0.0`).
pub fn reals(v: &[Spinor<f64>]) -> impl Iterator<Item = f64> + '_ {
    v.iter().flat_map(|sp| {
        sp.s.iter()
            .flat_map(|cv| cv.c.iter().flat_map(|z| [z.re, z.im]))
    })
}

/// Independent sub-seed number `stream` of the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_add(0x7065_7266_6265_6e63)))
}

/// A directory under the working directory for the files a run writes
/// (bundles, checkpoints, cache spills); removed when dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Parent of every run's scratch directory, relative to the checkout.
    pub const ROOT: &'static str = ".perfbench-scratch";

    pub fn create(label: &str) -> std::io::Result<Self> {
        let path = Path::new(Self::ROOT).join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        // Leave the parent only if another run still uses it.
        std::fs::remove_dir(Self::ROOT).ok();
    }
}

/// Set-up repetitions: at least this many, and more while the total stays
/// under [`SETUP_MIN_TOTAL_S`], so a set-up of a few milliseconds is still
/// reported as the median of many samples.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 400;
const SETUP_MIN_TOTAL_S: f64 = 0.3;

/// Run `setup` repeatedly; keep the last result and report the median
/// wall time of one set-up with its sample count.
pub fn time_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64, usize) {
    let mut walls = Vec::new();
    let start = now();
    loop {
        let t0 = now();
        let out = setup();
        walls.push(now() - t0);
        let enough = walls.len() >= SETUP_MIN_REPS && now() - start >= SETUP_MIN_TOTAL_S;
        if enough || walls.len() >= SETUP_MAX_REPS {
            return (out, crate::stats::median(&walls), walls.len());
        }
        drop(out);
    }
}

/// Units a run of `seconds` measures: as many as fit at `nominal_unit_s`
/// each, at least one. The count follows from the arguments alone, never
/// from timing, so every run of a workload at one `--seconds` does the same
/// work (a faster build does not run extra units and grow its peak RSS).
pub fn unit_count(seconds: u64, nominal_unit_s: f64) -> usize {
    ((seconds as f64 / nominal_unit_s) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_per_stream_and_seed() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
    }

    #[test]
    fn unit_count_fills_the_run_and_never_drops_to_zero() {
        assert_eq!(unit_count(40, 20.0), 2);
        assert_eq!(unit_count(40, 10.0), 4);
        assert_eq!(unit_count(39, 20.0), 1);
        assert_eq!(unit_count(1, 20.0), 1);
    }
}
