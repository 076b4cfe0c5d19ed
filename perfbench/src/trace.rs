//! Timers and counters wrapped around the layers' public entry points.
//!
//! The wrappers forward every call unchanged, so a traced solve runs the
//! identical arithmetic; the workloads assert that bit-for-bit. They are
//! used only by traced runs: end-to-end figures come from runs without
//! them.

use crate::common::now;
use lqcd_core::comms::CommError;
use lqcd_core::dirac::LinearOp;
use lqcd_core::real::Real;
use lqcd_core::solver::FallibleOp;
use lqcd_core::spinor::Spinor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls into one layer and the wall time spent inside them.
///
/// Atomics because [`LinearOp`] requires `Sync`.
#[derive(Default, Debug)]
pub struct Tally {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Tally {
    /// Run `f`, counting one call and its wall time.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = now();
        let out = f();
        self.add(((now() - t0) * 1e9) as u64);
        out
    }

    fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.busy_ns.fetch_add(ns, Ordering::SeqCst);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::SeqCst) as f64 * 1e-9
    }
}

/// A [`LinearOp`] that times every apply of the operator it wraps.
pub struct TimedOp<'a, O> {
    pub inner: &'a O,
    pub tally: &'a Tally,
}

impl<R: Real, O: LinearOp<R>> LinearOp<R> for TimedOp<'_, O> {
    fn vec_len(&self) -> usize {
        self.inner.vec_len()
    }

    fn apply(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
        self.tally.time(|| self.inner.apply(out, inp));
    }

    fn flops_per_apply(&self) -> f64 {
        self.inner.flops_per_apply()
    }
}

/// A [`FallibleOp`] that times every apply, failed ones included.
pub struct TimedFallible<'a, O> {
    pub inner: &'a mut O,
    pub tally: &'a Tally,
}

impl<R: Real, O: FallibleOp<R>> FallibleOp<R> for TimedFallible<'_, O> {
    fn vec_len(&self) -> usize {
        self.inner.vec_len()
    }

    fn apply(&mut self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) -> Result<(), CommError> {
        let inner = &mut *self.inner;
        self.tally.time(|| inner.apply(out, inp))
    }

    fn flops_per_apply(&self) -> f64 {
        self.inner.flops_per_apply()
    }

    fn recover(&mut self, err: &CommError) -> Result<(), CommError> {
        self.inner.recover(err)
    }
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`; `None` where that file is unavailable. Linux reports
/// these fields in `USER_HZ` ticks, which is 100 on every architecture it
/// exposes to user space.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set (`VmHWM`) in MiB; `None` where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_probes_read_positive_values() {
        let cpu0 = process_cpu_s().expect("/proc/self/stat");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s().unwrap() >= cpu0);
        assert!(peak_rss_mib().expect("/proc/self/status") > 0.0);
    }

    #[test]
    fn tally_counts_calls_and_time() {
        let t = Tally::default();
        let v = t.time(|| 7);
        t.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert_eq!(v, 7);
        assert_eq!(t.calls(), 2);
        assert!(t.busy_s() >= 0.002);
    }
}
