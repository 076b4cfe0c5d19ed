//! The run manifest: what produced a benchmark's numbers.

use obs::Json;
use std::path::Path;

/// Which kernel bodies `lqcd-core` dispatches in this build on this CPU.
pub fn dispatched_kernels(avx2_dispatched: bool) -> &'static str {
    if avx2_dispatched {
        "avx2"
    } else {
        "portable"
    }
}

/// The `lqcd-core` feature set as far as it can be observed at run time:
/// the AVX2 kernels dispatch only when `arch-simd` is on and the CPU has
/// AVX2, so on an AVX2 CPU their absence proves the feature is off.
pub fn core_features(avx2_dispatched: bool, cpu_avx2: bool) -> &'static str {
    match (avx2_dispatched, cpu_avx2) {
        (true, _) => "arch-simd",
        (false, true) => "default (arch-simd off)",
        (false, false) => "default (arch-simd not observable: CPU lacks AVX2)",
    }
}

fn cpu_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The highest-level CPU cache of cpu0, e.g. `L3 307200K`.
fn last_level_cache() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut best: Option<(u32, String)> = None;
    for i in 0..16 {
        let dir = base.join(format!("index{i}"));
        let (Some(level), Some(size)) = (read(&dir.join("level")), read(&dir.join("size"))) else {
            continue;
        };
        let Ok(level) = level.parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size));
        }
    }
    best.map_or_else(|| "unknown".into(), |(l, s)| format!("L{l} {s}"))
}

/// The commit checked out in the working directory, read from `.git`;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{refname}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {refname}"))
}

/// The manifest for a run of `workload` at `seed`.
pub fn manifest(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let avx2 = lqcd_core::simd::avx2_detected();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("workload", workload.into()),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::Bool(trace)),
        ("pool_width", Json::from(rayon::current_num_threads())),
        ("nproc", Json::from(nproc)),
        ("cpu_model", cpu_model().into()),
        ("llc", last_level_cache().into()),
        ("dispatched_kernels", dispatched_kernels(avx2).into()),
        ("avx2_detected", Json::Bool(avx2)),
        (
            "lqcd_core_features",
            core_features(avx2, cpu_has_avx2()).into(),
        ),
        ("git_rev", git_rev().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_records_the_dispatched_kernels() {
        let m = manifest("fh_propagator", 7, 10, false);
        let avx2 = lqcd_core::simd::avx2_detected();
        assert_eq!(m.get("avx2_detected").and_then(Json::as_bool), Some(avx2));
        assert_eq!(
            m.get("dispatched_kernels").and_then(Json::as_str),
            Some(dispatched_kernels(avx2))
        );
        // The benchmark builds lqcd-core with default features only.
        assert!(!avx2, "arch-simd leaked into the benchmark build");
        assert_eq!(m.get("seed").and_then(Json::as_u64), Some(7));
        for key in [
            "pool_width",
            "nproc",
            "cpu_model",
            "llc",
            "lqcd_core_features",
            "git_rev",
        ] {
            assert!(m.get(key).is_some(), "manifest lacks {key}");
        }
        let width = m.get("pool_width").and_then(Json::as_u64).unwrap();
        assert!(width <= m.get("nproc").and_then(Json::as_u64).unwrap());
    }

    #[test]
    fn features_follow_dispatch() {
        assert_eq!(dispatched_kernels(true), "avx2");
        assert_eq!(dispatched_kernels(false), "portable");
        assert_eq!(core_features(true, true), "arch-simd");
        assert_eq!(core_features(false, true), "default (arch-simd off)");
    }
}
