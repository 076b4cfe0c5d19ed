//! The metric tables: every end-to-end metric an untraced run reports and
//! every per-layer metric a traced run reports, on every workload.
//! `BENCHMARK.json` lists the same tables; a test keeps them in step.

use crate::report::{Metric, RATIO};

/// One metric's declaration.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that checks `BENCHMARK.json` against the tables.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. A "unit" is one FH
/// propagator, one set of four fault-tolerant solves, or one 65 536-request
/// stream; a "step" is one column solve, one fault-tolerant solve, or one
/// 256-request gateway window. Tail percentiles are in the detail line
/// only: the serve window p95 spread too widely across seeds to carry a
/// bound.
pub const END_TO_END: [Def; 5] = [
    def("setup_s", "s", "lower"),
    def("unit_s", "s", "lower"),
    def("step_s_p50", "s", "lower"),
    def("solve_gflops", "Gflop/s", "higher"),
    def("peak_rss_mb", "MiB", "lower"),
];

pub const DIRAC: [&str; 8] = [
    "dirac.f64.applies",
    "dirac.f64.busy_s",
    "dirac.f32.applies",
    "dirac.f32.busy_s",
    "dirac.gflops",
    "dirac.bytes_per_apply",
    "dirac.flops_per_byte",
    "dirac.share",
];
pub const CONTRACT: [&str; 1] = ["contract.busy_s"];
/// The comms layer's own counters; `comms.dense_apply_s` is a reference
/// every traced run measures.
pub const COMMS: [&str; 12] = [
    "comms.applies",
    "comms.busy_s",
    "comms.overhead_frac",
    "comms.messages",
    "comms.bytes_sent",
    "comms.bytes_packed",
    "comms.copies",
    "comms.retries",
    "comms.crc_failures",
    "comms.timeouts",
    "comms.duplicates_dropped",
    "comms.delivery_ratio",
];
pub const FT: [&str; 3] = ["ft.applies", "ft.restarts", "ft.checkpoints"];
pub const BUNDLE_IO: [&str; 3] = ["io.bundle_write_s", "io.bundle_read_s", "io.bundle_bytes"];
pub const CKPT_IO: [&str; 3] = ["io.ckpt_writes", "io.ckpt_write_s", "io.ckpt_bytes"];
pub const SPILL_IO: [&str; 3] = ["io.spills", "io.spill_hits", "io.spill_rejects"];
pub const SERVICE: [&str; 10] = [
    "service.hit_ratio",
    "service.spill_hit_ratio",
    "service.solved_keys",
    "service.batches",
    "service.batch_occupancy",
    "service.audits",
    "service.evictions",
    "service.max_queue_depth",
    "service.cg_block_applies",
    "service.window_s_p95",
];

/// Per-layer metrics, measured in a traced run. A layer the workload
/// bypasses reports zero work.
pub const PER_LAYER: [Def; 50] = [
    def("dirac.f64.applies", "count", "lower"),
    def("dirac.f64.busy_s", "s", "lower"),
    def("dirac.f32.applies", "count", "lower"),
    def("dirac.f32.busy_s", "s", "lower"),
    def("dirac.gflops", "Gflop/s", "higher"),
    def("dirac.bytes_per_apply", "B", "lower"),
    def("dirac.flops_per_byte", "flop/B", "higher"),
    def("dirac.share", RATIO, "lower"),
    def("solver.iters", "count", "lower"),
    def("solver.reliable_updates", "count", "lower"),
    def("solver.self_s", "s", "lower"),
    def("contract.busy_s", "s", "lower"),
    def("comms.applies", "count", "lower"),
    def("comms.busy_s", "s", "lower"),
    def("comms.dense_apply_s", "s", "lower"),
    def("comms.overhead_frac", RATIO, "lower"),
    def("comms.messages", "count", "lower"),
    def("comms.bytes_sent", "B", "lower"),
    def("comms.bytes_packed", "B", "lower"),
    def("comms.copies", "count", "lower"),
    def("comms.retries", "count", "lower"),
    def("comms.crc_failures", "count", "lower"),
    def("comms.timeouts", "count", "lower"),
    def("comms.duplicates_dropped", "count", "lower"),
    def("comms.delivery_ratio", RATIO, "higher"),
    def("ft.applies", "count", "lower"),
    def("ft.restarts", "count", "lower"),
    def("ft.checkpoints", "count", "lower"),
    def("io.bundle_write_s", "s", "lower"),
    def("io.bundle_read_s", "s", "lower"),
    def("io.bundle_bytes", "B", "lower"),
    def("io.ckpt_writes", "count", "lower"),
    def("io.ckpt_write_s", "s", "lower"),
    def("io.ckpt_bytes", "B", "lower"),
    def("io.spills", "count", "lower"),
    def("io.spill_hits", "count", "lower"),
    def("io.spill_rejects", "count", "lower"),
    def("service.hit_ratio", RATIO, "higher"),
    def("service.spill_hit_ratio", RATIO, "lower"),
    def("service.solved_keys", "count", "lower"),
    def("service.batches", "count", "lower"),
    def("service.batch_occupancy", RATIO, "higher"),
    def("service.audits", "count", "lower"),
    def("service.evictions", "count", "lower"),
    def("service.max_queue_depth", "count", "lower"),
    def("service.cg_block_applies", "count", "lower"),
    def("service.window_s_p95", "s", "lower"),
    def("pool.cpu_per_wall", RATIO, "higher"),
    def("pool.speedup_w2", RATIO, "higher"),
    def("trace.overhead_frac", RATIO, "lower"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map_or_else(|| panic!("{name} is in no metric table"), |d| d.unit)
}

/// The metrics of layers a workload bypasses: zero work, zero time.
pub fn zeros(groups: &[&[&'static str]]) -> Vec<Metric> {
    groups
        .iter()
        .flat_map(|g| g.iter())
        .map(|&n| match unit_of(n) {
            RATIO => Metric::ratio(n, 0.0, 0.0),
            unit => Metric::new(n, 0.0, unit),
        })
        .collect()
}

/// Put `metrics` in table order, checking that they are exactly the
/// table's metrics with the table's units.
pub fn conform(metrics: &mut [Metric], table: &[Def]) -> Result<(), String> {
    let pos = |name: &str| table.iter().position(|d| d.name == name);
    for m in metrics.iter() {
        let i = pos(m.name).ok_or_else(|| format!("{} is not in the metric table", m.name))?;
        if table[i].unit != m.unit {
            return Err(format!(
                "{} has unit {}, table says {}",
                m.name, m.unit, table[i].unit
            ));
        }
    }
    metrics.sort_by_key(|m| pos(m.name));
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = table.iter().map(|d| d.name).collect();
    if names != want {
        return Err(format!("metrics {names:?} do not match the table {want:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Json;

    /// `BENCHMARK.json` declares exactly the tables the code reports.
    #[test]
    fn benchmark_json_lists_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, d) in listed.iter().zip(table) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    j.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::Workload::NAMES);
    }

    #[test]
    fn layer_groups_are_per_layer_metrics() {
        let groups: [&[&str]; 8] = [
            &DIRAC, &CONTRACT, &COMMS, &FT, &BUNDLE_IO, &CKPT_IO, &SPILL_IO, &SERVICE,
        ];
        for n in groups.iter().flat_map(|g| g.iter()) {
            assert!(PER_LAYER.iter().any(|d| d.name == *n), "{n}");
        }
    }

    #[test]
    fn conform_orders_and_rejects_strays() {
        let mut ms = vec![
            Metric::new("unit_s", 1.0, "s"),
            Metric::new("setup_s", 0.1, "s"),
        ];
        assert!(conform(&mut ms, &END_TO_END).is_err(), "missing metrics");
        let mut ms: Vec<Metric> = END_TO_END
            .iter()
            .rev()
            .map(|d| Metric::new(d.name, 1.0, d.unit))
            .collect();
        conform(&mut ms, &END_TO_END).expect("complete set");
        assert_eq!(ms[0].name, "setup_s");
        ms.push(Metric::new("stray", 1.0, "s"));
        assert!(conform(&mut ms, &END_TO_END).is_err());
    }
}
