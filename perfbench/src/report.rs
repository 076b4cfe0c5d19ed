//! Metrics, failure accounting and the benchmark's output lines.
//!
//! A run prints a manifest line, a detail line and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. The result line carries
//! only `value` and `unit` per metric; the detail line repeats every metric
//! with its base (numerator and denominator of a ratio) and its sample
//! count, plus the failure messages and workload-specific figures.

use obs::Json;

/// The unit every ratio carries; only [`Metric::ratio`] produces it.
pub const RATIO: &str = "ratio";

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// `(numerator, denominator)` of a ratio.
    pub base: Option<(f64, f64)>,
    /// How many samples a median or percentile was taken over.
    pub samples: Option<usize>,
}

impl Metric {
    /// A plain measurement (not a ratio: use [`Metric::ratio`] for those).
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        assert_ne!(unit, RATIO, "{name}: ratios must be built with their base");
        Metric {
            name,
            value,
            unit,
            base: None,
            samples: None,
        }
    }

    /// A count, reported as a number with unit `count`.
    pub fn count(name: &'static str, n: u64) -> Self {
        Metric::new(name, n as f64, "count")
    }

    /// `num / den` with its base; 0 when the denominator is 0 (the layer
    /// did no work on this workload).
    pub fn ratio(name: &'static str, num: f64, den: f64) -> Self {
        Metric {
            name,
            value: if den == 0.0 { 0.0 } else { num / den },
            unit: RATIO,
            base: Some((num, den)),
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Self {
        self.samples = Some(n);
        self
    }

    fn detail_json(&self) -> Json {
        let mut pairs = vec![("value", Json::Num(self.value)), ("unit", self.unit.into())];
        if let Some((num, den)) = self.base {
            pairs.push(("num", Json::Num(num)));
            pairs.push(("den", Json::Num(den)));
        }
        if let Some(n) = self.samples {
            pairs.push(("samples", Json::from(n)));
        }
        Json::obj(pairs)
    }
}

/// Operations attempted and the ones that failed, with a reason each.
#[derive(Default, Debug)]
pub struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Account one operation (a solve, a request, a correctness check);
    /// `why` names it when it failed.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// Account `n` operations that all succeeded.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Everything one run reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    /// Workload-specific figures for the detail line.
    pub details: Vec<(&'static str, Json)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.ledger.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The detail line: every metric with base and sample count, the
    /// failure ratio with its base, failures, and workload figures.
    pub fn detail_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| (m.name.to_string(), m.detail_json()))
                .collect(),
        );
        let failed_frac = Metric::ratio(
            "failed_frac",
            self.ledger.failed() as f64,
            self.ledger.attempted() as f64,
        );
        let mut pairs = vec![
            ("metrics", metrics),
            ("failed_frac", failed_frac.detail_json()),
            (
                "failures",
                Json::Arr(
                    self.ledger
                        .failures
                        .iter()
                        .map(|f| f.as_str().into())
                        .collect(),
                ),
            ),
        ];
        pairs.extend(self.details.iter().cloned());
        Json::obj(vec![("detail", Json::obj(pairs))]).to_string()
    }

    /// The result line the benchmark ends with.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let v = Json::obj(vec![("value", Json::Num(m.value)), ("unit", m.unit.into())]);
                    (m.name.to_string(), v)
                })
                .collect(),
        );
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.ledger.attempted().max(1))),
            ("failed", Json::from(self.ledger.failed())),
            ("metrics", metrics),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ratio_is_reported_with_its_base() {
        let mut ledger = Ledger::default();
        ledger.record(true, String::new);
        ledger.record(false, || "column 3 did not converge".into());
        let report = Report {
            metrics: vec![
                Metric::new("unit_s", 1.5, "s").with_samples(2),
                Metric::ratio("service.hit_ratio", 3.0, 4.0),
                Metric::ratio("comms.delivery_ratio", 0.0, 0.0),
            ],
            ledger,
            details: vec![],
        };
        let detail = Json::parse(&report.detail_line()).expect("detail line is JSON");
        let detail = detail.get("detail").expect("detail key");
        for m in &report.metrics {
            let d = detail
                .get_path(&["metrics", m.name])
                .expect("metric present");
            let is_ratio = d.get("unit").and_then(Json::as_str) == Some(RATIO);
            assert_eq!(is_ratio, d.get("num").is_some() && d.get("den").is_some());
        }
        let hit = detail.get_path(&["metrics", "service.hit_ratio"]).unwrap();
        assert_eq!(hit.get("value").and_then(Json::as_f64), Some(0.75));
        assert_eq!(hit.get("den").and_then(Json::as_f64), Some(4.0));
        let ff = detail.get("failed_frac").expect("failed_frac with base");
        assert_eq!(ff.get("num").and_then(Json::as_f64), Some(1.0));
        assert_eq!(ff.get("den").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "ratios must be built with their base")]
    fn a_ratio_without_base_is_refused() {
        Metric::new("x", 0.5, RATIO);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut ledger = Ledger::default();
        ledger.succeeded(3);
        let report = Report {
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            ledger,
            details: vec![],
        };
        let line = Json::parse(&report.result_line()).expect("result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let m = line.get_path(&["metrics", "setup_s"]).unwrap();
        let mkeys: Vec<&str> = m
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(mkeys, ["value", "unit"]);
    }
}
