//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fh_propagator|sharded_ft|serve_zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root; files are written only under
//! `.perfbench-scratch/` there and removed at exit. Standard output is a
//! manifest line, a detail line, and last the result line
//! `{"correct", "attempted", "failed", "metrics"}`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. The exit code
//! is 0 for a correct run, 1 when a correctness gate failed or the run could
//! not complete, and 2 for a usage error. See `perfbench/README.md`.

mod common;
mod fh;
mod layers;
mod manifest;
mod report;
mod serve;
mod sharded;
mod stats;
mod trace;

use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FhPropagator,
    ShardedFt,
    ServeZipf,
}

impl Workload {
    pub const NAMES: [&'static str; 3] = ["fh_propagator", "sharded_ft", "serve_zipf"];
    const ALL: [Workload; 3] = [
        Workload::FhPropagator,
        Workload::ShardedFt,
        Workload::ServeZipf,
    ];

    fn parse(s: &str) -> Option<Self> {
        Self::NAMES
            .iter()
            .position(|&n| n == s)
            .map(|i| Self::ALL[i])
    }

    fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <fh_propagator|sharded_ft|serve_zipf> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<report::Report, String> {
    let dir = common::ScratchDir::create(args.workload.name())
        .map_err(|e| format!("cannot create the scratch directory: {e}"))?;
    let mut report = match args.workload {
        Workload::FhPropagator => fh::run(args, &dir)?,
        Workload::ShardedFt => sharded::run(args, &dir)?,
        Workload::ServeZipf => serve::run(args, &dir)?,
    };
    let table = if args.trace {
        &layers::PER_LAYER[..]
    } else {
        &layers::END_TO_END[..]
    };
    layers::conform(&mut report.metrics, table)?;
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = manifest::manifest(args.workload.name(), args.seed, args.seconds, args.trace);
    println!("{}", obs::Json::obj(vec![("manifest", manifest)]));
    match run(&args) {
        Ok(report) => {
            println!("{}", report.detail_line());
            println!("{}", report.result_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: a correctness gate failed; see the detail line");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload serve_zipf --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeZipf);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10, true));
        for w in Workload::NAMES {
            let a = parse_args(&argv(&format!(
                "--workload {w} --seed 1 --seconds 1 --trace 0"
            )));
            assert_eq!(a.unwrap().workload.name(), w);
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fh_propagator --seed x --seconds 1 --trace 0",
            "--workload fh_propagator --seed 1 --seconds 1 --trace 2",
            "--workload fh_propagator --seed 1 --seconds 1",
            "--workload fh_propagator --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
