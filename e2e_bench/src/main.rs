//! End-to-end benchmark of the NM-SpMM stack.
//!
//! ```sh
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload prefill --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (`prefill`, `decode` or `serve`) built from the
//! seed, checks every output apart from the program, and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`, which also writes the spans to
//! `e2e_bench/out/spans-<workload>-<seed>.jsonl`. `BENCHMARK.json` lists
//! `decode` and `serve` only; a traced `decode` run also makes a short
//! prefill run (the GEMM probe) for the `kernels.forward.*` metrics and
//! writes its spans to `spans-decode-gemm-probe-<seed>.jsonl`.

mod model;
mod oracle;
mod report;
mod serve;
mod setup;
mod stack;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str =
    "usage: nm-e2e-bench --workload <prefill|decode|serve> --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["prefill", "decode", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Names of every `NM_SPMM_*` variable in `vars`: any of them could
/// change the backend, ISA, storage or autotune mode being measured.
fn overrides(vars: impl Iterator<Item = String>) -> Vec<String> {
    vars.filter(|k| k.starts_with("NM_SPMM_")).collect()
}

fn main() -> ExitCode {
    let set = overrides(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()));
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: an inherited override would change what is measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::new();
    let seconds = args.seconds as f64;
    let run = match args.workload.as_str() {
        "prefill" => stack::prefill(args.seed, seconds, &mut tracer, &mut report),
        "decode" => stack::decode(args.seed, seconds, &mut tracer, &mut report),
        _ => serve::serve(args.seed, seconds, &mut tracer, &mut report),
    };
    if let Err(e) = run {
        eprintln!("{} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    let mut tracers = vec![(args.workload.clone(), tracer)];
    if args.trace && args.workload == "decode" {
        println!("# GEMM probe: a short prefill run for the kernels.forward metrics");
        match stack::gemm_probe(args.seed, &mut report) {
            Ok(t) => tracers.push(("decode-gemm-probe".into(), t)),
            Err(e) => {
                eprintln!("GEMM probe failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    // After the run: the worker cap is whatever the workload's sessions set.
    let isa = nm_kernels::MicroKernel::select().map_or("unavailable", |k| k.isa().name());
    let workers = model::session(None).map_or(0, |s| s.threads());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# isa {isa}, workers {workers}, nproc {nproc}");
    println!("{}", report.summary());
    if args.trace {
        for (name, tracer) in &tracers {
            let path =
                PathBuf::from("e2e_bench/out").join(format!("spans-{name}-{}.jsonl", args.seed));
            if let Err(e) = tracer.write_jsonl(&path) {
                eprintln!("writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
            println!(
                "# {} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
        }
    }
    match report.json(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&strings(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve".into(),
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &[
                "--workload",
                "train",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "decode",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "decode",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "decode",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "decode", "--seed", "1", "--seconds", "1"],
            &["--workload"],
        ] {
            assert!(parse(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn any_nm_spmm_variable_is_an_override() {
        let vars = strings(&["PATH", "NM_SPMM_ISA", "NM_SPMM_AUTOTUNE", "NM_SPMMX"]);
        assert_eq!(
            overrides(vars.into_iter()),
            ["NM_SPMM_ISA", "NM_SPMM_AUTOTUNE"]
        );
    }
}
