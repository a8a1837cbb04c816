//! Command-line entry point:
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! Prints a human report, then one JSON result object as the last line.

use amoeba_perfbench::{run, trace, Options, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: amoeba-perfbench --workload <rpc_small|fs_session|cluster_zipf> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} failed: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    if opts.trace {
        let path = std::path::Path::new(".bench_out").join(format!("spans-{}.tsv", opts.workload));
        match trace::write_spans(&path, &report.spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
