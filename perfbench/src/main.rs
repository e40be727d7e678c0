//! `perfbench --workload <paper|checked|litmus> --seed N --seconds S --trace <0|1> [--quick]`
//!
//! Prints the metrics by name and unit, then one JSON result line. The
//! traced run also writes its spans to `.bench_trace/<workload>-<seed>.jsonl`.

use std::process::ExitCode;

use awg_perfbench::workload::Workload;
use awg_perfbench::{run, Options};

const USAGE: &str =
    "usage: perfbench --workload <paper|checked|litmus> [--seed N] [--seconds S] [--trace 0|1] [--quick]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Paper,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        flip_expected: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(spans) = &report.spans_jsonl {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-{}.jsonl", opts.workload.name(), opts.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
