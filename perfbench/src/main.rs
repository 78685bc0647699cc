//! `cellflow-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, last, one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! Exits nonzero when an output check fails or the arguments are wrong.

use std::process::ExitCode;

use cellflow_perfbench::{provenance, run, Kind, Options, Report};

fn usage(problem: &str) -> ExitCode {
    eprintln!("cellflow-perfbench: {problem}");
    eprintln!(
        "usage: cellflow-perfbench --workload corridor-sparse|dense-merge|chaos-net \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        kind: Kind::CorridorSparse,
        seed: cellflow_perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        rounds: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.kind = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn print_report(opts: &Options, report: &Report) {
    let mut meta: Vec<(&str, String)> = vec![
        ("workload", json_string(opts.kind.name())),
        ("seed", opts.seed.to_string()),
        ("trace", opts.trace.to_string()),
        ("net_worker_cap", report.net_workers.to_string()),
    ];
    for (key, value) in provenance() {
        let value = if key == "cores" {
            value
        } else {
            json_string(&value)
        };
        meta.push((key, value));
    }
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    for (label, digest) in &report.digests {
        println!("digest {label}: {digest}");
    }
    for (rung, ns) in &report.ladder {
        println!("ladder {rung:>10}: {ns:.0} ns/round");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("FAILED {p}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "cellflow-perfbench: refusing a debug build (Simulation turns per-round safety checks on \
             under debug assertions, which is a different program); build with --release"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(problem) => return usage(&problem),
    };
    let report = run(&opts);
    print_report(&opts, &report);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
