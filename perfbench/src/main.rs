//! The repository's benchmark: end-to-end and per-layer measurements of
//! the x-ability stack on workloads recorded from real protocol runs.
//!
//! ```text
//! perfbench --workload <long-run|verify-stream|explore-campaign>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics, measured with no
//! tracing; with `--trace 1` it prints the per-layer metrics of a separate
//! traced run (the layers the workload runs; `run.py` adds the others as
//! 0). Every input is generated from `--seed`; every output is
//! checked, and a failed check counts its operations as failed. The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`;
//! the exit code is 1 when a check failed. End-to-end times are
//! calibrated by the host-speed probe (`probe.rs`); the summary prints
//! their wall-clock values beside them.
//! Spill directories live under `$CARGO_TARGET_DIR/perfbench-tmp` (else
//! `.bench_build/perfbench-tmp`) and are removed before exit.

mod probe;
mod scenarios;
mod stats;
mod stream;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use probe::Probe;
use stats::{peak_rss_mb, Outcome};
use workloads::Config;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, tmp: &std::path::Path) -> Result<Outcome, String> {
    // Each workload's probe buffer is about the size of its working set.
    let probe = Probe::new(match args.workload.as_str() {
        "explore-campaign" => &probe::L2,
        _ => &probe::BEYOND_L2,
    });
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        tmp,
        probe: &probe,
    };
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "long-run" => workloads::long_run(&cfg, args.trace, &mut out),
        "verify-stream" => workloads::verify_stream(&cfg, args.trace, &mut out),
        "explore-campaign" => workloads::explore_campaign(&cfg, args.trace, &mut out),
        other => return Err(format!("unknown workload {other}")),
    };
    result.map_err(|e| format!("{}: {e}", args.workload))?;
    if args.trace {
        // Set-up time is an end-to-end metric; a traced run reports layers.
        out.metrics.retain(|m| m.name != "setup_s");
    } else {
        // The probe's buffer stays resident from start to end; leave it out.
        let probe_mb = probe.bytes() as f64 / (1024.0 * 1024.0);
        out.metric("peak_rss_mb", peak_rss_mb() - probe_mb, "MB");
    }
    Ok(out)
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = std::env::var_os("CARGO_TARGET_DIR")
        .map_or(".bench_build".into(), PathBuf::from)
        .join("perfbench-tmp")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let outcome = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(bad) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} is not finite", bad.name);
        return ExitCode::from(1);
    }

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let failed_checks: Vec<&String> = out.checks.iter().filter(|c| !c.1).map(|c| &c.0).collect();
    println!(
        "  checks: {} made, {} failed",
        out.checks.len(),
        failed_checks.len()
    );
    for c in &failed_checks {
        println!("  FAILED: {c}");
    }
    for m in &out.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &out.notes {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<40} {:>16.6} failed/attempted ({} of {})",
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let inputs: Vec<String> = out
        .inputs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!(
        "{{{}, \"workload\": {}, \"seed\": {}, \"inputs\": {{{}}}}}",
        xability_bench::bench_provenance("perfbench"),
        json_string(&args.workload),
        args.seed,
        inputs.join(", ")
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.correct() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
