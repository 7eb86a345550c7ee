//! Command line of the end-to-end benchmark; see the library docs.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::e2e::{run_e2e, run_trace};
use perfbench::loadgen::Ctx;
use perfbench::report::result_line;
use perfbench::workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut server_bin, mut out_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value == "1",
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::find(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    if let Err(e) = perfbench::placement::init() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let out_dir = args.out_dir.join(w.name);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        server_bin: args.server_bin,
        out_dir,
        w,
        seed: args.seed,
    };
    let outcome = if args.trace {
        run_trace(&ctx, args.seconds)
    } else {
        run_e2e(&ctx, args.seconds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let mode = if args.trace { "traced" } else { "end-to-end" };
    println!("perfbench {} ({mode}, seed {}):", w.name, args.seed);
    print!("{}", outcome.metrics.lines());
    println!("details: {}", outcome.details);
    if let Some(problem) = &outcome.problem {
        eprintln!("perfbench: {problem}");
    }
    let report_path = ctx
        .out_dir
        .join(format!("report-trace{}.json", u8::from(args.trace)));
    if let Err(e) = std::fs::write(&report_path, format!("{}\n", outcome.details)) {
        eprintln!("perfbench: write {}: {e}", report_path.display());
    }
    if outcome.correct && !outcome.metrics.all_finite() {
        eprintln!("perfbench: a metric has no samples");
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
