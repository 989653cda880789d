//! Layered benchmark of the Saath reproduction.
//!
//! ```text
//! saath-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload through the program's public entry points
//! (`simulate_resumable` for the simulator workloads, `emulate` for
//! `emu-tcp`) for `S` seconds, checks every output against the trace
//! oracle, and prints one JSON line: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. See README.md.

mod emu;
mod input;
mod oracle;
mod probe;
mod prom;
mod report;
mod sim;
mod stats;

use report::Report;
use sim::SimWorkload;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => traced = val()? == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if args.traced != saath_telemetry::enabled() {
        eprintln!("perfbench: --trace 1 needs the `traced` build and --trace 0 the default one");
        std::process::exit(2);
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("create the work directory");
    let report: Report = match args.workload.as_str() {
        "fb-saath-log" => sim::run(
            &SimWorkload {
                trace: input::fb150,
                policy: || Box::new(saath_core::Saath::with_defaults()),
                log: true,
                traces: 8,
            },
            args.seed,
            args.seconds,
            args.traced,
            &work,
        ),
        "fb-aalo" => sim::run(
            &SimWorkload {
                trace: input::fb150,
                policy: || Box::new(saath_core::Aalo::with_defaults()),
                log: false,
                traces: 8,
            },
            args.seed,
            args.seconds,
            args.traced,
            &work,
        ),
        "emu-tcp" => emu::run(args.seed, args.seconds, args.traced, &work),
        other => {
            let _ = std::fs::remove_dir_all(&work);
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", report.json());
}
