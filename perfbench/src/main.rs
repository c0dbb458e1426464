//! Real-clock benchmark of the janus runtime and `janus-serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `ordered-coloring`, `short-txn`, `online-canvas` (batch
//! runs of a `janus::workloads` scenario, in-process) and
//! `serve-durable` (an open-loop stream against the release
//! `janus-serve` binary, which this program builds first). With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, measured by timing
//! wrappers around the runtime's public seams. The line before it
//! records the revision, host and fixed parameters. `NOTES.md` says why
//! each workload exists and what it showed.

mod batch;
mod probe;
mod report;
mod serve;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use batch::BatchSpec;
use report::{json_str, RunReport};
use serve::ServeSpec;

/// Janus worker threads in every workload (the host has 2 cores).
pub const THREADS: usize = 2;

/// A workload's fixed parameters, as recorded in the metadata line.
pub struct Params {
    pub scale: String,
    pub detector: String,
    pub rate: String,
    pub fsync: String,
}

enum Spec {
    Batch(BatchSpec),
    Serve(ServeSpec),
}

fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "ordered-coloring" => Spec::Batch(BatchSpec {
            workload: "jgrapht-1",
            scale: 2000,
            inputs: 1,
            cached: true,
        }),
        "short-txn" => Spec::Batch(BatchSpec {
            workload: "jgrapht-2",
            scale: 1000,
            inputs: 20,
            cached: true,
        }),
        "online-canvas" => Spec::Batch(BatchSpec {
            workload: "weka",
            scale: 40,
            inputs: 128,
            cached: false,
        }),
        "serve-durable" => Spec::Serve(ServeSpec {
            rate: 50.0,
            block_txns: 32,
            accounts: 1024,
            max_inflight: 32,
        }),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.filter(|s| *s > 0.0).unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The repository this benchmark sits in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Builds the release `janus-serve` with the same target directory
/// Cargo uses for this benchmark, returning its path.
fn build_serve(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "janus-serve",
        ])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building janus-serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("janus-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no janus-serve at {}", bin.display()))
    }
}

/// The first line of a command's output, or "unknown".
fn command_line(cmd: &str, args: &[&str], dir: &Path) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: janus-perfbench --workload <name> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let root = repo_root();
    // Built on every workload's run (a no-op once up to date), so the
    // first run of a checkout does all the building.
    let serve_bin = match build_serve(&root) {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tmp = root
        .join(".perfbench-tmp")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&tmp);
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }

    let mut report = RunReport::default();
    let ticks = report::cpu_ticks();
    let (params, reps) = match &spec {
        Spec::Batch(b) => {
            let reps = if args.trace {
                batch::run_traced(b, args.seed, args.seconds, &mut report)
            } else {
                batch::run_untraced(b, args.seed, args.seconds, &mut report)
            };
            (b.params(), reps)
        }
        Spec::Serve(s) => {
            let reps = if args.trace {
                Ok(serve::run_traced(
                    s,
                    &tmp,
                    args.seed,
                    args.seconds,
                    &mut report,
                ))
            } else {
                serve::run_untraced(s, &serve_bin, &tmp, args.seed, args.seconds, &mut report)
            };
            match reps {
                Ok(reps) => (s.params(), reps),
                Err(e) => {
                    let _ = std::fs::remove_dir_all(&tmp);
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(root.join(".perfbench-tmp"));
    // Time the hypervisor gave to other guests: on a shared host it
    // slows synchronisation-heavy runs most, so it explains outliers.
    if let (Some(before), Some(after)) = (ticks, report::cpu_ticks()) {
        report.reported(
            "host_steal_frac",
            report::steal_frac(&before, &after),
            "ratio",
        );
    }
    if args.trace {
        report.metric("bench.failed_frac", report.failed_frac(), "ratio");
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"repetitions\": {reps}, \
         \"threads\": {THREADS}, \"scale\": {}, \"detector\": {}, \"rate\": {}, \"fsync\": {}, \
         \"reported\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&command_line("git", &["rev-parse", "HEAD"], &root)),
        json_str(&command_line("rustc", &["--version"], &root)),
        json_str(&params.scale),
        json_str(&params.detector),
        json_str(&params.rate),
        json_str(&params.fsync),
        report.reported_json(),
    );
    println!("{}", report.json());
    // A run abandoned at its deadline may still be executing on a
    // helper thread; exiting here ends it.
    std::process::exit(0)
}
