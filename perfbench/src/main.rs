//! The repository benchmark. One workload per invocation:
//!
//! ```text
//! unfold-perfbench --workload <offline_lattice|stream_live|stream_features|all>
//!                  --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! It packs the TEDLIUM task into a model bundle (untimed), generates
//! the workload's inputs from the seed, runs the workload against the
//! program's public API, checks the outputs and prints every metric by
//! name with its unit. The last line of standard output is the result as
//! one JSON object: end-to-end metrics with `--trace 0`, per-layer
//! metrics (from a second, traced pass) with `--trace 1`.

mod host;
mod inputs;
mod layers;
mod offline;
mod report;
mod stats;
mod stream;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use unfold::{pack_system, Models, System, TaskSpec};

use crate::report::Report;
use crate::stats::median;

/// Model opens per set-up measurement; their median is reported.
const SETUPS: usize = 5;

pub const WORKLOADS: [&str; 3] = ["offline_lattice", "stream_live", "stream_features"];

/// What every workload shares: the built task, its packed bundle, and
/// the run's settings.
pub struct Ctx {
    pub system: System,
    pub bundle: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub work_dir: PathBuf,
    pub origin: Instant,
    pub workload: &'static str,
}

impl Ctx {
    /// Opens the bundle zero-copy [`SETUPS`] times; returns the last
    /// models and the median open time in seconds.
    pub fn open_models(&self) -> (Models, f64) {
        let mut times = Vec::new();
        let mut models = None;
        for _ in 0..SETUPS {
            drop(models.take());
            let t = Instant::now();
            let m = Models::open_mmap(&self.bundle).expect("bundle opens");
            times.push(t.elapsed().as_secs_f64());
            models = Some(m);
        }
        (models.expect("at least one open"), median(&times))
    }

    pub fn write_spans(&self, threads: &[Vec<trace::Span>]) {
        let path = self
            .work_dir
            .join(format!("trace-{}-{}.jsonl", self.workload, self.seed));
        if let Err(e) = std::fs::write(&path, trace::to_jsonl(threads)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

/// A scratch file removed when the run ends, however it ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

fn run_one(
    workload: &'static str,
    args: &Args,
    system: System,
    bundle: &Path,
    trace: bool,
) -> Report {
    let ctx = Ctx {
        system,
        bundle: bundle.to_path_buf(),
        seed: args.seed,
        seconds: args.seconds as f64,
        trace,
        threads: host::cores(),
        work_dir: args.work_dir.clone(),
        origin: Instant::now(),
        workload,
    };
    match workload {
        "offline_lattice" => offline::run(&ctx),
        "stream_live" => stream::run(&ctx, stream::Kind::Live),
        "stream_features" => stream::run(&ctx, stream::Kind::Features),
        _ => unreachable!("workload names are checked"),
    }
}

/// Runs `workload` untraced, and with `--trace 1` traced as well. The
/// untraced pass of a traced run is a child process, so that neither
/// pass inherits the other's memory high-water mark; the traced report
/// carries the tracing overhead of each end-to-end metric.
fn measure(workload: &'static str, args: &Args, spec: &TaskSpec, bundle: &Path) -> Report {
    if !args.trace {
        return run_one(workload, args, System::build(spec), bundle, false);
    }
    let plain = match untraced_child(workload, args) {
        Ok(p) => p,
        Err(e) => {
            let mut failed = Report::default();
            failed.detail(format!("untraced pass failed: {e}"));
            return failed;
        }
    };
    let mut traced = run_one(workload, args, System::build(spec), bundle, true);
    traced.correct &= plain.correct;
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    for m in traced.e2e.clone().into_iter().filter(|m| !m.gated) {
        traced.layer(&format!("latency.{}", m.name), m.value, m.unit, m.note);
    }
    for m in traced.e2e.clone().into_iter().filter(|m| m.gated) {
        let u = plain.find_e2e(&m.name).unwrap_or(0.0);
        traced.layer(
            &format!("overhead.{}_pct", m.name),
            layers::ratio(100.0 * (m.value - u), u),
            "%",
            format!("traced {:.4} vs untraced {u:.4} {}", m.value, m.unit),
        );
    }
    let mut details = plain.details;
    details.push("-- traced pass --".into());
    details.append(&mut traced.details);
    traced.details = details;
    traced
}

/// The untraced pass as a child process: its report, from its output.
fn untraced_child(workload: &str, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .arg("--work-dir")
        .arg(&args.work_dir)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("no output")?;
    let mut r = report::parse_result(last).ok_or_else(|| format!("unreadable result {last:?}"))?;
    r.details = lines
        .into_iter()
        .map(|l| l.replacen("== end-to-end", "== end-to-end (untraced)", 1))
        .collect();
    Ok(r)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: unfold-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    // Building the task and packing its bundle is input preparation, not
    // set-up: it is excluded from every timing.
    let spec = TaskSpec::tedlium_kaldi();
    let bundle = TempFile(
        args.work_dir
            .join(format!("tedlium-{}.unfb", std::process::id())),
    );
    let bytes = pack_system(&System::build(&spec), &[]).expect("the task packs");
    if let Err(e) = std::fs::write(&bundle.0, bytes) {
        eprintln!("error: cannot write {}: {e}", bundle.0.display());
        return ExitCode::FAILURE;
    }
    let workloads: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w == args.workload)
            .collect()
    };
    // Each workload ends with its result line, so with a single workload
    // the result is the last line of the output. A failed output check
    // is reported in the result (`"correct": false`), not by the exit code.
    for w in workloads {
        println!("{}", host::record(w, args.seed, args.seconds, args.trace));
        let report = measure(w, &args, &spec, &bundle.0);
        print!("{}", report.render(args.trace));
        if !report.correct {
            eprintln!("error: {w}: output check failed");
        }
        println!("{}", report.json(args.trace));
    }
    ExitCode::SUCCESS
}
