//! The repository benchmark: four pinned workloads over the TorchGT
//! reproduction, end-to-end metrics from a tracing-off run and per-layer
//! metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload node-products --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `node-products`, `dp-products`, `stream-papers`, `serve-zipf`
//! (see `perfbench/README.md` for why each exists and which metric each
//! layer should move). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod host;
mod probes;
mod report;
mod serve;
mod stats;
mod train;

use report::{Report, E2E, LAYERS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scale of the ogbn-products stand-in (24,490 nodes).
pub const PRODUCTS_SCALE: f64 = 0.01;
/// Generator seed of every dataset: the datasets are pinned, and `--seed`
/// drives everything else (model initialisation, dropout, shard shuffle,
/// arrival schedule and query mix).
pub const DATA_SEED: u64 = 1;

/// Hidden first argument: write the streaming workload's shards and exit.
const DATAGEN_CHILD: &str = "datagen-child";

/// Write the streaming workload's shards to `dir` in a child process, so
/// the trainer's process holds only what training needs — as when the
/// shards come from `torchgt_cli datagen`. Returns its wall seconds and the
/// bytes written.
pub fn datagen_in_child(dir: &std::path::Path) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = std::time::Instant::now();
    let out = std::process::Command::new(exe)
        .arg(DATAGEN_CHILD)
        .arg(dir)
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot run datagen: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "datagen failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let bytes = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "datagen printed no byte count")?;
    Ok((secs, bytes))
}

fn datagen_child(dir: &str) -> ExitCode {
    let kind = torchgt_graph::DatasetKind::OgbnPapers100M;
    match probes::datagen(
        kind,
        train::PAPERS_SCALE,
        DATA_SEED,
        std::path::Path::new(dir),
    ) {
        Ok((_, bytes)) => {
            println!("{bytes}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The pinned workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    NodeProducts,
    DpProducts,
    StreamPapers,
    ServeZipf,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("node-products", Workload::NodeProducts),
        ("dp-products", Workload::DpProducts),
        ("stream-papers", Workload::StreamPapers),
        ("serve-zipf", Workload::ServeZipf),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("listed")
    }
}

/// Command-line arguments of one run.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

const USAGE: &str =
    "usage: perfbench --workload <node-products|dp-products|stream-papers|serve-zipf> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Either one measures a different program than the one users run.
fn refuse_to_measure() -> Option<String> {
    if cfg!(debug_assertions) {
        return Some("debug assertions are on: build with --release".into());
    }
    if std::env::var_os(torchgt_faults::ENV_VAR).is_some() {
        return Some(format!(
            "{} is set: fault injection must be off",
            torchgt_faults::ENV_VAR
        ));
    }
    None
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, dir] = argv.as_slice() {
        if cmd == DATAGEN_CHILD {
            return datagen_child(dir);
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = refuse_to_measure() {
        eprintln!("refusing to measure: {why}");
        return ExitCode::from(2);
    }
    // The data-parallel ranks run one compute thread each, so two ranks
    // load two cores. Set before any kernel reads the worker count.
    if args.workload == Workload::DpProducts {
        std::env::set_var("TORCHGT_THREADS", "1");
    }
    let root = PathBuf::from("perfbench/work");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut r = Report::default();
    println!(
        "manifest: workload {} seed {} seconds {} trace {} | rev {} | backend {} | threads {} | overlap {} | nproc {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::git_rev(),
        torchgt_tensor::backend::active().name(),
        torchgt_compat::par::worker_count(),
        if torchgt_runtime::overlap_enabled() { "on" } else { "off" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let ticks = host::cpu_ticks();
    let outcome = match (args.workload, args.trace) {
        (Workload::NodeProducts, false) => train::node(&args, &mut r),
        (Workload::NodeProducts, true) => train::node_traced(&args, &work, &mut r),
        (Workload::DpProducts, false) => train::dp(&args, &work, &mut r),
        (Workload::DpProducts, true) => train::dp_traced(&args, &work, &mut r),
        (Workload::StreamPapers, false) => train::stream(&args, &work, &mut r),
        (Workload::StreamPapers, true) => train::stream_traced(&args, &work, &mut r),
        (Workload::ServeZipf, false) => serve::run(&args, &work, &mut r),
        (Workload::ServeZipf, true) => serve::run_traced(&args, &work, &mut r),
    };
    let (steal, total) = host::cpu_ticks();
    // The hypervisor's share of the run's CPU time: a contended host reads
    // slow, and this says so.
    r.note(format!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the run",
        100.0 * (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64
    ));
    let _ = std::fs::remove_dir_all(&work);
    // Only succeeds once no other run is using the directory.
    let _ = std::fs::remove_dir(&root);
    if args.trace {
        // A layer the workload never calls leaves its counters at zero; a
        // missing time is a benchmark bug and fails the run.
        for (name, unit) in LAYERS {
            if !matches!(*unit, "s" | "ms") && !r.has(name) {
                r.metric(name, 0.0);
            }
        }
    }
    if let Err(e) = outcome {
        eprintln!("{} failed: {e}", args.workload.name());
        r.check(format!("workload ran to completion ({e})"), false);
    }
    r.print(if args.trace { LAYERS } else { E2E });
    ExitCode::SUCCESS
}
