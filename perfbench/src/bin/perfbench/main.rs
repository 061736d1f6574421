//! The repository benchmark. One run measures one workload:
//!
//! ```sh
//! python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `run.py` builds `tpu-serve` and this binary, then runs it with
//! `--server-bin` and `--out-dir`. The last line of standard output is
//! the result as JSON; the lines before it name every metric with its
//! unit and sample count. See `README.md`.

mod child;
mod fleet;
mod layers;
mod report;
mod serve;

use report::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

const USAGE: &str = "usage: perfbench --workload serve_hot|serve_cold|fleet_month --seed N \
--seconds S --trace 0|1 --server-bin PATH --out-dir DIR [--specs-dir DIR]";

/// One run's settings.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `tpu-serve` binary.
    pub server_bin: PathBuf,
    /// The committed spec directory (never written).
    pub specs_dir: PathBuf,
    /// Where traces and scratch copies go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Writes the run's spans to `trace-<workload>-seed<n>.jsonl`.
    pub fn write_trace(&self, tr: &perfbench::trace::Tracer) -> Result<(), String> {
        let name = format!("trace-{}-seed{}.jsonl", self.workload, self.seed);
        let path = self.out_dir.join(name);
        std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {} spans written to {}", tr.spans().len(), path.display());
        Ok(())
    }
}

/// A scratch directory for this run, removed when dropped.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    fn create(out_dir: &Path) -> Result<WorkDir, String> {
        let root = out_dir.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir { root })
    }

    /// A private copy of the spec directory: PUT persists into it, so
    /// the committed files are never rewritten.
    pub fn copy_specs(&self, from: &Path, label: &str) -> Result<PathBuf, String> {
        let to = self.root.join(label);
        std::fs::create_dir_all(&to).map_err(|e| format!("{}: {e}", to.display()))?;
        let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().is_some_and(|x| x == "json") {
                std::fs::copy(&path, to.join(entry.file_name()))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        Ok(to)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| {
        flag(name)?
            .parse::<f64>()
            .map_err(|_| format!("{name} needs a number"))
    };
    let seconds = number("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Ctx {
        workload: flag("--workload")?,
        seed: flag("--seed")?
            .parse()
            .map_err(|_| "--seed needs a non-negative integer".to_string())?,
        seconds,
        trace: match flag("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        server_bin: flag("--server-bin")?.into(),
        specs_dir: flag("--specs-dir")
            .unwrap_or_else(|_| "specs".into())
            .into(),
        out_dir: flag("--out-dir")?.into(),
    })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers come from: CPUs, compiler, build profile, tree.
fn print_provenance(ctx: &Ctx) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let git = command_line("git", &["describe", "--always", "--dirty", "--tags"])
        .unwrap_or_else(|| "not a git checkout".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# host: cpus={cpus} rustc=\"{rustc}\" profile={profile} git=\"{git}\" workload={} seed={} seconds={} trace={}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace
    );
}

fn main() {
    let ctx = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2);
    });
    print_provenance(&ctx);
    let result = WorkDir::create(&ctx.out_dir).and_then(|work| match ctx.workload.as_str() {
        "serve_hot" => serve::hot(&ctx, &work),
        "serve_cold" => serve::cold(&ctx, &work),
        "fleet_month" => fleet::month(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    });
    let out = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1);
    });
    let table = if ctx.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    if let Some((name, _)) = END_TO_END
        .iter()
        .find(|(n, _)| !ctx.trace && out.metrics.get(n).is_none_or(|v| *v <= 0.0))
    {
        eprintln!("perfbench: the run produced no value for {name}");
        exit(1);
    }
    println!(
        "# {}: correct={} attempted={} failed={}",
        ctx.workload, out.correct, out.attempted, out.failed
    );
    println!("{}", out.finish(table));
}
