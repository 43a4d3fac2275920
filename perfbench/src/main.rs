//! perfbench: the store's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|point_lookup|analytic_scan> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is the end-to-end result; with `--trace 1` it carries
//! the per-layer numbers of a traced run, whose spans are also written to
//! `.perfbench/spans/`. Metric definitions and the layer-to-metric map
//! are in `perfbench/README.md`.

mod gen;
mod ingest;
mod query;
mod report;
mod stats;
mod trace;

use report::{Metric, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every per-layer metric a traced run reports, with its unit. A layer
/// the workload's traced run never calls reports 0.
pub const LAYERS: [(&str, &str); 36] = [
    ("linalg.gram_s", "s"),
    ("linalg.eigen_s", "s"),
    ("compress.svdd_s", "s"),
    ("compress.svd_s", "s"),
    ("compress.pass2_s", "s"),
    ("compress.k_opt", "count"),
    ("compress.candidates", "count"),
    ("compress.deltas", "count"),
    ("core.build_s", "s"),
    ("core.build_extra_s", "s"),
    ("storage.save_s", "s"),
    ("storage.bytes_written", "bytes"),
    ("storage.open_s", "s"),
    ("query.parse_us", "us"),
    ("query.cell_us", "us"),
    ("serve.admission_ms", "ms"),
    ("serve.admission_ms.cell", "ms"),
    ("serve.admission_ms.range", "ms"),
    ("serve.admission_ms.rowband", "ms"),
    ("serve.admission_ms.where", "ms"),
    ("serve.admission_ms.full", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.cells_per_batch", "count"),
    ("serve.aggs_per_scan", "count"),
    ("serve.busy", "count"),
    ("storage.logical_per_cell", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.physical_per_query", "count"),
    ("storage.logical_per_row.range", "count"),
    ("scan.range_ms", "ms"),
    ("scan.rowband_ms", "ms"),
    ("scan.where_ms", "ms"),
    ("scan.full_ms", "ms"),
    ("synopsis.pages_read_frac", "ratio"),
    ("trace.gap_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

pub fn zero_layers() -> Metrics {
    Metrics(
        LAYERS
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            })
            .collect(),
    )
}

pub fn set_layer(m: &mut Metrics, name: &str, value: f64) {
    let slot = m.0.iter_mut().find(|x| x.name == name);
    slot.unwrap_or_else(|| panic!("unknown layer metric {name}"))
        .value = value;
}

/// One invocation's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores, removed when the run ends.
    pub work: PathBuf,
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Workload-specific facts as a JSON object.
    pub detail: String,
    pub tracer: Option<trace::Tracer>,
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const WORKLOADS: [&str; 3] = ["ingest", "point_lookup", "analytic_scan"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let w = get("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|n| *n == w)
        .ok_or(format!("unknown workload {w:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <ingest|point_lookup|analytic_scan> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let set = report::program_env_set();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the program reads it for its defaults \
             and the benchmark pins every knob itself",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let base = Path::new(".perfbench");
    let work = WorkDir(base.join(format!("work-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        return ExitCode::from(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.0.clone(),
    };
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match args.workload {
        "ingest" => ingest::run(&run),
        "point_lookup" => query::run(&run, query::Mode::PointLookup),
        _ => query::run(&run, query::Mode::AnalyticScan),
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let mut spans_file = "null".to_string();
    if let Some(t) = &out.tracer {
        let path = base
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => spans_file = report::json_str(&path.display().to_string()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    for m in &out.metrics.0 {
        eprintln!(
            "perfbench:   {:<32} {:>16} {}",
            m.name,
            report::num(m.value),
            m.unit
        );
    }
    println!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"error_rate\": {}, \"provenance\": {}, \"environment\": {}, \
         \"spans\": {spans_file}, \"detail\": {}}}}}",
        report::json_str(args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::num(out.failed as f64 / out.attempted.max(1) as f64),
        report::provenance(),
        report::environment(),
        out.detail,
    );
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
