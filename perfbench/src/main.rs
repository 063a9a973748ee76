//! The repository benchmark.
//!
//! ```text
//! perfbench --workload paper-solve|serve-hot|serve-churn --seed N \
//!           --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! Prints one report line (host, seed, generator facts, the tail split),
//! then, as its last line, `{"correct":…,"attempted":…,"failed":…,
//! "metrics":{…}}` with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). See `README.md` beside this crate.

mod check;
mod inputs;
mod layers;
mod paper;
mod probe;
mod serve;
mod util;

use util::{json_num, json_str, Figures, Report};

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("outer_iters", "count"),
    ("req_p50_ms", "ms"),
    ("req_per_s", "req/s"),
    ("cold_p50_ms", "ms"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tail.req_p99_ms", "ms"),
    ("net.wire_ms", "ms"),
    ("net.req_bytes", "bytes"),
    ("net.resp_bytes", "bytes"),
    ("net.put_bytes", "bytes"),
    ("net.rejected", "count"),
    ("engine.queue_p50_ms", "ms"),
    ("engine.queue_p99_ms", "ms"),
    ("engine.service_self_ms", "ms"),
    ("engine.session_self_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_evictions", "count"),
    ("engine.store_entries", "count"),
    ("engine.store_bytes", "bytes"),
    ("mpisim.launch_us", "us"),
    ("mpisim.allreduce_us", "us"),
    ("mpisim.msgs_per_iter", "count"),
    ("mpisim.bytes_per_iter", "bytes"),
    ("mpisim.wait_s", "s"),
    ("mpisim.modeled_comm_s", "s"),
    ("dist.gmres_s", "s"),
    ("dist.spmv_s", "s"),
    ("dist.spmv_calls", "count"),
    ("dist.orth_s", "s"),
    ("dist.scatter_gather_s", "s"),
    ("dist.residual_s", "s"),
    ("core.precond_apply_s", "s"),
    ("core.precond_apply_calls", "count"),
    ("core.precond_build_s", "s"),
    ("core.fallbacks", "count"),
    ("krylov.sweep_us", "us"),
    ("krylov.factor_nnz", "count"),
    ("sparse.spmv_us", "us"),
    ("sparse.spmv_bytes", "bytes"),
    ("sparse.spmv_gbs", "GB/s"),
    ("sparse.fingerprint_us", "us"),
    ("sparse.mtx_parse_ms", "ms"),
    ("partition.s", "s"),
    ("metrics.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.outer_iters", "count"),
    ("unattributed_pct", "%"),
];

/// Rank count of every distributed cell and served key.
pub const RANKS: usize = 2;

/// What the command line asks for.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke size: tiny matrices, a run of a few seconds.
    pub tiny: bool,
}

/// What a workload hands back: operation counts, the figures it measured
/// and the facts worth recording beside them.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub figures: Figures,
    pub report: Report,
}

impl Outcome {
    /// Records one checked operation.
    pub fn count(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("[perfbench] check failed: {why}");
            }
        }
    }
}

/// Refuses to drive more client threads or connections than the host has
/// cores: the load generator must not be what saturates the machine.
pub fn assert_loadgen_fits(threads: usize, connections: usize) {
    let cores = util::nproc();
    assert!(
        threads <= cores && connections <= cores,
        "load generator needs {threads} threads / {connections} connections, host has {cores} cores"
    );
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload paper-solve|serve-hot|serve-churn \
         --seed N --seconds S --trace 0|1 [--size full|tiny]"
    );
    std::process::exit(2)
}

fn parse_args() -> (String, Opts) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])));
        match argv[i].as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => opts.seed = val.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => opts.seconds = val.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => opts.trace = val == "1",
            "--size" => opts.tiny = val == "tiny",
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    (workload, opts)
}

fn main() {
    let (workload, opts) = parse_args();
    let load_at_start = util::loadavg();
    let mut out = match workload.as_str() {
        "paper-solve" => paper::run(&opts),
        "serve-hot" => serve::run_hot(&opts),
        "serve-churn" => serve::run_churn(&opts),
        other => usage(&format!("unknown workload {other}")),
    };

    let r = &mut out.report;
    r.text("workload", &workload);
    r.num("seed", opts.seed as f64);
    r.num("seconds", opts.seconds);
    r.num("trace", f64::from(u8::from(opts.trace)));
    r.text("size", if opts.tiny { "tiny" } else { "full" });
    r.num("nproc", util::nproc() as f64);
    r.num("loadavg_start", load_at_start);
    r.text("rustc", &std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()));
    r.text("commit", &std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()));
    r.text("features", "default (no `parallel`)");
    r.num("attempted", out.attempted as f64);
    r.num("failed", out.failed as f64);
    println!("{{\"report\":{}}}", out.report.to_json());

    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        match out.figures.get(name) {
            Some(v) if v.is_finite() => metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )),
            other => {
                eprintln!("perfbench: {workload} did not measure {name} ({other:?})");
                std::process::exit(1);
            }
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}
