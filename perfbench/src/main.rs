//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <qft-run|serve-zipf|serve-unique> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One seeded run sets a workload up, measures it for `--seconds`,
//! checks every output, and prints a report whose last line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run also records spans around each layer call and replays jobs
//! through the layers' public functions, and the metrics are the
//! per-layer ones. The exit code is 0 only when every check passed.

mod host;
mod kernels;
mod layers;
mod loadgen;
mod qft_run;
mod serve_load;
mod stats;
mod trace;

use layers::{Layers, LAYER_METRICS};
use qse_util::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <qft-run|serve-zipf|serve-unique> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Every end-to-end metric the report prints, with its unit, in order.
const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_met_share", "share"),
    ("failed_share", "share"),
    ("peak_rss_mib", "MiB"),
];

/// The end-to-end metrics the JSON line carries, which `BENCHMARK.json`
/// bounds. On a shared 2-vCPU host the latency percentiles swung up to
/// 2× between runs as neighbours loaded the machine, far past any
/// usable bound, so they are printed but not gated; `slo_met_share`
/// gates the latency limit and `jobs_per_s` the closed loops' latency.
/// `failed_share` is the JSON line's `failed` ÷ `attempted`.
const GATED: &[&str] = &["setup_s", "jobs_per_s", "slo_met_share", "peak_rss_mib"];

/// What one workload run measured and checked.
pub struct RunResult {
    /// Workload-specific header lines.
    pub info: Vec<(&'static str, String)>,
    /// Duration of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// Jobs attempted in the measured phase.
    pub attempted: u64,
    /// One entry per failed job or failed check.
    pub failures: Vec<String>,
    /// Latency of each job that completed correctly, ms.
    pub latencies_ms: Vec<f64>,
    /// Jobs that completed correctly.
    pub completed_ok: u64,
    /// Wall time of the measured phase, s.
    pub measured_s: f64,
    /// The workload's latency limit, ms.
    pub limit_ms: f64,
    /// Jobs that completed correctly within the limit.
    pub slo_met: u64,
    /// Peak resident memory at the end of the measured phase, MiB.
    pub peak_rss_mib: f64,
    /// Exact counters of each repetition; all must be equal.
    pub counters: Vec<BTreeMap<&'static str, String>>,
    /// Per-layer values (traced runs).
    pub layers: Option<Layers>,
    /// The spans (traced runs).
    pub tracer: Option<Tracer>,
}

impl RunResult {
    fn new(limit_ms: f64) -> Self {
        RunResult {
            info: Vec::new(),
            setup_s: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            latencies_ms: Vec::new(),
            completed_ok: 0,
            measured_s: 0.0,
            limit_ms,
            slo_met: 0,
            peak_rss_mib: 0.0,
            counters: Vec::new(),
            layers: None,
            tracer: None,
        }
    }

    /// Records a failed job or check.
    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["qft-run", "serve-zipf", "serve-unique"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn mib(bytes: u64) -> String {
    format!("{} MiB", bytes >> 20)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    let machine = qse_machine::archer2();
    let mut res = match args.workload.as_str() {
        "qft-run" => qft_run::run(args.seed, args.seconds, args.trace, &machine),
        "serve-zipf" => serve_load::zipf(args.seed, args.seconds, args.trace, &machine),
        _ => serve_load::unique(args.seed, args.seconds, args.trace, &machine),
    };

    // Determinism: every repetition that reports a counter must report
    // the same value.
    let mut exact: BTreeMap<&str, (String, usize)> = BTreeMap::new();
    let mut drifted = Vec::new();
    for c in &res.counters {
        for (k, v) in c {
            let seen = exact.entry(k).or_insert_with(|| (v.clone(), 0));
            seen.1 += 1;
            if seen.0 != *v && !drifted.contains(k) {
                drifted.push(*k);
            }
        }
    }
    for k in &drifted {
        res.fail(format!(
            "determinism: counter {k} drifted across repetitions"
        ));
    }

    // The ceiling runs last so its arrays stay out of `peak_rss_mib`.
    let ceiling = host::memcpy_ceiling(host.l3_bytes);
    if let Some(layers) = res.layers.as_mut() {
        let sweeps = kernels::sweeps();
        layers.set("statevec.memcpy_gib_s", ceiling.gib_s);
        for s in &sweeps {
            layers.set(s.rate_metric, s.gib_s);
            layers.set(s.roofline_metric, s.gib_s / ceiling.gib_s);
        }
        layers.set(
            "statevec.single_fused_qft_s",
            kernels::single_fused_qft_s(args.seed),
        );
    }

    // Header.
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("revision         {}", host.revision);
    println!("nproc            {}", host.nproc);
    println!(
        "QSE_THREADS      {} (pool uses {} workers)",
        host.qse_threads.as_deref().unwrap_or("unset"),
        host.pool_threads
    );
    println!("cpu              {}", host.cpu_model);
    println!(
        "l2 / l3          {} / {} per instance",
        mib(host.l2_bytes),
        mib(host.l3_bytes)
    );
    println!(
        "memcpy ceiling   {:.2} GiB/s (read + write, 2 arrays of {})",
        ceiling.gib_s,
        mib(ceiling.array_bytes as u64)
    );
    for (k, v) in &res.info {
        println!("{k:<16} {v}");
    }

    // End-to-end metrics; a percentile is null unless ten samples lie
    // beyond it.
    let failed = res.failures.len() as u64;
    let e2e: BTreeMap<&str, Option<f64>> = BTreeMap::from([
        ("setup_s", stats::median(&res.setup_s)),
        (
            "jobs_per_s",
            (res.measured_s > 0.0).then(|| res.completed_ok as f64 / res.measured_s),
        ),
        ("latency_p50_ms", stats::median(&res.latencies_ms)),
        ("latency_p99_ms", stats::percentile(&res.latencies_ms, 99.0)),
        (
            "slo_met_share",
            (res.attempted > 0).then(|| res.slo_met as f64 / res.attempted as f64),
        ),
        (
            "failed_share",
            (res.attempted > 0).then(|| failed as f64 / res.attempted as f64),
        ),
        ("peak_rss_mib", Some(res.peak_rss_mib)),
    ]);
    println!(
        "end-to-end ({} jobs attempted, {} completed correctly; * = gated in BENCHMARK.json):",
        res.attempted, res.completed_ok
    );
    for (name, unit) in E2E_METRICS {
        let mark = if GATED.contains(name) { '*' } else { ' ' };
        match e2e[name] {
            Some(v) => println!(" {mark}{name:<16} {v:.6} {unit}"),
            None => println!(" {mark}{name:<16} null {unit}"),
        }
    }
    println!(
        "  (setup_s: median of {} set-ups: {:?})",
        res.setup_s.len(),
        res.setup_s
    );
    if !exact.is_empty() {
        println!(
            "determinism: {} exact counters, {}",
            exact.len(),
            if drifted.is_empty() {
                "none drifted".to_string()
            } else {
                format!("DRIFTED: {drifted:?}")
            }
        );
        for (k, (v, reps)) in &exact {
            println!("  {k:<32} {v} ({reps} repetitions)");
        }
    }
    // On stderr too, where a harness that keeps only the tail of
    // stderr still sees why a run failed.
    for f in res.failures.iter().take(10) {
        println!("FAILED: {f}");
        eprintln!("perfbench: FAILED: {f}");
    }

    let mut metrics = Vec::new();
    if let Some(layers) = &res.layers {
        println!("per-layer:");
        for (name, unit) in LAYER_METRICS {
            let v = layers.get(name);
            println!("  {name:<34} {v:.6} {unit}");
            metrics.push((name.to_string(), v, *unit));
        }
        if let Some(tr) = &res.tracer {
            let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
                .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
            match tr.write_json(&path) {
                Ok(()) => println!("spans: {} written to {}", tr.len(), path.display()),
                Err(e) => println!("spans: {} not written ({e})", tr.len()),
            }
        }
    } else {
        for (name, unit) in E2E_METRICS.iter().filter(|(n, _)| GATED.contains(n)) {
            metrics.push((name.to_string(), e2e[name].unwrap_or(0.0), *unit));
        }
    }

    let correct = res.failures.is_empty() && res.attempted > 0;
    let line = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(res.attempted.max(1))),
        ("failed", Json::UInt(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            Json::object([
                                ("value", Json::Num(value)),
                                ("unit", Json::Str(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.to_string());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve-zipf --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-zipf", 7, 20.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload qft-run --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload qft-run --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload qft-run --seconds 1").is_err());
    }

    #[test]
    fn gated_metrics_are_reported_metrics() {
        for g in GATED {
            assert!(E2E_METRICS.iter().any(|(n, _)| n == g), "{g}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = E2E_METRICS
            .iter()
            .chain(LAYER_METRICS)
            .map(|(n, _)| *n)
            .collect();
        let ok = |s: &str, max| {
            s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-/%".contains(c))
        };
        for (n, u) in E2E_METRICS.iter().chain(LAYER_METRICS) {
            assert!(ok(n, 64) && !n.contains('/') && !n.contains('%'), "{n}");
            assert!(ok(u, 16), "{u}");
        }
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate metric name");
    }
}
