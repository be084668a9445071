//! `mubench` — the end-to-end and per-layer benchmark of `mube`.
//!
//! ```text
//! mubench --workload paper_solve|steer_session|catalog_ingest
//!         --seed N --seconds N --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`. The last line of standard
//! output is one JSON object `{"correct","attempted","failed","metrics"}`:
//! the end-to-end metrics untraced (`--trace 0`), the per-layer metrics
//! traced (`--trace 1`). The line before it carries the workload's own
//! metrics under their own names, the output checks, and how the run was
//! made. The exit code is 1 when an output check fails. See `README.md`.

mod client;
mod env;
mod ingest;
mod paper;
mod reference;
mod report;
mod serve;
mod stats;
mod steer;
mod synth;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{metric, Metric, Report};
use stats::median;
use trace::Span;

/// The workloads this binary runs. `BENCHMARK.json` lists `paper_solve`
/// and `catalog_ingest`; `steer_session` waits for a solver fix (README.md).
const WORKLOADS: [&str; 3] = ["paper_solve", "steer_session", "catalog_ingest"];

/// One run's settings.
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Every input of the run derives from this.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch space of this run (data dirs, logs, spans), inside the
    /// benchmark's own directory.
    pub work: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload `{value}` (one of {WORKLOADS:?})"))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let work = bench_dir()
        .join(".work")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Options {
        workload,
        seed,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
        work,
    })
}

/// This package's directory (the benchmark lives inside the checkout).
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A duration in seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Whether a run that has measured for `elapsed` starts another operation
/// that should take about as long as the `last` one: only if it would end
/// at most half an operation past `run_for`. Long operations then neither
/// stop well short of the run length nor overrun it by a whole operation.
pub fn should_start(elapsed: Duration, last: Duration, run_for: Duration) -> bool {
    elapsed + last / 2 < run_for
}

/// Writes the run's spans next to its work directory; returns the path.
pub fn write_spans(tracer: &trace::Tracer, opts: &Options) -> std::io::Result<PathBuf> {
    let path = bench_dir()
        .join(".work")
        .join(format!("spans-{}-{}.tsv", opts.workload, opts.seed));
    tracer.write_tsv(&path)?;
    Ok(path)
}

/// The per-layer metrics every traced run reports. A layer the workload
/// does not exercise reports 0: that is its measured work.
#[derive(Debug, Default)]
pub struct Layers {
    pub catalog_parse_ms: f64,
    pub json_parse_ms: f64,
    pub json_parse_ns_per_byte: f64,
    pub http_read_us: f64,
    pub cache_build_ms: f64,
    pub cache_matrix_bytes: f64,
    pub cluster_calls: f64,
    pub cluster_us_per_call: f64,
    pub cluster_self_s: f64,
    pub cluster_share: f64,
    pub memo_entries: f64,
    pub match_calls_per_eval: f64,
    pub qef_calls: f64,
    pub qef_self_s: f64,
    pub search_evaluations: f64,
    pub search_self_s: f64,
    pub session_solve_ms: f64,
    pub serialize_us: f64,
    pub response_bytes: f64,
    pub wal_appends: f64,
    pub wal_append_us: f64,
    pub wal_snapshots: f64,
    pub wal_bytes_per_user_byte: f64,
    pub repl_ack_ms: f64,
    pub repl_lag_lsn_max: f64,
    pub serve_requests_shed: f64,
    pub trace_overhead_s: f64,
}

impl Layers {
    /// Algorithm 1, QEF and search figures from `solve` spans and their
    /// `cluster` / `qef` children, per solve.
    pub fn from_solve_spans(spans: &[Span]) -> Layers {
        let selfs = trace::self_times(spans);
        let solve_ids: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == "solve")
            .map(|s| s.id)
            .collect();
        let under_solve: Vec<Span> = spans
            .iter()
            .filter(|s| s.name == "solve" || s.parent.is_some_and(|p| solve_ids.contains(&p)))
            .cloned()
            .collect();
        let (solves, solve_self_ns) = trace::self_total(&under_solve, &selfs, "solve");
        let (calls, cluster_ns) = trace::self_total(&under_solve, &selfs, "cluster");
        let (qef_calls, qef_ns) = trace::self_total(&under_solve, &selfs, "qef");
        let solve_ns: u64 = under_solve
            .iter()
            .filter(|s| s.name == "solve")
            .map(Span::duration_ns)
            .sum();
        let per_solve = |x: f64| if solves == 0 { 0.0 } else { x / solves as f64 };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        Layers {
            cluster_calls: per_solve(calls as f64),
            cluster_us_per_call: ratio(cluster_ns as f64 / 1e3, calls as f64),
            cluster_self_s: per_solve(cluster_ns as f64 / 1e9),
            cluster_share: ratio(cluster_ns as f64, solve_ns as f64),
            qef_calls: per_solve(qef_calls as f64),
            qef_self_s: per_solve(qef_ns as f64 / 1e9),
            search_self_s: per_solve(solve_self_ns as f64 / 1e9),
            ..Layers::default()
        }
    }

    /// Median duration in ms of the spans named `name` (0 when none).
    pub fn median_ms(spans: &[Span], name: &str) -> f64 {
        let xs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        median(&xs).unwrap_or(0.0)
    }

    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("catalog.parse_ms", self.catalog_parse_ms, "ms"),
            metric("json.parse_ms", self.json_parse_ms, "ms"),
            metric(
                "json.parse_ns_per_byte",
                self.json_parse_ns_per_byte,
                "ns/B",
            ),
            metric("http.read_us", self.http_read_us, "us"),
            metric("cache.build_ms", self.cache_build_ms, "ms"),
            metric("cache.matrix_bytes", self.cache_matrix_bytes, "B"),
            metric("cluster.calls", self.cluster_calls, "count"),
            metric("cluster.us_per_call", self.cluster_us_per_call, "us"),
            metric("cluster.self_s", self.cluster_self_s, "s"),
            metric("cluster.share", self.cluster_share, "fraction"),
            metric("memo.entries", self.memo_entries, "count"),
            metric(
                "memo.match_calls_per_eval",
                self.match_calls_per_eval,
                "ratio",
            ),
            metric("qef.calls", self.qef_calls, "count"),
            metric("qef.self_s", self.qef_self_s, "s"),
            metric("search.evaluations", self.search_evaluations, "count"),
            metric("search.self_s", self.search_self_s, "s"),
            metric("session.solve_ms", self.session_solve_ms, "ms"),
            metric("serialize.us", self.serialize_us, "us"),
            metric("response.bytes", self.response_bytes, "B"),
            metric("wal.appends", self.wal_appends, "count"),
            metric("wal.append_us", self.wal_append_us, "us"),
            metric("wal.snapshots", self.wal_snapshots, "count"),
            metric(
                "wal.bytes_per_user_byte",
                self.wal_bytes_per_user_byte,
                "ratio",
            ),
            metric("repl.ack_ms", self.repl_ack_ms, "ms"),
            metric("repl.lag_lsn_max", self.repl_lag_lsn_max, "count"),
            metric("serve.requests_shed", self.serve_requests_shed, "count"),
            metric("trace.overhead_s", self.trace_overhead_s, "s"),
        ]
    }
}

fn run(opts: &Options) -> Report {
    let mut report = match opts.workload.as_str() {
        "paper_solve" => paper::run(opts),
        "steer_session" => steer::run(opts),
        _ => ingest::run(opts),
    };
    let root = bench_dir()
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    report.note("nproc", env::nproc());
    report.note("commit", env::commit(&root));
    report.note("profile", env::profile());
    report.note("seed", opts.seed);
    report.note("seconds", opts.seconds);
    report.note("trace", u8::from(opts.trace));
    report.note("data_dir_fs", env::fs_type(&opts.work));
    report.note("fsync", serve::FSYNC);
    report.note("snapshot_every", serve::SNAPSHOT_EVERY);
    report.note("scrub_interval_ms", serve::SCRUB_INTERVAL_MS);
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        return serve::child_main(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mubench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("mubench: {}: {e}", opts.work.display());
        return ExitCode::from(2);
    }
    let report = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work);
    report.print(&opts.workload);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let o = parse_args(&args(
            "--workload steer_session --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("steer_session", 9, 12, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload paper_solve")).is_err());
        assert!(parse_args(&args("--workload paper_solve --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload paper_solve --seed")).is_err());
    }

    #[test]
    fn runs_stop_within_half_an_operation_of_their_length() {
        let s = Duration::from_secs;
        assert!(should_start(s(0), s(0), s(30)));
        assert!(should_start(s(27), s(5), s(30)));
        assert!(!should_start(s(28), s(5), s(30)));
        assert!(!should_start(s(30), s(0), s(30)));
    }

    #[test]
    fn layer_split_from_solve_spans() {
        let span = |id, name, start_ns, end_ns, parent| Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = vec![
            span(1, "solve", 0, 1000, None),
            span(2, "cluster", 100, 700, Some(1)),
            span(3, "qef", 800, 900, Some(1)),
            span(4, "solve", 2000, 2500, None),
            span(5, "cluster", 2000, 2200, Some(4)),
            // Setup spans outside any solve are not charged to it.
            span(6, "cluster", 3000, 9000, None),
        ];
        let l = Layers::from_solve_spans(&spans);
        assert_eq!(l.cluster_calls, 1.0);
        assert!((l.cluster_share - 800.0 / 1500.0).abs() < 1e-12);
        assert!((l.cluster_us_per_call - 0.4).abs() < 1e-12);
        assert!((l.search_self_s - (300.0 + 300.0) / 2.0 / 1e9).abs() < 1e-18);
        assert_eq!(l.qef_calls, 0.5);
        assert_eq!(l.metrics().len(), 27);
    }
}
