//! `steer_session`: closed-loop users steering sessions over loopback HTTP
//! against a journaled leader (`--fsync always`) with one semi-sync
//! follower. Small journaled, replicated writes sit beside solves on small
//! universes.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mube_core::jsonw::JsonBuf;
use mube_core::{Constraints, MatchOperator, Problem, Session};
use mube_match::ClusterMatcher;
use mube_opt::TabuSearch;
use mube_serve::persist::{Event, SolutionRecord};
use mube_serve::Json;

use crate::client::{encode_request, send, Ledger, Reply};
use crate::paper::{parse_catalog, qefs_for, Parsed};
use crate::reference;
use crate::report::{metric, Report};
use crate::serve::{self, metric as m, Cluster, LagMonitor};
use crate::stats::{median, tail};
use crate::synth::{self, Catalog, Stream};
use crate::trace::{self, Tracer};
use crate::{secs, Layers, Options};

/// Closed-loop clients, one per user; each waits for every reply.
pub const CLIENTS: usize = 2;
/// Test-scale catalogs uploaded at set-up; loops rotate over them.
pub const CATALOGS: usize = 4;
/// `m` of every session.
pub const MAX_SOURCES: usize = 5;
/// `θ` of every session.
pub const THETA: f64 = 0.75;
/// `β` of every session.
pub const BETA: usize = 2;
/// Cluster set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Loops per client whose traffic a traced run captures and replays.
const CAPTURED_LOOPS: usize = 12;
/// Loops a traced run makes on the replicated leader and, paired, on a
/// leader without a follower, for `repl.ack_ms`.
const PAIRED_LOOPS: usize = 30;
/// The server's default per-solve evaluation cap, mirrored in replay.
const SERVER_MAX_EVALUATIONS: u64 = 20_000;

/// What a request was, for latency accounting and replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Create,
    Solve,
    Feedback,
    Explain,
    Delete,
}

impl Kind {
    /// Name of the client-side span of such a request.
    fn span_name(self) -> &'static str {
        match self {
            Kind::Create => "http.create",
            Kind::Solve => "http.solve",
            Kind::Feedback => "http.feedback",
            Kind::Explain => "http.explain",
            Kind::Delete => "http.delete",
        }
    }
}

/// One captured request and its reply.
struct Exchange {
    kind: Kind,
    raw: Vec<u8>,
    body: String,
    reply: Reply,
}

/// One captured steering loop.
struct Captured {
    catalog: usize,
    seed: u64,
    exchanges: Vec<Exchange>,
}

/// A client's measurements.
#[derive(Default)]
struct ClientLog {
    ledger: Ledger,
    solve_ms: Vec<f64>,
    write_ms: Vec<f64>,
    solve_reply_bytes: Vec<f64>,
    user_bytes: u64,
    loops: u64,
    captured: Vec<Captured>,
}

struct LoopCtx<'a> {
    addr: SocketAddr,
    log: &'a mut ClientLog,
    capture: Option<Vec<Exchange>>,
    /// Traced runs: where each request's client-side span goes, and the
    /// loop's request id.
    tracer: Option<(&'a Tracer, u64)>,
}

impl LoopCtx<'_> {
    /// One request: booked, timed, captured; the parsed reply on success.
    fn call(
        &mut self,
        kind: Kind,
        method: &str,
        path: &str,
        body: &str,
        expected: u16,
    ) -> Option<Json> {
        let raw = encode_request(method, path, body);
        let t0 = Instant::now();
        let result = send(self.addr, &raw);
        let t1 = Instant::now();
        let ms = secs(t1 - t0) * 1e3;
        if let Some((tracer, request)) = self.tracer {
            tracer.record(kind.span_name(), request, t0, t1);
        }
        let reply = self
            .log
            .ledger
            .expect(&format!("{method} {path}"), result, expected)?;
        match kind {
            Kind::Solve => {
                self.log.solve_ms.push(ms);
                self.log.solve_reply_bytes.push(reply.body.len() as f64);
            }
            Kind::Create | Kind::Feedback | Kind::Delete => self.log.write_ms.push(ms),
            Kind::Explain => {}
        }
        if method != "GET" {
            self.log.user_bytes += body.len() as u64;
        }
        let parsed = match Json::parse(&reply.body) {
            Ok(v) => v,
            Err(e) => {
                self.log
                    .ledger
                    .fail(format!("{method} {path}: reply is not JSON: {e}"));
                return None;
            }
        };
        if let Some(c) = &mut self.capture {
            c.push(Exchange {
                kind,
                raw,
                body: body.to_string(),
                reply,
            });
        }
        Some(parsed)
    }

    /// Books a reply whose content failed its check.
    fn wrong(&mut self, what: String) -> Option<()> {
        self.log.ledger.fail(what);
        None
    }
}

/// The server's id of the `index`-th catalog uploaded to a fresh server.
fn catalog_id(index: usize) -> u64 {
    index as u64 + 1
}

fn create_body(catalog: usize, seed: u64) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("catalog").uint_value(catalog_id(catalog));
    j.key("max_sources").uint_value(MAX_SOURCES as u64);
    j.key("theta").num_value(THETA);
    j.key("beta").uint_value(BETA as u64);
    j.key("seed").uint_value(seed);
    j.end_obj();
    j.finish()
}

const WEIGHT_FEEDBACK: &str = r#"{"actions":[{"op":"weight","qef":"coverage","value":0.4}]}"#;

fn pin_feedback(source: &str) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("actions").begin_arr();
    j.begin_obj();
    j.key("op").str_value("adopt_ga");
    j.key("index").uint_value(0);
    j.end_obj();
    j.begin_obj();
    j.key("op").str_value("pin");
    j.key("source").str_value(source);
    j.end_obj();
    j.end_arr();
    j.end_obj();
    j.finish()
}

/// Source names of a solve reply's solution, after checking its shape.
fn solved_sources(reply: &Json, iteration: u64) -> Result<Vec<String>, String> {
    let got = reply.get("iteration").and_then(Json::as_u64);
    if got != Some(iteration) {
        return Err(format!(
            "solve reply iteration {got:?}, expected {iteration}"
        ));
    }
    if reply.get("timed_out").and_then(Json::as_bool) != Some(false) {
        return Err("solve hit the server deadline".into());
    }
    let solution = reply.get("solution").ok_or("solve reply has no solution")?;
    let quality = solution
        .get("quality")
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    if !(0.0..=1.0).contains(&quality) {
        return Err(format!("solution quality {quality} outside [0, 1]"));
    }
    let names: Vec<String> = solution
        .get("sources")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str).map(String::from))
        .collect();
    if names.is_empty() || names.len() > MAX_SOURCES {
        return Err(format!(
            "solution has {} sources (m = {MAX_SOURCES})",
            names.len()
        ));
    }
    let ga0 = solution
        .get("schema")
        .and_then(Json::as_array)
        .and_then(<[Json]>::first)
        .and_then(|ga| ga.get("attrs"))
        .and_then(Json::as_array)
        .and_then(<[Json]>::first)
        .and_then(|attr| attr.get("source"))
        .and_then(Json::as_str)
        .ok_or("solution has an empty mediated schema")?;
    if !names.iter().any(|n| n == ga0) {
        return Err(format!(
            "GA 0 spans {ga0}, which the solution does not select"
        ));
    }
    Ok(names)
}

/// One steering loop: create, solve, re-weight, solve, adopt GA 0 and pin the
/// latest solution's first source, solve, explain, delete. `None` when any step failed.
fn steering_loop(ctx: &mut LoopCtx<'_>, catalog: usize, seed: u64) -> Option<()> {
    let created = ctx.call(
        Kind::Create,
        "POST",
        "/sessions",
        &create_body(catalog, seed),
        201,
    )?;
    let Some(id) = created.get("session").and_then(Json::as_u64) else {
        return ctx.wrong("create reply has no session id".into());
    };
    if created.get("seed").and_then(Json::as_u64) != Some(seed) {
        return ctx.wrong(format!("session {id} did not take seed {seed}"));
    }
    let outcome = steer(ctx, id);
    if outcome.is_none() {
        // Free the slot so one failure does not exhaust the session cap.
        let _ = send(
            ctx.addr,
            &encode_request("DELETE", &format!("/sessions/{id}"), ""),
        );
        return None;
    }
    let deleted = ctx.call(Kind::Delete, "DELETE", &format!("/sessions/{id}"), "", 200)?;
    if deleted.get("deleted").and_then(Json::as_bool) != Some(true) {
        return ctx.wrong("delete reply does not confirm".into());
    }
    Some(())
}

fn solve_step(ctx: &mut LoopCtx<'_>, path: &str, iteration: u64) -> Option<Vec<String>> {
    let reply = ctx.call(Kind::Solve, "POST", path, "", 200)?;
    match solved_sources(&reply, iteration) {
        Ok(names) => Some(names),
        Err(e) => {
            ctx.wrong(e);
            None
        }
    }
}

fn steer(ctx: &mut LoopCtx<'_>, id: u64) -> Option<()> {
    let solve_path = format!("/sessions/{id}/solve");
    let feedback_path = format!("/sessions/{id}/feedback");
    let solve = |ctx: &mut LoopCtx<'_>, iteration| solve_step(ctx, &solve_path, iteration);
    solve(ctx, 1)?;
    let fb = ctx.call(Kind::Feedback, "POST", &feedback_path, WEIGHT_FEEDBACK, 200)?;
    if fb.get("applied").and_then(Json::as_u64) != Some(1) {
        return ctx.wrong("weight feedback not applied".into());
    }
    // Adopt GA 0 and pin the latest solution's first source.
    let second = solve(ctx, 2)?;
    let pin = second[0].clone();
    let fb = ctx.call(
        Kind::Feedback,
        "POST",
        &feedback_path,
        &pin_feedback(&pin),
        200,
    )?;
    let constraints = fb.get("constraints");
    let pinned = constraints
        .and_then(|c| c.get("pinned"))
        .and_then(Json::as_array)
        .is_some_and(|p| p.iter().any(|s| s.as_str() == Some(pin.as_str())));
    let gas = constraints
        .and_then(|c| c.get("required_gas"))
        .and_then(Json::as_u64);
    if fb.get("applied").and_then(Json::as_u64) != Some(2) || !pinned || gas != Some(1) {
        return ctx.wrong(format!("pin feedback not reflected: {fb:?}"));
    }
    let third = solve(ctx, 3)?;
    if !third.contains(&pin) {
        return ctx.wrong(format!(
            "pinned source {pin} missing from the next solution"
        ));
    }
    let explained = ctx.call(
        Kind::Explain,
        "GET",
        &format!("/sessions/{id}/explain"),
        "",
        200,
    )?;
    let contributions = explained
        .get("contributions")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    if contributions != third.len() {
        return ctx.wrong(format!(
            "explain covers {contributions} sources, the solution has {}",
            third.len()
        ));
    }
    Some(())
}

/// Runs the clients against `addr` until `run_for` has passed. With a
/// tracer, records a span per request and captures the first loops'
/// traffic for replay.
fn drive(
    addr: SocketAddr,
    opts: &Options,
    run_for: Duration,
    tracer: Option<&Tracer>,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut i = 0;
                    while start.elapsed() < run_for {
                        let catalog = (client + CLIENTS * i) % CATALOGS;
                        let seed = loop_seed(opts.seed, client * 1_000_000 + i);
                        let keep = tracer.is_some() && log.captured.len() < CAPTURED_LOOPS;
                        let request = ((client + 1) * 1_000_000 + i) as u64;
                        let mut ctx = LoopCtx {
                            addr,
                            log: &mut log,
                            capture: keep.then(Vec::new),
                            tracer: tracer.map(|t| (t, request)),
                        };
                        let done = steering_loop(&mut ctx, catalog, seed).is_some();
                        let exchanges = ctx.capture.take();
                        if done {
                            log.loops += 1;
                            if let Some(exchanges) = exchanges {
                                log.captured.push(Captured {
                                    catalog,
                                    seed,
                                    exchanges,
                                });
                            }
                        }
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, secs(start.elapsed()))
}

/// A loop's session seed. JSON numbers are doubles: keep it exact in 53
/// bits.
fn loop_seed(run_seed: u64, index: usize) -> u64 {
    synth::sub_seed(run_seed, Stream::Solver, index as u64) & ((1 << 53) - 1)
}

/// `repl.ack_ms`: the median over paired writes of a write's latency on
/// the replicated leader minus the same write on a leader without a
/// follower. Each loop runs on one leader and then, with the same catalog
/// and seed, on the other (which goes first alternates), so both halves of
/// a pair make the same requests in the same machine phase. Returns the
/// median and the number of pairs.
fn paired_ack_ms(
    replicated: SocketAddr,
    solo: SocketAddr,
    opts: &Options,
    ledger: &mut Ledger,
) -> (f64, usize) {
    let mut diffs = Vec::new();
    for i in 0..PAIRED_LOOPS {
        let catalog = i % CATALOGS;
        let seed = loop_seed(opts.seed, 2_000_000 + i);
        let order = if i % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        let mut writes: [Option<Vec<f64>>; 2] = [None, None];
        for with_follower in order {
            let mut log = ClientLog::default();
            let mut ctx = LoopCtx {
                addr: if with_follower { replicated } else { solo },
                log: &mut log,
                capture: None,
                tracer: None,
            };
            let done = steering_loop(&mut ctx, catalog, seed).is_some();
            ledger.merge(std::mem::take(&mut log.ledger));
            writes[usize::from(with_follower)] = done.then_some(log.write_ms);
        }
        if let [Some(without), Some(with)] = writes {
            if with.len() == without.len() {
                diffs.extend(with.iter().zip(&without).map(|(w, s)| w - s));
            }
        }
    }
    (median(&diffs).unwrap_or(f64::NAN), diffs.len())
}

/// Starts a cluster and uploads the catalogs; returns it with the set-up
/// time.
fn set_up(
    work: &Path,
    tag: &str,
    follower: bool,
    catalogs: &[Catalog],
    ledger: &mut Ledger,
) -> Result<(Cluster, f64), String> {
    let t0 = Instant::now();
    let cluster = Cluster::start(work, tag, follower)?;
    for (id, c) in catalogs.iter().enumerate() {
        let reply = ledger
            .expect(
                "POST /catalogs",
                crate::client::call(
                    cluster.leader.addr,
                    "POST",
                    "/catalogs",
                    &serve::upload_body(&c.text),
                ),
                201,
            )
            .ok_or("catalog upload failed")?;
        serve::check_upload(&reply, catalog_id(id), c)?;
    }
    Ok((cluster, secs(t0.elapsed())))
}

/// Runs `steer_session` for `opts.seconds`.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let catalogs: Vec<Catalog> = (0..CATALOGS)
        .map(|i| synth::session_catalog(synth::sub_seed(opts.seed, Stream::Catalog, i as u64)))
        .collect();
    let mut ledger = Ledger::default();
    let mut setups = Vec::new();
    let mut cluster = None;
    let rounds = if opts.trace { 1 } else { SETUPS };
    for k in 0..rounds {
        // Stop the previous cluster first, so set-ups do not overlap.
        drop(cluster.take());
        match set_up(&opts.work, &format!("s{k}"), true, &catalogs, &mut ledger) {
            Ok((c, s)) => {
                setups.push(s);
                cluster = Some(c);
            }
            Err(e) => {
                report.check("cluster set-up", false, e);
                report.attempted = ledger.attempted;
                report.failed = ledger.failed;
                return report;
            }
        }
    }
    let cluster = cluster.expect("at least one set-up");
    report.note("servers", cluster.flags());
    report.note("clients", format!("{CLIENTS} closed-loop"));
    report.note(
        "session",
        format!("{CATALOGS} catalogs of 60 sources, m={MAX_SOURCES} theta={THETA} beta={BETA}"),
    );

    let before = serve::get_json(cluster.leader.addr, "/metrics").ok();
    let dir_before = crate::env::dir_bytes(&cluster.leader.data_dir);
    let monitor = opts.trace.then(|| LagMonitor::start(cluster.leader.addr));
    let run_for = Duration::from_secs(opts.seconds);
    let tracer = opts.trace.then(Tracer::new);
    // Requests take milliseconds and overlap, so the reference computation
    // runs before and after the whole load rather than beside each one.
    let ((logs, elapsed), _, ref_s) =
        reference::beside(|| drive(cluster.leader.addr, opts, run_for, tracer.as_deref()));
    let lag_max = monitor.map_or(0, LagMonitor::finish);
    let after = serve::get_json(cluster.leader.addr, "/metrics").ok();
    let dir_after = crate::env::dir_bytes(&cluster.leader.data_dir);

    let mut log = ClientLog::default();
    let mut captured = Vec::new();
    for l in logs {
        ledger.merge(l.ledger);
        log.solve_ms.extend(l.solve_ms);
        log.write_ms.extend(l.write_ms);
        log.solve_reply_bytes.extend(l.solve_reply_bytes);
        log.user_bytes += l.user_bytes;
        log.loops += l.loops;
        captured.extend(l.captured);
    }
    match cluster.converged(Duration::from_secs(10)) {
        Ok((lsn, digest)) => report.check(
            "leader and follower agree",
            true,
            format!("lsn {lsn}, digest {digest}"),
        ),
        Err(e) => report.check("leader and follower agree", false, e),
    }
    let delta = |path: &[&str]| {
        let (Some(a), Some(b)) = (&after, &before) else {
            return 0;
        };
        m(a, path).saturating_sub(m(b, path))
    };
    let panics = after.as_ref().map_or(0, |a| m(a, &["worker_panics"]));
    report.check(
        "no worker panics",
        panics == 0,
        format!("{panics} worker panics"),
    );
    let timed_out = delta(&["solves_timed_out"]);
    report.check(
        "no solve hit the deadline",
        timed_out == 0,
        format!("{timed_out} timed out"),
    );
    let rss = crate::env::peak_rss_mb(Some(cluster.leader.pid())).unwrap_or(f64::NAN);

    let loops_per_s = log.loops as f64 / elapsed;
    let write_p50 = median(&log.write_ms).unwrap_or(f64::NAN);
    let solve_p50 = median(&log.solve_ms).unwrap_or(f64::NAN);
    report.note("reference_ms", ref_s * 1e3);
    let setup_s = median(&setups).unwrap_or(f64::NAN);
    let (solve_pct, solve_tail) = tail(&log.solve_ms).unwrap_or((f64::NAN, f64::NAN));
    let (write_pct, write_tail) = tail(&log.write_ms).unwrap_or((f64::NAN, f64::NAN));
    report.note(
        "solve_req_tail_percentile",
        format!("p{solve_pct} of {} solves", log.solve_ms.len()),
    );
    report.note(
        "write_req_tail_percentile",
        format!("p{write_pct} of {} writes", log.write_ms.len()),
    );
    report.note("loops", log.loops);
    report.detail = vec![
        metric("setup_s", setup_s, "s"),
        metric("loops_per_s", loops_per_s, "1/s"),
        metric("solve_req_p50_ms", solve_p50, "ms"),
        metric("solve_req_tail_ms", solve_tail, "ms"),
        metric("write_req_p50_ms", write_p50, "ms"),
        metric("write_req_tail_ms", write_tail, "ms"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    report.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("op_time_rel", solve_p50 / 1e3 / ref_s, "ratio"),
        metric("peak_rss_mb", rss, "MB"),
    ];

    if let Some(tracer) = &tracer {
        // Semi-sync ack cost: paired loops against a leader alone.
        let repl_ack_ms = match set_up(&opts.work, "solo", false, &catalogs, &mut ledger) {
            Ok((solo, _)) => {
                let (ack, pairs) =
                    paired_ack_ms(cluster.leader.addr, solo.leader.addr, opts, &mut ledger);
                report.note("repl_ack_pairs", pairs);
                ack
            }
            Err(e) => {
                report.check("solo leader set-up", false, e);
                f64::NAN
            }
        };
        drop(cluster);
        let mut layers = replay(opts, tracer, &catalogs, &captured, &mut report);
        layers.repl_ack_ms = repl_ack_ms;
        layers.wal_appends = delta(&["journal", "appends"]) as f64;
        layers.wal_snapshots = delta(&["journal", "snapshots"]) as f64;
        layers.wal_bytes_per_user_byte =
            (dir_after as f64 - dir_before as f64) / log.user_bytes.max(1) as f64;
        layers.serve_requests_shed = delta(&["requests_shed"]) as f64;
        layers.repl_lag_lsn_max = lag_max as f64;
        layers.response_bytes = median(&log.solve_reply_bytes).unwrap_or(0.0);
        report.metrics = layers.metrics();
        let _ = crate::write_spans(tracer, opts);
    }
    report.attempted = ledger.attempted;
    report.failed = ledger.failed;
    report.reasons = ledger.reasons;
    report
}

/// The `"solution"` member of a solve reply, byte for byte.
fn raw_solution(body: &str) -> Option<&str> {
    let start = body.find("\"solution\":")? + "\"solution\":".len();
    let end = body.rfind(",\"diff\":")?;
    body.get(start..end)
}

/// A server-equivalent session built in-process over a parsed catalog,
/// with the traced matcher and QEFs.
fn replay_session(parsed: &Parsed, seed: u64, tracer: &Arc<Tracer>) -> Result<Session, String> {
    let matcher: Arc<dyn MatchOperator> = Arc::new(trace::TracedMatcher::new(
        Arc::new(ClusterMatcher::with_cache(
            &parsed.universe,
            Arc::clone(&parsed.cache),
        )),
        Arc::clone(tracer),
    ));
    let qefs = trace::traced_qefs(&qefs_for(&parsed.universe), tracer);
    let constraints = Constraints::with_max_sources(MAX_SOURCES)
        .theta(THETA)
        .beta(BETA);
    let problem = Problem::new(Arc::clone(&parsed.universe), matcher, qefs, constraints)
        .map_err(|e| e.to_string())?;
    let tabu = TabuSearch {
        max_evaluations: SERVER_MAX_EVALUATIONS,
        ..TabuSearch::default()
    };
    Ok(Session::new(problem, Box::new(tabu), seed))
}

fn apply_feedback(session: &mut Session, body: &str) -> Result<(), String> {
    let v = Json::parse(body).map_err(|e| e.to_string())?;
    for action in v
        .get("actions")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        let s = |k: &str| action.get(k).and_then(Json::as_str).unwrap_or_default();
        let result = match s("op") {
            "weight" => session.set_weight(
                s("qef"),
                action.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            ),
            "adopt_ga" => {
                session.adopt_ga(action.get("index").and_then(Json::as_usize).unwrap_or(0))
            }
            "pin" => session.pin_source_by_name(s("source")),
            other => return Err(format!("replay has no rule for `{other}`")),
        };
        result.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Replays the captured traffic through the server's layers in-process:
/// HTTP parsing, JSON parsing, catalog parsing and cache build, the
/// sessions (traced), solution serialization, and journal appends under
/// the same fsync policy, whose frames are read back with the
/// replication frame reader. Every replayed solution must equal the one
/// the server returned.
fn replay(
    opts: &Options,
    tracer: &Arc<Tracer>,
    catalogs: &[Catalog],
    captured: &[Captured],
    report: &mut Report,
) -> Layers {
    let mut mismatches = Vec::new();
    let mut parsed = Vec::new();
    for (i, c) in catalogs.iter().enumerate() {
        match parse_catalog(&c.text, Some((tracer, i as u64))) {
            Ok(p) => parsed.push(p),
            Err(e) => mismatches.push(e),
        }
    }
    let mut wal = match serve::ReplayJournal::open(&opts.work.join("replay-wal")) {
        Ok(w) => w,
        Err(e) => {
            report.check("replay journal", false, e);
            return Layers::default();
        }
    };
    let mut append = |request: u64, event: Event, mismatches: &mut Vec<String>| {
        if let Err(e) = wal.append(tracer, request, event) {
            mismatches.push(e);
        }
    };
    for (id, c) in catalogs.iter().enumerate() {
        let event = Event::CatalogCreate {
            id: catalog_id(id),
            text: c.text.clone(),
        };
        append(0, event, &mut mismatches);
    }
    let mut json_bytes = 0usize;
    let mut memo = Vec::new();
    let mut evaluations = Vec::new();
    for (n, lp) in captured.iter().enumerate() {
        let request = n as u64 + 1;
        let session_id = n as u64;
        let Some(p) = parsed.get(lp.catalog) else {
            continue;
        };
        let mut session = match replay_session(p, lp.seed, tracer) {
            Ok(s) => s,
            Err(e) => {
                mismatches.push(e);
                continue;
            }
        };
        for ex in &lp.exchanges {
            let read = tracer.in_span("http.read", request, || {
                mube_serve::http::read_request(&mut ex.raw.as_slice(), 1 << 20)
            });
            if read.0.ok().map(|r| r.body).as_deref() != Some(ex.body.as_bytes()) {
                mismatches.push("http replay read a different body".into());
            }
            if !ex.body.is_empty() {
                json_bytes += ex.body.len();
                if tracer
                    .in_span("json.parse", request, || Json::parse(&ex.body))
                    .0
                    .is_err()
                {
                    mismatches.push("json replay failed".into());
                }
            }
            match ex.kind {
                Kind::Create => {
                    let event = Event::SessionCreate {
                        id: session_id,
                        catalog_id: catalog_id(lp.catalog),
                        body: ex.body.clone(),
                    };
                    append(request, event, &mut mismatches);
                }
                Kind::Feedback => {
                    if let Err(e) = apply_feedback(&mut session, &ex.body) {
                        mismatches.push(format!("feedback replay: {e}"));
                    }
                    let event = Event::Feedback {
                        session: session_id,
                        body: ex.body.clone(),
                    };
                    append(request, event, &mut mismatches);
                }
                Kind::Solve => {
                    let (result, _) = tracer.in_span("solve", request, || session.run().cloned());
                    let Ok(solution) = result else {
                        mismatches.push("replayed solve failed".into());
                        continue;
                    };
                    memo.push(session.problem().distinct_evaluations() as f64);
                    evaluations.push(solution.evaluations as f64);
                    let (json, _) = tracer.in_span("serialize", request, || {
                        solution.to_json(session.universe())
                    });
                    if raw_solution(&ex.reply.body) != Some(json.as_str()) {
                        mismatches.push(format!(
                            "replayed solve of loop {n} differs from the server's"
                        ));
                    }
                    let event = Event::Solve {
                        session: session_id,
                        solution: SolutionRecord::from_solution(&solution),
                    };
                    append(request, event, &mut mismatches);
                }
                Kind::Delete => {
                    append(
                        request,
                        Event::SessionDelete {
                            session: session_id,
                        },
                        &mut mismatches,
                    );
                }
                Kind::Explain => {}
            }
        }
    }
    let (decoded, detail) = wal.verify();
    report.check("journal frames decode", decoded, detail);
    report.check(
        "replay reproduces the server",
        mismatches.is_empty() && !captured.is_empty(),
        if mismatches.is_empty() {
            format!("{} loops replayed", captured.len())
        } else {
            mismatches[0].clone()
        },
    );

    let spans = tracer.spans();
    let mut layers = Layers::from_solve_spans(&spans);
    layers.catalog_parse_ms = Layers::median_ms(&spans, "catalog.parse");
    layers.cache_build_ms = Layers::median_ms(&spans, "cache.build");
    layers.cache_matrix_bytes = median(
        &parsed
            .iter()
            .map(|p| p.cache.matrix_bytes() as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    layers.session_solve_ms = Layers::median_ms(&spans, "solve");
    layers.serialize_us = Layers::median_ms(&spans, "serialize") * 1e3;
    layers.http_read_us = Layers::median_ms(&spans, "http.read") * 1e3;
    layers.json_parse_ms = Layers::median_ms(&spans, "json.parse");
    let json_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "json.parse")
        .map(trace::Span::duration_ns)
        .sum();
    layers.json_parse_ns_per_byte = json_ns as f64 / json_bytes.max(1) as f64;
    layers.wal_append_us = Layers::median_ms(&spans, "wal.append") * 1e3;
    layers.memo_entries = median(&memo).unwrap_or(0.0);
    layers.search_evaluations = evaluations.iter().sum::<f64>() / evaluations.len().max(1) as f64;
    layers.match_calls_per_eval = if layers.search_evaluations > 0.0 {
        layers.cluster_calls / layers.search_evaluations
    } else {
        0.0
    };
    let counts: BTreeMap<&str, usize> = spans.iter().fold(BTreeMap::new(), |mut acc, s| {
        *acc.entry(s.name).or_default() += 1;
        acc
    });
    report.note("spans", format!("{counts:?}"));
    report.note(
        "trace_overhead",
        "not measured: the live run records client-side spans only",
    );
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_solution_is_the_member_between_solution_and_diff() {
        let body = r#"{"session":0,"iteration":1,"timed_out":false,"solution":{"a":[1,{"b":2}]},"diff":null}"#;
        assert_eq!(raw_solution(body), Some(r#"{"a":[1,{"b":2}]}"#));
        assert_eq!(raw_solution("{}"), None);
    }

    #[test]
    fn solve_reply_checks() {
        let ok = r#"{"iteration":2,"timed_out":false,"solution":{"quality":0.5,"sources":[{"name":"site1"},{"name":"site2"}],"schema":[{"ga":0,"attrs":[{"source":"site2","attr":"a"}]}]}}"#;
        let names = solved_sources(&Json::parse(ok).unwrap(), 2).unwrap();
        assert_eq!(names, ["site1", "site2"], "in solution order");
        assert!(solved_sources(&Json::parse(ok).unwrap(), 3).is_err());
        let late = ok.replace("\"timed_out\":false", "\"timed_out\":true");
        assert!(solved_sources(&Json::parse(&late).unwrap(), 2).is_err());
        let empty = ok.replace("[{\"name\":\"site1\"},{\"name\":\"site2\"}]", "[]");
        assert!(solved_sources(&Json::parse(&empty).unwrap(), 2).is_err());
        let foreign = ok.replace("\"source\":\"site2\"", "\"source\":\"site9\"");
        assert!(solved_sources(&Json::parse(&foreign).unwrap(), 2).is_err());
    }
}
