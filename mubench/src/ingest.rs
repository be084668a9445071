//! `catalog_ingest`: sequential `POST /catalogs` of distinct 700-source
//! paper-scale catalogs (~410 KB bodies) to a journaled leader with one
//! semi-sync follower. A few large bodies and frames stress HTTP, JSON,
//! the WAL and replication, plus catalog parsing and the similarity cache;
//! Algorithm 1 does no work.

use std::time::{Duration, Instant};

use mube_serve::persist::Event;
use mube_serve::Json;

use crate::client::{encode_request, send, Ledger};
use crate::paper::parse_catalog;
use crate::reference;
use crate::report::{metric, Report};
use crate::serve::{self, metric as m, Cluster, LagMonitor};
use crate::stats::median;
use crate::synth::{self, Catalog, Stream};
use crate::trace::Tracer;
use crate::{secs, Layers, Options};

/// Cluster set-ups per run; `setup_s` is their median. One takes a few
/// milliseconds, so many are cheap, and the median of many is steady.
pub const SETUPS: usize = 31;
/// Uploads a traced run replays in-process (each parse takes seconds).
const REPLAYED_UPLOADS: usize = 2;
/// `peak_rss_mb` is the leader's high-water mark after this many uploads.
/// The leader keeps every catalog, so a later reading would grow with the
/// number of uploads that fit in the run, i.e. with speed.
const RSS_AFTER_UPLOADS: usize = 4;

/// One accepted upload.
struct Upload {
    seconds: f64,
    /// Median time of the reference computation beside the upload.
    ref_s: f64,
    body_bytes: usize,
    reply_bytes: usize,
    raw: Option<Vec<u8>>,
}

/// Uploads `catalog`, which must get server id `id`; `None` when it
/// failed. With a tracer, records the request's client-side span and keeps
/// its bytes for replay.
fn upload(
    addr: std::net::SocketAddr,
    catalog: &Catalog,
    id: u64,
    tracer: Option<&Tracer>,
    ledger: &mut Ledger,
) -> Option<Upload> {
    let raw = encode_request("POST", "/catalogs", &serve::upload_body(&catalog.text));
    let body_bytes = raw.len()
        - raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map_or(0, |p| p + 4);
    let ((result, t0, t1), _, ref_s) = reference::beside(|| {
        let t0 = Instant::now();
        (send(addr, &raw), t0, Instant::now())
    });
    if let Some(t) = tracer {
        t.record("http.upload", id, t0, t1);
    }
    let reply = ledger.expect("POST /catalogs", result, 201)?;
    if let Err(e) = serve::check_upload(&reply, id, catalog) {
        ledger.fail(e);
        return None;
    }
    Some(Upload {
        seconds: secs(t1 - t0),
        ref_s,
        body_bytes,
        reply_bytes: reply.body.len(),
        raw: tracer.is_some().then_some(raw),
    })
}

fn catalog(opts: &Options, index: usize) -> Catalog {
    synth::paper_catalog(synth::sub_seed(opts.seed, Stream::Catalog, index as u64))
}

/// Runs `catalog_ingest` for `opts.seconds`.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let mut setups = Vec::new();
    let mut cluster = None;
    let rounds = if opts.trace { 1 } else { SETUPS };
    for k in 0..rounds {
        // Stop the previous cluster first, so set-ups do not overlap.
        drop(cluster.take());
        let t0 = Instant::now();
        match Cluster::start(&opts.work, &format!("s{k}"), true) {
            Ok(c) => {
                setups.push(secs(t0.elapsed()));
                cluster = Some(c);
            }
            Err(e) => {
                report.check("cluster set-up", false, e);
                return report;
            }
        }
    }
    let cluster = cluster.expect("at least one set-up");
    report.note("servers", cluster.flags());
    report.note("client", "1 closed-loop, sequential uploads");
    report.note(
        "catalogs",
        "mube-synth paper scale, 700 sources, a new one per upload",
    );

    let before = serve::get_json(cluster.leader.addr, "/metrics").ok();
    let dir_before = crate::env::dir_bytes(&cluster.leader.data_dir);
    let monitor = opts.trace.then(|| LagMonitor::start(cluster.leader.addr));
    let tracer = opts.trace.then(Tracer::new);
    let start = Instant::now();
    let run_for = Duration::from_secs(opts.seconds);
    let mut uploads = Vec::new();
    let mut texts = Vec::new();
    let mut last = Duration::ZERO;
    let mut rss = None;
    while crate::should_start(start.elapsed(), last, run_for) {
        let t = Instant::now();
        let index = texts.len();
        let c = catalog(opts, index);
        let traced = tracer.as_deref().filter(|_| index < REPLAYED_UPLOADS);
        // A fresh server numbers catalogs from 1.
        match upload(
            cluster.leader.addr,
            &c,
            index as u64 + 1,
            traced,
            &mut ledger,
        ) {
            Some(u) => uploads.push(u),
            None => break,
        }
        if uploads.len() == RSS_AFTER_UPLOADS {
            rss = crate::env::peak_rss_mb(Some(cluster.leader.pid()));
        }
        texts.push(c);
        last = t.elapsed();
    }
    let lag_max = monitor.map_or(0, LagMonitor::finish);
    let after = serve::get_json(cluster.leader.addr, "/metrics").ok();
    let dir_after = crate::env::dir_bytes(&cluster.leader.data_dir);
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
    let created = delta(&["catalogs_created"]);
    report.check(
        "every upload created one catalog",
        created == uploads.len() as u64 && !uploads.is_empty(),
        format!("{created} created, {} uploads accepted", uploads.len()),
    );
    let rss = rss
        .or_else(|| crate::env::peak_rss_mb(Some(cluster.leader.pid())))
        .unwrap_or(f64::NAN);

    let upload_s =
        median(&uploads.iter().map(|u| u.seconds).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    let busy: f64 = uploads.iter().map(|u| u.seconds).sum();
    let bytes: usize = uploads.iter().map(|u| u.body_bytes).sum();
    let setup_s = median(&setups).unwrap_or(f64::NAN);
    // Upload time in units of the reference computation beside each upload.
    let rel = busy / uploads.iter().map(|u| u.ref_s).sum::<f64>();
    report.note(
        "reference_ms",
        median(&uploads.iter().map(|u| u.ref_s).collect::<Vec<_>>()).unwrap_or(f64::NAN) * 1e3,
    );
    report.note("uploads", uploads.len());
    report.note(
        "body_bytes_median",
        median(
            &uploads
                .iter()
                .map(|u| u.body_bytes as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
    );
    report.detail = vec![
        metric("setup_s", setup_s, "s"),
        metric("upload_s", upload_s, "s"),
        metric("upload_mb_per_s", bytes as f64 / 1e6 / busy, "MB/s"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    report.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("op_time_rel", rel, "ratio"),
        metric("peak_rss_mb", rss, "MB"),
    ];

    if let Some(tracer) = &tracer {
        drop(cluster);
        let mut layers = replay(opts, tracer, &texts, &uploads, &mut report);
        layers.wal_appends = delta(&["journal", "appends"]) as f64;
        layers.wal_snapshots = delta(&["journal", "snapshots"]) as f64;
        layers.wal_bytes_per_user_byte =
            (dir_after as f64 - dir_before as f64) / bytes.max(1) as f64;
        layers.serve_requests_shed = delta(&["requests_shed"]) as f64;
        layers.repl_lag_lsn_max = lag_max as f64;
        layers.response_bytes = median(
            &uploads
                .iter()
                .map(|u| u.reply_bytes as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0);
        // An upload takes seconds, almost all of it JSON parsing, and its
        // run-to-run noise is far larger than the follower's ack of one
        // frame, so a with-minus-without difference cannot resolve it.
        layers.repl_ack_ms = 0.0;
        report.note(
            "repl_ack_ms",
            "not measured on catalog_ingest (reported as 0): upload noise hides the ack",
        );
        report.note(
            "json_parse_share_of_upload",
            layers.json_parse_ms / (upload_s * 1e3),
        );
        report.metrics = layers.metrics();
        let _ = crate::write_spans(tracer, opts);
    }
    report.attempted = ledger.attempted;
    report.failed = ledger.failed;
    report.reasons = ledger.reasons;
    report
}

/// Replays the first captured uploads through the server's layers
/// in-process: HTTP parsing, JSON parsing, catalog parsing and cache
/// build, and a journal append under the same fsync policy, read back
/// with the replication frame reader.
fn replay(
    opts: &Options,
    tracer: &Tracer,
    texts: &[Catalog],
    uploads: &[Upload],
    report: &mut Report,
) -> Layers {
    let mut wal = match serve::ReplayJournal::open(&opts.work.join("replay-wal")) {
        Ok(w) => w,
        Err(e) => {
            report.check("replay journal", false, e);
            return Layers::default();
        }
    };
    let mut problems = Vec::new();
    let mut replayed = 0;
    let mut json_bytes = 0usize;
    let mut matrix = Vec::new();
    for (i, (u, c)) in uploads.iter().zip(texts).enumerate() {
        let Some(raw) = &u.raw else { break };
        let request = i as u64;
        let (req, _) = tracer.in_span("http.read", request, || {
            mube_serve::http::read_request(&mut raw.as_slice(), 1 << 20)
        });
        let Ok(req) = req else {
            problems.push("http replay failed".to_string());
            continue;
        };
        let body = String::from_utf8_lossy(&req.body).into_owned();
        json_bytes += body.len();
        let (parsed, _) = tracer.in_span("json.parse", request, || Json::parse(&body));
        let text = parsed
            .ok()
            .and_then(|v| v.get("catalog").and_then(Json::as_str).map(String::from));
        if text.as_deref() != Some(c.text.as_str()) {
            problems.push(format!(
                "upload {i}: the replayed body does not carry the catalog"
            ));
            continue;
        }
        match parse_catalog(&c.text, Some((tracer, request))) {
            Ok(p) => matrix.push(p.cache.matrix_bytes() as f64),
            Err(e) => problems.push(e),
        }
        let event = Event::CatalogCreate {
            id: request + 1,
            text: c.text.clone(),
        };
        match wal.append(tracer, request, event) {
            Ok(()) => replayed += 1,
            Err(e) => problems.push(e),
        }
    }
    let (decoded, detail) = wal.verify();
    report.check("journal frames decode", decoded, detail);
    report.check(
        "replay reproduces the uploads",
        problems.is_empty(),
        problems
            .first()
            .cloned()
            .unwrap_or_else(|| format!("{replayed} uploads replayed")),
    );

    let spans = tracer.spans();
    let json_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "json.parse")
        .map(crate::trace::Span::duration_ns)
        .sum();
    let layers = Layers {
        http_read_us: Layers::median_ms(&spans, "http.read") * 1e3,
        json_parse_ms: Layers::median_ms(&spans, "json.parse"),
        json_parse_ns_per_byte: json_ns as f64 / json_bytes.max(1) as f64,
        catalog_parse_ms: Layers::median_ms(&spans, "catalog.parse"),
        cache_build_ms: Layers::median_ms(&spans, "cache.build"),
        cache_matrix_bytes: median(&matrix).unwrap_or(0.0),
        wal_append_us: Layers::median_ms(&spans, "wal.append") * 1e3,
        ..Layers::default()
    };
    report.note(
        "trace_overhead",
        "not measured: the live run records client-side spans only",
    );
    layers
}
