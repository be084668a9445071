//! `mube serve` processes: a journaled leader with one semi-sync follower.
//!
//! Each node is this benchmark's own binary re-run as `serve-child`,
//! which hands its arguments to the `mube` command-line front end, so the
//! nodes run exactly the code and flags of `mube serve`.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mube_core::jsonw::JsonBuf;
use mube_serve::persist::{Event, FsyncPolicy, Journal};
use mube_serve::repl::FrameReader;
use mube_serve::Json;

use crate::client::{self, Reply};
use crate::synth::Catalog;
use crate::trace::Tracer;

/// Worker threads per node (`--threads`).
pub const THREADS: usize = 2;
/// Journal durability policy on both nodes (`--fsync`).
pub const FSYNC: &str = "always";
/// Background scrub cadence on both nodes (`--scrub-interval`, ms).
pub const SCRUB_INTERVAL_MS: u64 = 60_000;
/// Journal compaction cadence. `mube serve` has no flag for it, so both
/// nodes run the server default; it is recorded with every result.
pub const SNAPSHOT_EVERY: u64 = 256;
/// How long a node may take to come up, or a follower to attach.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);

/// Entry point of a `serve-child` process: runs `mube serve <args>`.
pub fn child_main(args: &[String]) -> ExitCode {
    // The parent holds this process's stdin open for its whole life, so
    // end-of-file means the parent is gone: exit instead of lingering.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    let mut argv = vec!["serve".to_string()];
    argv.extend_from_slice(args);
    match mube_cli::parse(&argv).and_then(mube_cli::run) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mube: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One running `mube serve` process. Dropping it kills the process and
/// waits for it to end.
pub struct Node {
    child: Child,
    stdout_drain: Option<JoinHandle<()>>,
    /// HTTP address.
    pub addr: SocketAddr,
    /// Replication address, when the node serves a WAL stream.
    pub repl: Option<SocketAddr>,
    /// The node's journal directory.
    pub data_dir: PathBuf,
    /// The `mube serve` flags it runs with.
    pub flags: Vec<String>,
}

impl Node {
    fn spawn(flags: Vec<String>, data_dir: PathBuf, log: &Path) -> Result<Node, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .args(&flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn mube serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Forward the announcement lines, then keep draining so the child
        // never blocks on a full pipe; ends when the child exits.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut node = Node {
            child,
            stdout_drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            repl: None,
            data_dir,
            flags,
        };
        let wants_repl = node.flags.iter().any(|f| f == "--repl-addr");
        let next_line = || {
            rx.recv_timeout(STARTUP_TIMEOUT)
                .map_err(|_| "mube serve did not announce its address".to_string())
        };
        node.addr = parse_announced(&next_line()?, "listening on http://")?;
        if wants_repl {
            node.repl = Some(parse_announced(&next_line()?, "replication on ")?);
        }
        Ok(node)
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

/// The address after `marker` in a `mube serve` announcement line.
fn parse_announced(line: &str, marker: &str) -> Result<SocketAddr, String> {
    line.split_once(marker)
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("unexpected announcement `{line}`"))
}

/// A leader, optionally with one attached semi-sync follower.
pub struct Cluster {
    /// Takes every write.
    pub leader: Node,
    /// Applies the leader's WAL stream and acks each frame.
    pub follower: Option<Node>,
}

impl Cluster {
    /// Starts a leader in `work/<tag>-leader` and, with `follower`, a
    /// follower in `work/<tag>-follower`, and waits until the follower is
    /// attached. Without a follower the leader runs without `--repl-addr`
    /// and `--repl-sync`, since a semi-sync leader with no follower
    /// refuses every write.
    pub fn start(work: &Path, tag: &str, follower: bool) -> Result<Cluster, String> {
        let leader_dir = fresh_dir(&work.join(format!("{tag}-leader")))?;
        let mut flags = node_flags(&leader_dir);
        if follower {
            flags.extend(["--repl-addr", "127.0.0.1:0", "--repl-sync"].map(String::from));
        }
        let leader = Node::spawn(flags, leader_dir, &work.join(format!("{tag}-leader.log")))?;
        let follower = match (follower, leader.repl) {
            (false, _) => None,
            (true, None) => return Err("leader announced no replication address".into()),
            (true, Some(repl)) => {
                let dir = fresh_dir(&work.join(format!("{tag}-follower")))?;
                let mut flags = node_flags(&dir);
                flags.extend(["--follow".to_string(), repl.to_string()]);
                let node = Node::spawn(flags, dir, &work.join(format!("{tag}-follower.log")))?;
                wait_attached(leader.addr)?;
                Some(node)
            }
        };
        Ok(Cluster { leader, follower })
    }

    /// Polls until the follower reports the leader's `(lsn, digest)`;
    /// returns it. A cluster without a follower converges trivially.
    pub fn converged(&self, timeout: Duration) -> Result<(u64, String), String> {
        let leader = healthz(self.leader.addr)?;
        let Some(follower) = &self.follower else {
            return Ok(leader);
        };
        let deadline = Instant::now() + timeout;
        loop {
            let seen = healthz(follower.addr)?;
            if seen == leader {
                return Ok(leader);
            }
            if Instant::now() > deadline {
                let state = client::call(follower.addr, "GET", "/healthz", "")
                    .map_or_else(|e| e, |r| r.body);
                return Err(format!(
                    "follower at (lsn {}, digest {}) never matched leader at (lsn {}, digest {}); \
                     follower /healthz: {state}",
                    seen.0, seen.1, leader.0, leader.1
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Both nodes' flags, for the result record.
    pub fn flags(&self) -> String {
        let mut out = format!("leader: {}", self.leader.flags.join(" "));
        if let Some(f) = &self.follower {
            out.push_str(&format!("; follower: {}", f.flags.join(" ")));
        }
        out
    }
}

fn node_flags(data_dir: &Path) -> Vec<String> {
    vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--threads".into(),
        THREADS.to_string(),
        "--data-dir".into(),
        data_dir.display().to_string(),
        "--fsync".into(),
        FSYNC.into(),
        "--scrub-interval".into(),
        SCRUB_INTERVAL_MS.to_string(),
    ]
}

fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// `GET path` parsed as JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let reply = client::call(addr, "GET", path, "")?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    Json::parse(&reply.body).map_err(|e| format!("GET {path}: {e}"))
}

/// A node's applied `(lsn, digest)` from `/healthz`.
pub fn healthz(addr: SocketAddr) -> Result<(u64, String), String> {
    let h = get_json(addr, "/healthz")?;
    let lsn = h.get("lsn").and_then(Json::as_u64);
    let digest = h.get("digest").and_then(Json::as_str);
    match (lsn, digest) {
        (Some(lsn), Some(d)) => Ok((lsn, d.to_string())),
        _ => Err("healthz has no lsn/digest (is the journal on?)".into()),
    }
}

/// A numeric field of `/metrics`, by path, e.g. `["journal", "appends"]`.
pub fn metric(m: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(m, |v, k| v.get(k))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// A scratch journal with the nodes' fsync policy and compaction cadence,
/// for replaying captured writes in-process.
pub struct ReplayJournal {
    dir: PathBuf,
    journal: Journal,
    frames: Vec<Vec<u8>>,
}

impl ReplayJournal {
    /// Opens an empty journal in `dir`.
    pub fn open(dir: &Path) -> Result<ReplayJournal, String> {
        let dir = fresh_dir(dir)?;
        let (journal, _, _) = Journal::open(&dir, FsyncPolicy::Always, SNAPSHOT_EVERY)
            .map_err(|e| format!("replay journal: {e}"))?;
        Ok(ReplayJournal {
            dir,
            journal,
            frames: Vec::new(),
        })
    }

    /// Appends `event` inside a `wal.append` span of `request`.
    pub fn append(&mut self, tracer: &Tracer, request: u64, event: Event) -> Result<(), String> {
        let (result, _) =
            tracer.in_span("wal.append", request, || self.journal.append_frame(event));
        let (_, frame) = result.map_err(|e| format!("journal append: {e}"))?;
        self.frames.push(frame);
        Ok(())
    }

    /// Reads every appended frame back through the replication stream
    /// decoder, removes the journal, and reports whether all frames came
    /// back, in LSN order.
    pub fn verify(self) -> (bool, String) {
        let mut reader = FrameReader::new();
        for f in &self.frames {
            reader.feed(f);
        }
        let mut lsns = Vec::new();
        while let Ok(Some(frame)) = reader.next_frame() {
            lsns.push(frame.lsn);
        }
        let ordered = lsns.windows(2).all(|w| w[0] < w[1]);
        let n = self.frames.len();
        drop(self.journal);
        let _ = std::fs::remove_dir_all(&self.dir);
        (
            lsns.len() == n && n > 0 && ordered,
            format!("{} of {n} frames", lsns.len()),
        )
    }
}

/// The `POST /catalogs` body carrying `text`.
pub fn upload_body(text: &str) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("catalog").str_value(text);
    j.end_obj();
    j.finish()
}

/// Checks a `201` upload reply: the expected catalog id, and the source
/// and attribute counts of the generated catalog.
pub fn check_upload(reply: &Reply, id: u64, catalog: &Catalog) -> Result<(), String> {
    let v = Json::parse(&reply.body).map_err(|e| format!("upload reply: {e}"))?;
    let field = |k: &str| v.get(k).and_then(Json::as_u64);
    let want = (
        Some(id),
        Some(catalog.sources as u64),
        Some(catalog.attributes as u64),
    );
    let got = (field("catalog"), field("sources"), field("attributes"));
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "upload reply {got:?} != expected (id, sources, attributes) {want:?}"
        ))
    }
}

/// Samples the leader's replication lag (`/metrics` `repl.lag`, in LSNs)
/// until stopped, keeping the maximum.
pub struct LagMonitor {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl LagMonitor {
    /// Starts sampling `leader` every 25 ms.
    pub fn start(leader: SocketAddr) -> LagMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut max = 0;
            while !flag.load(Ordering::SeqCst) {
                if let Ok(m) = get_json(leader, "/metrics") {
                    max = max.max(metric(&m, &["repl", "lag"]));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            max
        });
        LagMonitor { stop, handle }
    }

    /// Stops sampling; returns the largest lag seen.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("lag monitor panicked")
    }
}

fn wait_attached(leader: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + STARTUP_TIMEOUT;
    while Instant::now() < deadline {
        if let Ok(m) = get_json(leader, "/metrics") {
            if metric(&m, &["repl", "followers"]) >= 1 {
                return Ok(());
            }
        }
        // Attaching takes a few milliseconds; a coarse poll would round
        // every set-up time up to its period.
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("the follower never attached to the leader".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announcement_lines_parse() {
        let a = parse_announced(
            "mube-serve listening on http://127.0.0.1:4107 (2 worker threads)",
            "listening on http://",
        )
        .unwrap();
        assert_eq!(a.port(), 4107);
        let r =
            parse_announced("mube-serve replication on 127.0.0.1:9", "replication on ").unwrap();
        assert_eq!(r.port(), 9);
        assert!(parse_announced("garbage", "replication on ").is_err());
    }

    #[test]
    fn metric_paths_default_to_zero() {
        let m = Json::parse(r#"{"journal":{"appends":12},"repl":null}"#).unwrap();
        assert_eq!(metric(&m, &["journal", "appends"]), 12);
        assert_eq!(metric(&m, &["repl", "followers"]), 0);
    }
}
