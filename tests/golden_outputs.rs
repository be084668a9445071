//! Golden outputs: the committed files under `fixtures/golden/` pin the
//! exact bytes of `mube solve/lint/scale-solve/exec --json` and of the
//! `POST /sessions` create and solve bodies at the default server config.
//! Any change to how solvers, portfolios or QEF mixes are assembled must
//! leave every one of them byte-identical.
//!
//! Each CLI file is the binary's stdout (the command output plus the
//! newline `main` prints); each session file is the HTTP response body.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mube_cli::{parse, run};
use mube_serve::{Json, ServeConfig, Server};

fn root(rel: &str) -> String {
    format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn golden(name: &str) -> String {
    let path = root(&format!("fixtures/golden/{name}"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `mube <args>` as the binary would print it.
fn cli(args: &[&str]) -> String {
    let out = run(parse(args).expect("flags parse")).expect("command succeeds");
    format!("{out}\n")
}

/// One request over a fresh connection; returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: golden\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
    (status, body.unwrap_or_default())
}

#[test]
fn golden_outputs_are_byte_identical() {
    let catalog = root("fixtures/portfolio.catalog");
    let infeasible = root("fixtures/infeasible.catalog");
    let mut cases: Vec<(String, String)> = Vec::new();

    for solver in ["tabu", "sls", "annealing", "pso"] {
        let out = cli(&[
            "solve", &catalog, "--max", "6", "--seed", "7", "--solver", solver, "--json",
        ]);
        cases.push((format!("solve_{solver}.json"), out));
    }
    let out = cli(&[
        "solve",
        &catalog,
        "--max",
        "6",
        "--seed",
        "7",
        "--threads",
        "2",
        "--restarts",
        "2",
        "--json",
    ]);
    cases.push(("solve_portfolio.json".into(), out));
    cases.push((
        "lint_infeasible.json".into(),
        cli(&["lint", &infeasible, "--json"]),
    ));
    let out = cli(&[
        "scale-solve",
        "--sources",
        "2000",
        "--max",
        "6",
        "--seed",
        "3",
        "--json",
    ]);
    cases.push(("scale_solve.json".into(), out));
    let out = cli(&[
        "exec",
        "--sources",
        "30",
        "--max",
        "6",
        "--faults",
        "rate=0.3",
        "--fault-seed",
        "7",
        "--json",
    ]);
    cases.push(("exec.json".into(), out));

    let (handle, join) = Server::spawn(ServeConfig::default()).expect("bind server");
    let addr = handle.addr();
    let text = std::fs::read_to_string(&catalog).expect("read catalog");
    let mut j = mube_core::jsonw::JsonBuf::new();
    j.begin_obj();
    j.key("catalog").str_value(&text);
    j.end_obj();
    let (status, body) = request(addr, "POST", "/catalogs", &j.finish());
    assert_eq!(status, 201, "{body}");
    let catalog_id = Json::parse(&body)
        .ok()
        .and_then(|v| v.get("catalog").and_then(Json::as_u64))
        .expect("catalog id");
    let sessions = [
        ("tabu", "\"solver\":\"tabu\""),
        ("portfolio", "\"threads\":2,\"restarts\":2"),
    ];
    for (name, extra) in sessions {
        let create = format!("{{\"catalog\":{catalog_id},\"max_sources\":6,\"seed\":7,{extra}}}");
        let (status, created) = request(addr, "POST", "/sessions", &create);
        assert_eq!(status, 201, "{created}");
        let session = Json::parse(&created)
            .ok()
            .and_then(|v| v.get("session").and_then(Json::as_u64))
            .expect("session id");
        let (status, solved) = request(addr, "POST", &format!("/sessions/{session}/solve"), "");
        assert_eq!(status, 200, "{solved}");
        cases.push((format!("session_{name}_create.json"), created));
        cases.push((format!("session_{name}_solve.json"), solved));
    }
    handle.shutdown();
    join.join().expect("acceptor thread").expect("clean run");

    let drifted: Vec<String> = cases
        .iter()
        .filter(|(file, actual)| golden(file) != *actual)
        .map(|(file, actual)| format!("{file}: got {actual:?}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} golden output(s) drifted:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
