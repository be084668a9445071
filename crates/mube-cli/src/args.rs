//! Hand-rolled argument parsing (no external crates).

use mube_synth::DomainKind;

use crate::commands::CliError;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mube gen`.
    Gen {
        /// Number of sources.
        sources: usize,
        /// Generator seed.
        seed: u64,
        /// Schema domain.
        domain: DomainKind,
        /// Use the paper's cardinalities/pools instead of test scale.
        paper_scale: bool,
        /// Output file.
        out: String,
    },
    /// `mube validate`.
    Validate {
        /// Catalog file.
        file: String,
    },
    /// `mube match`.
    Match {
        /// Catalog file.
        file: String,
        /// Matching threshold θ.
        theta: f64,
        /// Restrict to these source names (all if empty).
        sources: Vec<String>,
    },
    /// `mube solve`.
    Solve {
        /// Catalog file.
        file: String,
        /// Maximum sources `m`.
        max: usize,
        /// Matching threshold θ.
        theta: f64,
        /// Minimum GA size β.
        beta: usize,
        /// Solver seed.
        seed: u64,
        /// Which solver to use.
        solver: String,
        /// OS threads for the portfolio (1 = sequential; results never
        /// depend on this).
        threads: usize,
        /// Portfolio member spec (`tabu,sls,anneal[,pso]`); `None` unless
        /// portfolio mode was requested.
        portfolio: Option<String>,
        /// How many times the portfolio spec is repeated (independent seed
        /// streams per copy).
        restarts: usize,
        /// Wall-clock budget in milliseconds; the solve stops at the
        /// deadline and reports the best incumbent found (anytime
        /// semantics). `None` runs to the evaluation budget.
        time_budget_ms: Option<u64>,
        /// Source names to pin (source constraints).
        pins: Vec<String>,
        /// `(qef, weight)` overrides.
        weights: Vec<(String, f64)>,
        /// Print the leave-one-out explanation.
        explain: bool,
        /// Emit the solution as machine-readable JSON instead of text.
        json: bool,
    },
    /// `mube lint`.
    Lint {
        /// Catalog file.
        file: String,
        /// Maximum sources `m` (defaults to the universe size).
        max: Option<usize>,
        /// Matching threshold θ.
        theta: f64,
        /// Minimum GA size β.
        beta: usize,
        /// Source names to pin (source constraints).
        pins: Vec<String>,
        /// `(qef, weight)` overrides.
        weights: Vec<(String, f64)>,
        /// Warn (MUBE017) when the catalog exceeds this many sources,
        /// since a flat solve without a pruning front end will be slow.
        scale_threshold: Option<usize>,
        /// Treat warnings as failures.
        deny_warnings: bool,
        /// Emit the findings as JSON instead of text.
        json: bool,
    },
    /// `mube scale-solve`.
    ScaleSolve {
        /// Sources in the synthetic streaming universe.
        sources: usize,
        /// Wall-clock budget in milliseconds for the whole pipeline
        /// (anytime semantics); `None` runs to the evaluation budgets.
        budget_ms: Option<u64>,
        /// Schema domain.
        domain: DomainKind,
        /// Maximum sources `m` in the final solution.
        max: usize,
        /// Matching threshold θ (both levels).
        theta: f64,
        /// Minimum GA size β (both levels).
        beta: usize,
        /// Relevance survivors kept by the pruning front end.
        top_k: usize,
        /// Generator + solver seed.
        seed: u64,
        /// Relevance keywords matched against source/attribute names.
        keywords: Vec<String>,
        /// Source names that must survive pruning and be selected.
        pins: Vec<String>,
        /// Which solver to use.
        solver: String,
        /// OS threads for the portfolio (results never depend on this).
        threads: usize,
        /// Portfolio member spec; `None` unless portfolio mode was
        /// requested.
        portfolio: Option<String>,
        /// Portfolio restart copies.
        restarts: usize,
        /// Emit the pipeline report as deterministic JSON.
        json: bool,
    },
    /// `mube exec`.
    Exec {
        /// Number of sources to generate.
        sources: usize,
        /// Generator + solver seed.
        seed: u64,
        /// Schema domain.
        domain: DomainKind,
        /// Maximum sources `m`.
        max: usize,
        /// Matching threshold θ.
        theta: f64,
        /// Minimum GA size β.
        beta: usize,
        /// Which solver to use.
        solver: String,
        /// Fault spec (`rate=0.3`, `auto[:SCALE]`, or profile fields);
        /// `None` executes fault-free.
        faults: Option<String>,
        /// Seed for fault draws and retry jitter.
        fault_seed: u64,
        /// Query tuple range `LO..HI`.
        query: (u64, u64),
        /// Emit the execution report as deterministic JSON.
        json: bool,
        /// After a faulty run, re-probe and re-solve around failing
        /// sources.
        resolve: bool,
    },
    /// `mube lint-src`.
    LintSrc {
        /// Workspace root to scan (its `crates/` tree is walked).
        root: String,
        /// Treat warnings as failures (errors always fail).
        deny: bool,
        /// Emit the findings as JSON instead of text.
        json: bool,
        /// Allowlist file (`CODE path-prefix` lines); defaults to
        /// `ROOT/lint-src.allow` when that file exists.
        allowlist: Option<String>,
    },
    /// `mube serve`.
    Serve {
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// Worker threads.
        threads: usize,
        /// Durable session journal directory (`None` = in-memory only).
        data_dir: Option<String>,
        /// Journal fsync policy (`always`, `interval[:MS]`, or `never`).
        fsync: mube_serve::FsyncPolicy,
        /// Leader address to follow (`host:port` of its replication
        /// port); makes this node a read-only replica.
        follow: Option<String>,
        /// Replication listen address for followers to connect to.
        repl_addr: Option<String>,
        /// Semi-sync: mutating requests only succeed once a follower has
        /// durably applied their event.
        repl_sync: bool,
        /// Auto-promote after this long without leader contact
        /// (`None` = manual promotion only).
        promote_timeout: Option<std::time::Duration>,
        /// Background-scrub cadence (`None` = server default; zero
        /// disables scrubbing).
        scrub_interval: Option<std::time::Duration>,
        /// Quarantine retention cap (`None` = server default).
        quarantine_keep: Option<u64>,
    },
    /// `mube promote` — ask a follower to become the leader.
    Promote {
        /// The follower's HTTP address (`host:port`).
        addr: String,
    },
    /// `mube resync` — rebuild a (diverged) follower from its leader.
    Resync {
        /// The follower's HTTP address (`host:port`).
        addr: String,
    },
    /// `mube fsck` — offline data-dir integrity check and repair.
    Fsck {
        /// The data directory to check.
        dir: String,
        /// Quarantine corrupt ranges, salvage past them, and rebuild a
        /// clean snapshot.
        repair: bool,
        /// Emit the report as JSON instead of text.
        json: bool,
    },
    /// `mube help`.
    Help,
}

fn bad(detail: impl Into<String>) -> CliError {
    CliError::Usage(detail.into())
}

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<&'a str, CliError> {
    iter.next()
        .ok_or_else(|| bad(format!("{flag} needs a value")))
}

/// Takes the value after `flag` and parses it as a `T`; a value that does
/// not parse fails with "`flag` needs `what`".
fn parse_value<'a, T: std::str::FromStr, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
    what: &str,
) -> Result<T, CliError> {
    take_value(flag, iter)?
        .parse()
        .map_err(|_| bad(format!("{flag} needs {what}")))
}

/// [`parse_value`] for a count that must be at least 1.
fn parse_count<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<usize, CliError> {
    let n = parse_value(flag, iter, "an integer")?;
    if n == 0 {
        return Err(bad(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Parses a `--weight QEF=W` override.
fn parse_weight<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<(String, f64), CliError> {
    let spec = take_value(flag, iter)?;
    let malformed = || bad(format!("{flag} needs QEF=W"));
    let (name, value) = spec.split_once('=').ok_or_else(malformed)?;
    let value = value.parse().map_err(|_| malformed())?;
    Ok((name.to_string(), value))
}

/// Takes a `--solver` name, which must name a known solver; returns its
/// canonical name (`anneal` → `annealing`, as in `--portfolio`).
fn parse_solver<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<String, CliError> {
    let solver = take_value(flag, iter)?;
    let canon = mube_opt::canonical_solver(solver)
        .ok_or_else(|| bad(format!("unknown solver `{solver}`")))?;
    Ok(canon.to_string())
}

/// The solver option group shared by `solve` and `scale-solve`: `--solver`,
/// `--threads`, `--portfolio` and `--restarts`.
struct SolverFlags {
    solver: String,
    threads: usize,
    threads_given: bool,
    portfolio: Option<String>,
    restarts: usize,
}

impl SolverFlags {
    fn new() -> Self {
        SolverFlags {
            solver: "tabu".to_string(),
            threads: 1,
            threads_given: false,
            portfolio: None,
            restarts: 1,
        }
    }

    /// Consumes `flag` (and its value) when it belongs to the group;
    /// `Ok(false)` leaves it to the caller.
    fn take<'a, I: Iterator<Item = &'a str>>(
        &mut self,
        flag: &str,
        iter: &mut I,
    ) -> Result<bool, CliError> {
        match flag {
            "--solver" => self.solver = parse_solver(flag, iter)?,
            "--threads" => {
                self.threads = parse_count(flag, iter)?;
                self.threads_given = true;
            }
            "--portfolio" => {
                let spec = take_value(flag, iter)?;
                mube_opt::parse_portfolio_spec(spec).map_err(bad)?;
                self.portfolio = Some(spec.to_string());
            }
            "--restarts" => self.restarts = parse_count(flag, iter)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// `(solver, threads, portfolio, restarts)`, with `--threads`/
    /// `--restarts` implying portfolio mode ([`mube_opt::implied_portfolio`]).
    fn finish(self) -> (String, usize, Option<String>, usize) {
        let portfolio =
            mube_opt::implied_portfolio(self.portfolio, self.threads_given, self.restarts);
        (self.solver, self.threads, portfolio, self.restarts)
    }
}

fn parse_domain(s: &str) -> Result<DomainKind, CliError> {
    match s {
        "books" => Ok(DomainKind::Books),
        "airfares" => Ok(DomainKind::Airfares),
        "movies" => Ok(DomainKind::Movies),
        "music" => Ok(DomainKind::MusicRecords),
        other => Err(bad(format!("unknown domain `{other}`"))),
    }
}

/// Parses the argument vector (without the program name).
pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<Command, CliError> {
    let mut iter = argv.iter().map(AsRef::as_ref);
    let Some(command) = iter.next() else {
        return Ok(Command::Help);
    };
    match command {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "gen" => {
            let mut sources = 60usize;
            let mut seed = 2007u64;
            let mut domain = DomainKind::Books;
            let mut paper_scale = false;
            let mut out: Option<String> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--sources" => sources = parse_value(flag, &mut iter, "an integer")?,
                    "--seed" => seed = parse_value(flag, &mut iter, "an integer")?,
                    "--domain" => domain = parse_domain(take_value(flag, &mut iter)?)?,
                    "--paper-scale" => paper_scale = true,
                    "--out" => out = Some(take_value(flag, &mut iter)?.to_string()),
                    other => return Err(bad(format!("unknown flag `{other}` for gen"))),
                }
            }
            let out = out.ok_or_else(|| bad("gen requires --out FILE"))?;
            Ok(Command::Gen {
                sources,
                seed,
                domain,
                paper_scale,
                out,
            })
        }
        "validate" => {
            let file = iter.next().ok_or_else(|| bad("validate requires a FILE"))?;
            if let Some(extra) = iter.next() {
                return Err(bad(format!("unexpected argument `{extra}`")));
            }
            Ok(Command::Validate {
                file: file.to_string(),
            })
        }
        "match" => {
            let file = iter
                .next()
                .ok_or_else(|| bad("match requires a FILE"))?
                .to_string();
            let mut theta = 0.75f64;
            let mut sources = Vec::new();
            while let Some(flag) = iter.next() {
                match flag {
                    "--theta" => theta = parse_value(flag, &mut iter, "a number")?,
                    "--sources" => {
                        sources = take_value(flag, &mut iter)?
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect();
                    }
                    other => return Err(bad(format!("unknown flag `{other}` for match"))),
                }
            }
            Ok(Command::Match {
                file,
                theta,
                sources,
            })
        }
        "solve" => {
            let file = iter
                .next()
                .ok_or_else(|| bad("solve requires a FILE"))?
                .to_string();
            let mut max = 10usize;
            let mut theta = 0.75f64;
            let mut beta = 2usize;
            let mut seed = 42u64;
            let mut solver_flags = SolverFlags::new();
            let mut time_budget_ms: Option<u64> = None;
            let mut pins = Vec::new();
            let mut weights = Vec::new();
            let mut explain = false;
            let mut json = false;
            while let Some(flag) = iter.next() {
                if solver_flags.take(flag, &mut iter)? {
                    continue;
                }
                match flag {
                    "--max" => max = parse_value(flag, &mut iter, "an integer")?,
                    "--theta" => theta = parse_value(flag, &mut iter, "a number")?,
                    "--beta" => beta = parse_value(flag, &mut iter, "an integer")?,
                    "--seed" => seed = parse_value(flag, &mut iter, "an integer")?,
                    "--time-budget" => {
                        time_budget_ms = Some(parse_value(flag, &mut iter, "milliseconds")?);
                    }
                    "--pin" => pins.push(take_value(flag, &mut iter)?.to_string()),
                    "--weight" => weights.push(parse_weight(flag, &mut iter)?),
                    "--explain" => explain = true,
                    "--json" => json = true,
                    other => return Err(bad(format!("unknown flag `{other}` for solve"))),
                }
            }
            if json && explain {
                return Err(bad("--json and --explain are mutually exclusive"));
            }
            let (solver, threads, portfolio, restarts) = solver_flags.finish();
            Ok(Command::Solve {
                file,
                max,
                theta,
                beta,
                seed,
                solver,
                threads,
                portfolio,
                restarts,
                time_budget_ms,
                pins,
                weights,
                explain,
                json,
            })
        }
        "lint" => {
            let file = iter
                .next()
                .ok_or_else(|| bad("lint requires a FILE"))?
                .to_string();
            let mut max: Option<usize> = None;
            let mut theta = 0.75f64;
            let mut beta = 2usize;
            let mut pins = Vec::new();
            let mut weights = Vec::new();
            let mut scale_threshold: Option<usize> = None;
            let mut deny_warnings = false;
            let mut json = false;
            while let Some(flag) = iter.next() {
                match flag {
                    "--max" => max = Some(parse_value(flag, &mut iter, "an integer")?),
                    "--scale-threshold" => {
                        scale_threshold = Some(parse_value(flag, &mut iter, "an integer")?);
                    }
                    "--theta" => theta = parse_value(flag, &mut iter, "a number")?,
                    "--beta" => beta = parse_value(flag, &mut iter, "an integer")?,
                    "--pin" => pins.push(take_value(flag, &mut iter)?.to_string()),
                    "--weight" => weights.push(parse_weight(flag, &mut iter)?),
                    "--deny-warnings" => deny_warnings = true,
                    "--json" => json = true,
                    other => return Err(bad(format!("unknown flag `{other}` for lint"))),
                }
            }
            Ok(Command::Lint {
                file,
                max,
                theta,
                beta,
                pins,
                weights,
                scale_threshold,
                deny_warnings,
                json,
            })
        }
        "scale-solve" => {
            let mut sources = 100_000usize;
            let mut budget_ms: Option<u64> = None;
            let mut domain = DomainKind::Books;
            let mut max = 10usize;
            let mut theta = 0.75f64;
            let mut beta = 2usize;
            let mut top_k = 1_500usize;
            let mut seed = 2007u64;
            let mut keywords = Vec::new();
            let mut pins = Vec::new();
            let mut solver_flags = SolverFlags::new();
            let mut json = false;
            while let Some(flag) = iter.next() {
                if solver_flags.take(flag, &mut iter)? {
                    continue;
                }
                match flag {
                    "--sources" => sources = parse_count(flag, &mut iter)?,
                    "--budget" => budget_ms = Some(parse_value(flag, &mut iter, "milliseconds")?),
                    "--domain" => domain = parse_domain(take_value(flag, &mut iter)?)?,
                    "--max" => max = parse_value(flag, &mut iter, "an integer")?,
                    "--theta" => theta = parse_value(flag, &mut iter, "a number")?,
                    "--beta" => beta = parse_value(flag, &mut iter, "an integer")?,
                    "--top-k" => top_k = parse_count(flag, &mut iter)?,
                    "--seed" => seed = parse_value(flag, &mut iter, "an integer")?,
                    "--keyword" => keywords.push(take_value(flag, &mut iter)?.to_string()),
                    "--pin" => pins.push(take_value(flag, &mut iter)?.to_string()),
                    "--json" => json = true,
                    other => return Err(bad(format!("unknown flag `{other}` for scale-solve"))),
                }
            }
            let (solver, threads, portfolio, restarts) = solver_flags.finish();
            Ok(Command::ScaleSolve {
                sources,
                budget_ms,
                domain,
                max,
                theta,
                beta,
                top_k,
                seed,
                keywords,
                pins,
                solver,
                threads,
                portfolio,
                restarts,
                json,
            })
        }
        "exec" => {
            let mut sources = 40usize;
            let mut seed = 2007u64;
            let mut domain = DomainKind::Books;
            let mut max = 8usize;
            let mut theta = 0.75f64;
            let mut beta = 2usize;
            let mut solver = "tabu".to_string();
            let mut faults: Option<String> = None;
            let mut fault_seed = 1u64;
            let mut query = (0u64, u64::MAX);
            let mut json = false;
            let mut resolve = false;
            while let Some(flag) = iter.next() {
                match flag {
                    "--sources" => sources = parse_value(flag, &mut iter, "an integer")?,
                    "--seed" => seed = parse_value(flag, &mut iter, "an integer")?,
                    "--domain" => domain = parse_domain(take_value(flag, &mut iter)?)?,
                    "--max" => max = parse_value(flag, &mut iter, "an integer")?,
                    "--theta" => theta = parse_value(flag, &mut iter, "a number")?,
                    "--beta" => beta = parse_value(flag, &mut iter, "an integer")?,
                    "--solver" => solver = parse_solver(flag, &mut iter)?,
                    "--faults" => faults = Some(take_value(flag, &mut iter)?.to_string()),
                    "--fault-seed" => fault_seed = parse_value(flag, &mut iter, "an integer")?,
                    "--query" => {
                        let spec = take_value(flag, &mut iter)?;
                        let (lo, hi) = spec
                            .split_once("..")
                            .ok_or_else(|| bad("--query needs LO..HI"))?;
                        let lo: u64 = lo.parse().map_err(|_| bad("--query needs LO..HI"))?;
                        let hi: u64 = hi.parse().map_err(|_| bad("--query needs LO..HI"))?;
                        if hi < lo {
                            return Err(bad("--query range must have LO ≤ HI"));
                        }
                        query = (lo, hi);
                    }
                    "--json" => json = true,
                    "--resolve" => resolve = true,
                    other => return Err(bad(format!("unknown flag `{other}` for exec"))),
                }
            }
            if json && resolve {
                return Err(bad("--json and --resolve are mutually exclusive"));
            }
            Ok(Command::Exec {
                sources,
                seed,
                domain,
                max,
                theta,
                beta,
                solver,
                faults,
                fault_seed,
                query,
                json,
                resolve,
            })
        }
        "lint-src" => {
            let mut root: Option<String> = None;
            let mut deny = false;
            let mut json = false;
            let mut allowlist: Option<String> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--deny" => deny = true,
                    "--json" => json = true,
                    "--allowlist" => allowlist = Some(take_value(flag, &mut iter)?.to_string()),
                    other if !other.starts_with("--") && root.is_none() => {
                        root = Some(other.to_string());
                    }
                    other => return Err(bad(format!("unknown flag `{other}` for lint-src"))),
                }
            }
            Ok(Command::LintSrc {
                root: root.unwrap_or_else(|| ".".to_string()),
                deny,
                json,
                allowlist,
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:7207".to_string();
            let mut threads = 4usize;
            let mut data_dir: Option<String> = None;
            let mut fsync = mube_serve::FsyncPolicy::default();
            let mut follow: Option<String> = None;
            let mut repl_addr: Option<String> = None;
            let mut repl_sync = false;
            let mut promote_timeout: Option<std::time::Duration> = None;
            let mut scrub_interval: Option<std::time::Duration> = None;
            let mut quarantine_keep: Option<u64> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--addr" => addr = take_value(flag, &mut iter)?.to_string(),
                    "--threads" => threads = parse_count(flag, &mut iter)?,
                    "--data-dir" => data_dir = Some(take_value(flag, &mut iter)?.to_string()),
                    "--fsync" => {
                        fsync = mube_serve::FsyncPolicy::parse(take_value(flag, &mut iter)?)
                            .map_err(bad)?;
                    }
                    "--follow" => follow = Some(take_value(flag, &mut iter)?.to_string()),
                    "--repl-addr" => repl_addr = Some(take_value(flag, &mut iter)?.to_string()),
                    "--repl-sync" => repl_sync = true,
                    "--promote-timeout" => {
                        let ms: u64 = parse_value(flag, &mut iter, "milliseconds")?;
                        if ms == 0 {
                            return Err(bad("--promote-timeout must be at least 1 ms"));
                        }
                        promote_timeout = Some(std::time::Duration::from_millis(ms));
                    }
                    "--scrub-interval" => {
                        let ms = parse_value(flag, &mut iter, "milliseconds")?;
                        scrub_interval = Some(std::time::Duration::from_millis(ms));
                    }
                    "--quarantine-keep" => {
                        quarantine_keep = Some(parse_value(flag, &mut iter, "an integer")?);
                    }
                    other => return Err(bad(format!("unknown flag `{other}` for serve"))),
                }
            }
            if (follow.is_some() || repl_addr.is_some()) && data_dir.is_none() {
                return Err(bad("--follow / --repl-addr require --data-dir"));
            }
            if promote_timeout.is_some() && follow.is_none() {
                return Err(bad("--promote-timeout only makes sense with --follow"));
            }
            if (scrub_interval.is_some() || quarantine_keep.is_some()) && data_dir.is_none() {
                return Err(bad(
                    "--scrub-interval / --quarantine-keep require --data-dir",
                ));
            }
            Ok(Command::Serve {
                addr,
                threads,
                data_dir,
                fsync,
                follow,
                repl_addr,
                repl_sync,
                promote_timeout,
                scrub_interval,
                quarantine_keep,
            })
        }
        "promote" => {
            let mut addr: Option<String> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--addr" => addr = Some(take_value(flag, &mut iter)?.to_string()),
                    other if !other.starts_with('-') && addr.is_none() => {
                        addr = Some(other.to_string());
                    }
                    other => return Err(bad(format!("unknown flag `{other}` for promote"))),
                }
            }
            let addr = addr.ok_or_else(|| bad("promote needs the follower's address"))?;
            Ok(Command::Promote { addr })
        }
        "resync" => {
            let mut addr: Option<String> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--addr" => addr = Some(take_value(flag, &mut iter)?.to_string()),
                    other if !other.starts_with('-') && addr.is_none() => {
                        addr = Some(other.to_string());
                    }
                    other => return Err(bad(format!("unknown flag `{other}` for resync"))),
                }
            }
            let addr = addr.ok_or_else(|| bad("resync needs the follower's address"))?;
            Ok(Command::Resync { addr })
        }
        "fsck" => {
            let mut dir: Option<String> = None;
            let mut repair = false;
            let mut json = false;
            for flag in iter.by_ref() {
                match flag {
                    "--repair" => repair = true,
                    "--json" => json = true,
                    other if !other.starts_with('-') && dir.is_none() => {
                        dir = Some(other.to_string());
                    }
                    other => return Err(bad(format!("unknown flag `{other}` for fsck"))),
                }
            }
            let dir = dir.ok_or_else(|| bad("fsck needs a data directory"))?;
            Ok(Command::Fsck { dir, repair, json })
        }
        other => Err(bad(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, CliError> {
        parse(args)
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(p(&[]).unwrap(), Command::Help);
        assert_eq!(p(&["help"]).unwrap(), Command::Help);
        assert_eq!(p(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn gen_defaults_and_flags() {
        let c = p(&["gen", "--out", "x.cat"]).unwrap();
        assert_eq!(
            c,
            Command::Gen {
                sources: 60,
                seed: 2007,
                domain: DomainKind::Books,
                paper_scale: false,
                out: "x.cat".into()
            }
        );
        let c = p(&[
            "gen",
            "--sources",
            "10",
            "--seed",
            "5",
            "--domain",
            "movies",
            "--paper-scale",
            "--out",
            "m.cat",
        ])
        .unwrap();
        assert!(matches!(
            c,
            Command::Gen {
                sources: 10,
                seed: 5,
                domain: DomainKind::Movies,
                paper_scale: true,
                ..
            }
        ));
    }

    #[test]
    fn gen_requires_out() {
        assert!(p(&["gen", "--sources", "3"]).is_err());
        assert!(p(&["gen", "--sources"]).is_err());
        assert!(p(&["gen", "--domain", "poetry", "--out", "x"]).is_err());
    }

    #[test]
    fn validate_takes_exactly_one_file() {
        assert_eq!(
            p(&["validate", "a.cat"]).unwrap(),
            Command::Validate {
                file: "a.cat".into()
            }
        );
        assert!(p(&["validate"]).is_err());
        assert!(p(&["validate", "a", "b"]).is_err());
    }

    #[test]
    fn match_parses_sources_list() {
        let c = p(&["match", "a.cat", "--theta", "0.5", "--sources", "x, y,z"]).unwrap();
        assert_eq!(
            c,
            Command::Match {
                file: "a.cat".into(),
                theta: 0.5,
                sources: vec!["x".into(), "y".into(), "z".into()]
            }
        );
    }

    #[test]
    fn solve_full_flags() {
        let c = p(&[
            "solve",
            "a.cat",
            "--max",
            "5",
            "--theta",
            "0.4",
            "--beta",
            "3",
            "--seed",
            "9",
            "--solver",
            "annealing",
            "--pin",
            "s1",
            "--pin",
            "s2",
            "--weight",
            "coverage=0.4",
            "--explain",
        ])
        .unwrap();
        match c {
            Command::Solve {
                max,
                theta,
                beta,
                seed,
                solver,
                pins,
                weights,
                explain,
                ..
            } => {
                assert_eq!(max, 5);
                assert_eq!(theta, 0.4);
                assert_eq!(beta, 3);
                assert_eq!(seed, 9);
                assert_eq!(solver, "annealing");
                assert_eq!(pins, vec!["s1", "s2"]);
                assert_eq!(weights, vec![("coverage".to_string(), 0.4)]);
                assert!(explain);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lint_defaults_and_flags() {
        let c = p(&["lint", "a.cat"]).unwrap();
        assert_eq!(
            c,
            Command::Lint {
                file: "a.cat".into(),
                max: None,
                theta: 0.75,
                beta: 2,
                pins: vec![],
                weights: vec![],
                scale_threshold: None,
                deny_warnings: false,
                json: false,
            }
        );
        let c = p(&[
            "lint",
            "a.cat",
            "--max",
            "4",
            "--theta",
            "0.5",
            "--beta",
            "3",
            "--pin",
            "s1",
            "--weight",
            "coverage=0.4",
            "--deny-warnings",
            "--json",
        ])
        .unwrap();
        match c {
            Command::Lint {
                max,
                theta,
                beta,
                pins,
                weights,
                deny_warnings,
                json,
                ..
            } => {
                assert_eq!(max, Some(4));
                assert_eq!(theta, 0.5);
                assert_eq!(beta, 3);
                assert_eq!(pins, vec!["s1"]);
                assert_eq!(weights, vec![("coverage".to_string(), 0.4)]);
                assert!(deny_warnings && json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lint_rejects_bad_input() {
        assert!(p(&["lint"]).is_err());
        assert!(p(&["lint", "a.cat", "--max", "many"]).is_err());
        assert!(p(&["lint", "a.cat", "--warn-deny"]).is_err());
        assert!(p(&["lint", "a.cat", "--weight", "coverage"]).is_err());
        assert!(p(&["lint", "a.cat", "--scale-threshold", "huge"]).is_err());
    }

    #[test]
    fn lint_scale_threshold_flag() {
        match p(&["lint", "a.cat", "--scale-threshold", "5000"]).unwrap() {
            Command::Lint {
                scale_threshold, ..
            } => assert_eq!(scale_threshold, Some(5000)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scale_solve_defaults_and_flags() {
        match p(&["scale-solve"]).unwrap() {
            Command::ScaleSolve {
                sources,
                budget_ms,
                max,
                theta,
                beta,
                top_k,
                seed,
                keywords,
                pins,
                solver,
                portfolio,
                json,
                ..
            } => {
                assert_eq!(sources, 100_000);
                assert_eq!(budget_ms, None);
                assert_eq!(max, 10);
                assert_eq!(theta, 0.75);
                assert_eq!(beta, 2);
                assert_eq!(top_k, 1_500);
                assert_eq!(seed, 2007);
                assert!(keywords.is_empty() && pins.is_empty());
                assert_eq!(solver, "tabu");
                assert_eq!(portfolio, None);
                assert!(!json);
            }
            other => panic!("unexpected {other:?}"),
        }
        match p(&[
            "scale-solve",
            "--sources",
            "100000",
            "--budget",
            "60000",
            "--domain",
            "movies",
            "--max",
            "6",
            "--theta",
            "0.4",
            "--beta",
            "3",
            "--top-k",
            "800",
            "--seed",
            "9",
            "--keyword",
            "title",
            "--keyword",
            "director",
            "--pin",
            "site0042",
            "--threads",
            "4",
            "--json",
        ])
        .unwrap()
        {
            Command::ScaleSolve {
                sources,
                budget_ms,
                domain,
                max,
                theta,
                beta,
                top_k,
                seed,
                keywords,
                pins,
                threads,
                portfolio,
                json,
                ..
            } => {
                assert_eq!(sources, 100_000);
                assert_eq!(budget_ms, Some(60_000));
                assert_eq!(domain, DomainKind::Movies);
                assert_eq!(max, 6);
                assert_eq!(theta, 0.4);
                assert_eq!(beta, 3);
                assert_eq!(top_k, 800);
                assert_eq!(seed, 9);
                assert_eq!(keywords, vec!["title", "director"]);
                assert_eq!(pins, vec!["site0042"]);
                assert_eq!(threads, 4);
                // --threads engages the default portfolio mix.
                assert_eq!(portfolio.as_deref(), Some("tabu,sls,anneal,pso"));
                assert!(json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scale_solve_rejects_bad_input() {
        assert!(p(&["scale-solve", "--sources", "0"]).is_err());
        assert!(p(&["scale-solve", "--top-k", "0"]).is_err());
        assert!(p(&["scale-solve", "--budget", "soon"]).is_err());
        assert!(p(&["scale-solve", "--solver", "oracle"]).is_err());
        assert!(p(&["scale-solve", "--threads", "0"]).is_err());
        assert!(p(&["scale-solve", "--out", "x"]).is_err());
    }

    #[test]
    fn solve_rejects_bad_input() {
        assert!(p(&["solve"]).is_err());
        assert!(p(&["solve", "a.cat", "--solver", "gradient-descent"]).is_err());
        assert!(p(&["solve", "a.cat", "--weight", "coverage"]).is_err());
        assert!(p(&["solve", "a.cat", "--max", "many"]).is_err());
        assert!(p(&["frobnicate"]).is_err());
    }

    #[test]
    fn solve_portfolio_flags() {
        // Plain solve: no portfolio.
        match p(&["solve", "a.cat"]).unwrap() {
            Command::Solve {
                threads,
                portfolio,
                restarts,
                ..
            } => {
                assert_eq!(threads, 1);
                assert_eq!(portfolio, None);
                assert_eq!(restarts, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --threads alone engages the default portfolio, even at 1 thread.
        for t in ["1", "8"] {
            match p(&["solve", "a.cat", "--threads", t]).unwrap() {
                Command::Solve {
                    threads, portfolio, ..
                } => {
                    assert_eq!(threads, t.parse::<usize>().unwrap());
                    assert_eq!(portfolio.as_deref(), Some("tabu,sls,anneal,pso"));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match p(&[
            "solve",
            "a.cat",
            "--threads",
            "4",
            "--portfolio",
            "tabu,sls,anneal",
            "--restarts",
            "2",
        ])
        .unwrap()
        {
            Command::Solve {
                threads,
                portfolio,
                restarts,
                ..
            } => {
                assert_eq!(threads, 4);
                assert_eq!(portfolio.as_deref(), Some("tabu,sls,anneal"));
                assert_eq!(restarts, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(p(&["solve", "a.cat", "--threads", "0"]).is_err());
        assert!(p(&["solve", "a.cat", "--restarts", "0"]).is_err());
        assert!(p(&["solve", "a.cat", "--portfolio", "tabu,genetic"]).is_err());
        assert!(p(&["solve", "a.cat", "--portfolio", ""]).is_err());
    }

    #[test]
    fn solve_json_flag() {
        match p(&["solve", "a.cat", "--json"]).unwrap() {
            Command::Solve { json, explain, .. } => {
                assert!(json);
                assert!(!explain);
            }
            other => panic!("unexpected {other:?}"),
        }
        // JSON output and the text explanation cannot be combined.
        assert!(p(&["solve", "a.cat", "--json", "--explain"]).is_err());
    }

    #[test]
    fn exec_defaults_and_flags() {
        match p(&["exec"]).unwrap() {
            Command::Exec {
                sources,
                seed,
                max,
                faults,
                fault_seed,
                query,
                json,
                resolve,
                ..
            } => {
                assert_eq!(sources, 40);
                assert_eq!(seed, 2007);
                assert_eq!(max, 8);
                assert_eq!(faults, None);
                assert_eq!(fault_seed, 1);
                assert_eq!(query, (0, u64::MAX));
                assert!(!json && !resolve);
            }
            other => panic!("unexpected {other:?}"),
        }
        match p(&[
            "exec",
            "--sources",
            "30",
            "--faults",
            "rate=0.3",
            "--fault-seed",
            "9",
            "--query",
            "100..5000",
            "--json",
        ])
        .unwrap()
        {
            Command::Exec {
                sources,
                faults,
                fault_seed,
                query,
                json,
                ..
            } => {
                assert_eq!(sources, 30);
                assert_eq!(faults.as_deref(), Some("rate=0.3"));
                assert_eq!(fault_seed, 9);
                assert_eq!(query, (100, 5000));
                assert!(json);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exec_rejects_bad_input() {
        assert!(p(&["exec", "--query", "backwards"]).is_err());
        assert!(p(&["exec", "--query", "9..3"]).is_err());
        assert!(p(&["exec", "--solver", "oracle"]).is_err());
        assert!(p(&["exec", "--json", "--resolve"]).is_err());
        assert!(p(&["exec", "--fault-seed", "soon"]).is_err());
    }

    #[test]
    fn lint_src_defaults_and_flags() {
        assert_eq!(
            p(&["lint-src"]).unwrap(),
            Command::LintSrc {
                root: ".".into(),
                deny: false,
                json: false,
                allowlist: None,
            }
        );
        assert_eq!(
            p(&[
                "lint-src",
                "/repo",
                "--deny",
                "--json",
                "--allowlist",
                "custom.allow"
            ])
            .unwrap(),
            Command::LintSrc {
                root: "/repo".into(),
                deny: true,
                json: true,
                allowlist: Some("custom.allow".into()),
            }
        );
        // One positional root at most; unknown flags rejected.
        assert!(p(&["lint-src", "a", "b"]).is_err());
        assert!(p(&["lint-src", "--deny-warnings"]).is_err());
        assert!(p(&["lint-src", "--allowlist"]).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            p(&["serve"]).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7207".into(),
                threads: 4,
                data_dir: None,
                fsync: mube_serve::FsyncPolicy::default(),
                follow: None,
                repl_addr: None,
                repl_sync: false,
                promote_timeout: None,
                scrub_interval: None,
                quarantine_keep: None,
            }
        );
        assert_eq!(
            p(&["serve", "--addr", "0.0.0.0:8080", "--threads", "8"]).unwrap(),
            Command::Serve {
                addr: "0.0.0.0:8080".into(),
                threads: 8,
                data_dir: None,
                fsync: mube_serve::FsyncPolicy::default(),
                follow: None,
                repl_addr: None,
                repl_sync: false,
                promote_timeout: None,
                scrub_interval: None,
                quarantine_keep: None,
            }
        );
        assert!(p(&["serve", "--threads", "0"]).is_err());
        assert!(p(&["serve", "--port", "80"]).is_err());
    }

    #[test]
    fn serve_persistence_flags() {
        let cmd = p(&["serve", "--data-dir", "/tmp/mube", "--fsync", "always"]).unwrap();
        match cmd {
            Command::Serve {
                data_dir, fsync, ..
            } => {
                assert_eq!(data_dir.as_deref(), Some("/tmp/mube"));
                assert_eq!(fsync, mube_serve::FsyncPolicy::Always);
            }
            other => panic!("unexpected {other:?}"),
        }
        match p(&["serve", "--fsync", "interval:50"]).unwrap() {
            Command::Serve { fsync, .. } => assert_eq!(
                fsync,
                mube_serve::FsyncPolicy::Interval(std::time::Duration::from_millis(50))
            ),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p(&["serve", "--fsync", "sometimes"]).is_err());
        assert!(p(&["serve", "--data-dir"]).is_err());
    }

    #[test]
    fn serve_replication_flags() {
        match p(&[
            "serve",
            "--data-dir",
            "/tmp/f",
            "--follow",
            "127.0.0.1:9000",
            "--repl-sync",
            "--promote-timeout",
            "1500",
        ])
        .unwrap()
        {
            Command::Serve {
                follow,
                repl_sync,
                promote_timeout,
                ..
            } => {
                assert_eq!(follow.as_deref(), Some("127.0.0.1:9000"));
                assert!(repl_sync);
                assert_eq!(
                    promote_timeout,
                    Some(std::time::Duration::from_millis(1500))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        match p(&[
            "serve",
            "--data-dir",
            "/tmp/l",
            "--repl-addr",
            "127.0.0.1:0",
        ])
        .unwrap()
        {
            Command::Serve { repl_addr, .. } => {
                assert_eq!(repl_addr.as_deref(), Some("127.0.0.1:0"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Replication without a journal has nothing to ship or replay.
        assert!(p(&["serve", "--follow", "x:1"]).is_err());
        assert!(p(&["serve", "--repl-addr", "x:1"]).is_err());
        // Auto-promotion is a follower concept.
        assert!(p(&["serve", "--data-dir", "/tmp/l", "--promote-timeout", "500"]).is_err());
        assert!(p(&[
            "serve",
            "--data-dir",
            "/tmp/f",
            "--follow",
            "x:1",
            "--promote-timeout",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn serve_integrity_flags() {
        match p(&[
            "serve",
            "--data-dir",
            "/tmp/s",
            "--scrub-interval",
            "250",
            "--quarantine-keep",
            "3",
        ])
        .unwrap()
        {
            Command::Serve {
                scrub_interval,
                quarantine_keep,
                ..
            } => {
                assert_eq!(scrub_interval, Some(std::time::Duration::from_millis(250)));
                assert_eq!(quarantine_keep, Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Zero disables the scrubber rather than erroring.
        match p(&["serve", "--data-dir", "/tmp/s", "--scrub-interval", "0"]).unwrap() {
            Command::Serve { scrub_interval, .. } => {
                assert_eq!(scrub_interval, Some(std::time::Duration::ZERO));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Integrity flags act on a journal; without one they are a typo.
        assert!(p(&["serve", "--scrub-interval", "250"]).is_err());
        assert!(p(&["serve", "--quarantine-keep", "3"]).is_err());
        assert!(p(&["serve", "--data-dir", "/tmp/s", "--quarantine-keep", "x"]).is_err());
    }

    #[test]
    fn fsck_parses_dir_and_flags() {
        assert_eq!(
            p(&["fsck", "/tmp/data"]).unwrap(),
            Command::Fsck {
                dir: "/tmp/data".into(),
                repair: false,
                json: false,
            }
        );
        assert_eq!(
            p(&["fsck", "/tmp/data", "--repair", "--json"]).unwrap(),
            Command::Fsck {
                dir: "/tmp/data".into(),
                repair: true,
                json: true,
            }
        );
        assert!(p(&["fsck"]).is_err());
        assert!(p(&["fsck", "/tmp/data", "--bogus"]).is_err());
    }

    #[test]
    fn resync_parses_addr() {
        assert_eq!(
            p(&["resync", "127.0.0.1:7208"]).unwrap(),
            Command::Resync {
                addr: "127.0.0.1:7208".into()
            }
        );
        assert_eq!(
            p(&["resync", "--addr", "10.0.0.2:80"]).unwrap(),
            Command::Resync {
                addr: "10.0.0.2:80".into()
            }
        );
        assert!(p(&["resync"]).is_err());
        assert!(p(&["resync", "--bogus", "x"]).is_err());
    }

    #[test]
    fn promote_parses_addr() {
        assert_eq!(
            p(&["promote", "127.0.0.1:7207"]).unwrap(),
            Command::Promote {
                addr: "127.0.0.1:7207".into()
            }
        );
        assert_eq!(
            p(&["promote", "--addr", "10.0.0.2:80"]).unwrap(),
            Command::Promote {
                addr: "10.0.0.2:80".into()
            }
        );
        assert!(p(&["promote"]).is_err());
        assert!(p(&["promote", "--bogus", "x"]).is_err());
    }

    #[test]
    fn solve_time_budget_flag() {
        match p(&["solve", "cat.catalog", "--time-budget", "250"]).unwrap() {
            Command::Solve { time_budget_ms, .. } => assert_eq!(time_budget_ms, Some(250)),
            other => panic!("unexpected {other:?}"),
        }
        match p(&["solve", "cat.catalog"]).unwrap() {
            Command::Solve { time_budget_ms, .. } => assert_eq!(time_budget_ms, None),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p(&["solve", "cat.catalog", "--time-budget", "soon"]).is_err());
        assert!(p(&["solve", "cat.catalog", "--time-budget"]).is_err());
    }
}
