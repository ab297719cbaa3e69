//! The `cme` command: front end for the persistent analysis service.
//!
//! ```text
//! cme serve    [--addr A] [--port-file P] [--store DIR] [--workers N]
//!              [--store-capacity N] [--metrics-dump P] [--max-queue N]
//!              [--chaos SPEC]
//! cme query    [--addr A | --port-file P] --workload K | --file F.f
//!              [--n N] [--iters N] [--bj N] [--bk N] [--param K=V]...
//!              [--cache B] [--line B] [--assoc W] [--geometry S:A:L] [--exact]
//!              [--confidence C] [--width W] [--seed S] [--timeout-ms MS]
//!              [--no-store] [--threads N] [--report-only] [--retries N]
//! cme trace gen --workload K | --file F.f [--param K=V]...
//!              [--n N] [--iters N] [--bj N] [--bk N]
//!              --out T.cmet [--geometry S:A:L] [--raw]
//! cme trace sim --in T.cmet [--geometry S:A:L] [--threads N]
//! cme ping     [--addr A | --port-file P] [--retries N]
//! cme stats    [--addr A | --port-file P] [--retries N]
//! cme compact  [--addr A | --port-file P] [--retries N]
//! cme shutdown [--addr A | --port-file P] [--retries N]
//! ```
//!
//! `query` prints the full response line (or, with `--report-only`, just the
//! canonical report bytes — byte-identical across store hits and thread
//! counts, so two runs can be `diff`ed).
//!
//! Exit codes: 0 success; 1 usage error (bad flags, malformed inputs);
//! 2 runtime error — the daemon is unreachable, the connection died
//! mid-exchange, the server answered with a structured error, or local
//! data (e.g. a trace file) is unusable. Transport failures print a
//! one-line diagnostic, never a raw panic. `--retries N` reconnects with
//! jittered exponential backoff on connection errors and on the server's
//! `retry_after` shed response — always safe, because jobs are
//! content-addressed.
//!
//! `--chaos SPEC` arms deterministic fault injection in the daemon
//! (testing only): comma-separated `site=per-mille` pairs plus `seed=N`,
//! with optional `xCAP` injection caps — e.g.
//! `seed=42,torn-write=400,drop-conn=150,panic=1000x5`.
//!
//! `trace` runs locally, no daemon needed: `gen` lowers a workload or
//! FORTRAN source and writes its exact program-order access stream as a
//! binary trace (framed with the geometry by default, `--raw` for the bare
//! big-endian u32 stream); `sim` replays a trace file through the
//! streaming LRU simulator. Raw traces need an explicit `--geometry`;
//! framed traces carry their own, which `--geometry` overrides. The same
//! replays are available remotely via the server's `trace` verb, where
//! repeat replays of identical content answer from the result store.

use cme_serve::client::{call_with_retry, RetryPolicy};
use cme_serve::json::Json;
use cme_serve::{FaultPlan, ProgramSpec, Server, ServerOptions};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const DEFAULT_ADDR: &str = "127.0.0.1:7199";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "sweep" => cmd_sweep(rest),
        "trace" => cmd_trace(rest),
        "ping" => cmd_verb(rest, "ping"),
        "stats" => cmd_verb(rest, "stats"),
        "compact" => cmd_verb(rest, "compact"),
        "shutdown" => cmd_verb(rest, "shutdown"),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("cme: {msg}\n\n{USAGE}");
            ExitCode::from(1)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("cme: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  cme serve    [--addr A] [--port-file P] [--store DIR] [--workers N]
               [--store-capacity N] [--metrics-dump P] [--max-queue N]
               [--chaos SPEC]
  cme query    [--addr A | --port-file P] --workload K | --file F.f
               [--n N] [--iters N] [--bj N] [--bk N] [--param K=V]...
               [--cache B] [--line B] [--assoc W] [--geometry S:A:L] [--exact]
               [--confidence C] [--width W] [--seed S] [--timeout-ms MS]
               [--no-store] [--threads N] [--report-only] [--retries N]
  cme sweep    [--addr A | --port-file P] --workload K | --file F.f
               [--n N] [--iters N] [--bj N] [--bk N] [--param K=V]...
               --grid SIZES:ASSOCS:LINES | --geometry S:A:L...
               [--timeout-ms MS] [--no-store] [--threads N]
               [--symbolic on|off] [--reports] [--table] [--retries N]
  cme trace gen --workload K | --file F.f [--param K=V]...
               [--n N] [--iters N] [--bj N] [--bk N]
               --out T.cmet [--geometry S:A:L] [--raw]
  cme trace sim --in T.cmet [--geometry S:A:L] [--threads N]
  cme ping     [--addr A | --port-file P] [--retries N]
  cme stats    [--addr A | --port-file P] [--retries N]
  cme compact  [--addr A | --port-file P] [--retries N]
  cme shutdown [--addr A | --port-file P] [--retries N]

geometry strings are SIZE:ASSOC:LINE, e.g. 32K:2:32 (non-power-of-two
set counts allowed, e.g. 48K:2:32); sweep grids take comma lists per
field, e.g. 8K,16K,32K:1,2:16,32 expands to 12 geometries

exit codes: 0 success, 1 usage, 2 runtime (daemon unreachable, connection
died mid-exchange, server answered an error, or data is unusable)

--chaos arms deterministic fault injection (testing only), e.g.
seed=42,torn-write=400,drop-conn=150,panic=1000x5";

enum CliError {
    /// Bad flags or malformed inputs — exit 1.
    Usage(String),
    /// The world failed, not the invocation: unreachable daemon, dead
    /// connection, unusable data — exit 2 with a one-line diagnostic.
    Runtime(String),
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Runtime(e.to_string())
    }
}

/// Renders a transport failure as a one-line, actionable diagnostic
/// (satisfying the contract that connection trouble is exit 2, never a
/// raw panic or an opaque os-error dump).
fn transport_diag(addr: &str, e: &std::io::Error) -> CliError {
    use std::io::ErrorKind;
    CliError::Runtime(match e.kind() {
        ErrorKind::ConnectionRefused => {
            format!("cannot connect to {addr}: connection refused (is `cme serve` running?)")
        }
        ErrorKind::UnexpectedEof => {
            format!("connection to {addr} closed mid-response (daemon gone? try --retries)")
        }
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
            format!("connection to {addr} dropped mid-exchange: {e} (try --retries)")
        }
        _ => format!("transport error talking to {addr}: {e}"),
    })
}

/// A tiny flag cursor: `--flag value` pairs plus boolean flags.
struct Flags<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags { args, i: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let a = self.args.get(self.i)?;
        self.i += 1;
        Some(a)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        let v = self
            .args
            .get(self.i)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        self.i += 1;
        Ok(v)
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("bad value `{raw}` for {flag}")))
    }
}

/// Resolves the daemon address from `--addr`/`--port-file`.
fn resolve_addr(addr: Option<String>, port_file: Option<PathBuf>) -> Result<String, CliError> {
    if let Some(a) = addr {
        return Ok(a);
    }
    if let Some(p) = port_file {
        let port = std::fs::read_to_string(&p)?;
        let port = port.trim();
        return Ok(format!("127.0.0.1:{port}"));
    }
    Ok(DEFAULT_ADDR.to_string())
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, CliError> {
    let mut options = ServerOptions {
        addr: DEFAULT_ADDR.to_string(),
        ..ServerOptions::default()
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => options.addr = flags.value(flag)?.to_string(),
            "--port-file" => options.port_file = Some(PathBuf::from(flags.value(flag)?)),
            "--store" => options.store_dir = Some(PathBuf::from(flags.value(flag)?)),
            "--store-capacity" => options.store_capacity = flags.parsed(flag)?,
            "--workers" => options.workers = flags.parsed(flag)?,
            "--metrics-dump" => options.metrics_dump = Some(PathBuf::from(flags.value(flag)?)),
            "--max-queue" => options.max_queue = flags.parsed(flag)?,
            "--chaos" => {
                let spec = flags.value(flag)?;
                let plan =
                    FaultPlan::parse(spec).map_err(|e| CliError::Usage(format!("--chaos: {e}")))?;
                eprintln!("cme serve: CHAOS MODE — injecting faults ({spec})");
                options.faults = Some(Arc::new(plan));
            }
            other => return Err(CliError::Usage(format!("unknown serve flag `{other}`"))),
        }
    }
    let server = Server::bind(options)?;
    eprintln!("cme serve: listening on {}", server.local_addr()?);
    server.run()?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_verb(args: &[String], verb: &str) -> Result<ExitCode, CliError> {
    let (mut addr, mut port_file) = (None, None);
    let mut retries = 0u32;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = Some(flags.value(flag)?.to_string()),
            "--port-file" => port_file = Some(PathBuf::from(flags.value(flag)?)),
            "--retries" => retries = flags.parsed(flag)?,
            other => return Err(CliError::Usage(format!("unknown {verb} flag `{other}`"))),
        }
    }
    let addr = resolve_addr(addr, port_file)?;
    let policy = RetryPolicy::with_retries(retries);
    let line = call_with_retry(&addr, &format!(r#"{{"cmd":"{verb}"}}"#), &policy)
        .map_err(|e| transport_diag(&addr, &e))?;
    println!("{line}");
    let ok = Json::parse(&line)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        .unwrap_or(false);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_query(args: &[String]) -> Result<ExitCode, CliError> {
    let (mut addr, mut port_file) = (None, None);
    let mut report_only = false;
    let mut retries = 0u32;
    // Request fields, accumulated in insertion order.
    let mut fields: Vec<(&str, Json)> = vec![("cmd", Json::Str("analyze".to_string()))];
    let mut params: Vec<(String, Json)> = Vec::new();
    let mut mode = "estimate";

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = Some(flags.value(flag)?.to_string()),
            "--port-file" => port_file = Some(PathBuf::from(flags.value(flag)?)),
            "--workload" => fields.push(("workload", Json::Str(flags.value(flag)?.to_string()))),
            "--file" => {
                let path = flags.value(flag)?;
                let text = std::fs::read_to_string(path)?;
                fields.push(("source", Json::Str(text)));
            }
            "--param" => {
                let raw = flags.value(flag)?;
                let (k, v) = raw
                    .split_once('=')
                    .ok_or_else(|| CliError::Usage(format!("--param wants K=V, got `{raw}`")))?;
                let v: i64 = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--param value `{v}` not an integer")))?;
                params.push((k.to_string(), Json::Int(v)));
            }
            "--n" => fields.push(("n", Json::Int(flags.parsed(flag)?))),
            "--iters" => fields.push(("iters", Json::Int(flags.parsed(flag)?))),
            "--bj" => fields.push(("bj", Json::Int(flags.parsed(flag)?))),
            "--bk" => fields.push(("bk", Json::Int(flags.parsed(flag)?))),
            "--cache" => fields.push(("cache", Json::Int(flags.parsed(flag)?))),
            "--line" => fields.push(("line", Json::Int(flags.parsed(flag)?))),
            "--assoc" => fields.push(("assoc", Json::Int(flags.parsed(flag)?))),
            "--geometry" => fields.push(("geometry", Json::Str(flags.value(flag)?.to_string()))),
            "--exact" => mode = "exact",
            "--confidence" => fields.push(("confidence", Json::Float(flags.parsed(flag)?))),
            "--width" => fields.push(("width", Json::Float(flags.parsed(flag)?))),
            "--seed" => fields.push(("seed", Json::Int(flags.parsed(flag)?))),
            "--timeout-ms" => fields.push(("timeout_ms", Json::Int(flags.parsed(flag)?))),
            "--no-store" => fields.push(("store", Json::Bool(false))),
            "--threads" => fields.push(("threads", Json::Int(flags.parsed(flag)?))),
            "--report-only" => report_only = true,
            "--retries" => retries = flags.parsed(flag)?,
            other => return Err(CliError::Usage(format!("unknown query flag `{other}`"))),
        }
    }
    fields.push(("mode", Json::Str(mode.to_string())));
    if !params.is_empty() {
        fields.push(("params", Json::Obj(params)));
    }
    let request = Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );

    let addr = resolve_addr(addr, port_file)?;
    let policy = RetryPolicy::with_retries(retries);
    let line = call_with_retry(&addr, &request.render(), &policy)
        .map_err(|e| transport_diag(&addr, &e))?;
    let ok = Json::parse(&line)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        .unwrap_or(false);
    if !ok {
        eprintln!("{line}");
        return Ok(ExitCode::from(2));
    }
    if report_only {
        // Cut the raw report span out of the line rather than re-rendering:
        // the bytes are exactly what the store holds, so two `--report-only`
        // runs of the same job can be compared with `diff`/`cmp`.
        let start = line
            .find(r#""report":"#)
            .map(|i| i + r#""report":"#.len())
            .ok_or_else(|| CliError::Runtime("response has no report".to_string()))?;
        let end = line
            .rfind(r#","metrics":"#)
            .ok_or_else(|| CliError::Runtime("response has no metrics".to_string()))?;
        println!("{}", &line[start..end]);
    } else {
        println!("{line}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(args: &[String]) -> Result<ExitCode, CliError> {
    let (mut addr, mut port_file) = (None, None);
    let mut table = false;
    let mut retries = 0u32;
    // Request fields, accumulated in insertion order.
    let mut fields: Vec<(&str, Json)> = vec![("cmd", Json::Str("sweep".to_string()))];
    let mut params: Vec<(String, Json)> = Vec::new();
    let mut geometries: Vec<Json> = Vec::new();

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = Some(flags.value(flag)?.to_string()),
            "--port-file" => port_file = Some(PathBuf::from(flags.value(flag)?)),
            "--workload" => fields.push(("workload", Json::Str(flags.value(flag)?.to_string()))),
            "--file" => {
                let path = flags.value(flag)?;
                let text = std::fs::read_to_string(path)?;
                fields.push(("source", Json::Str(text)));
            }
            "--param" => {
                let raw = flags.value(flag)?;
                let (k, v) = raw
                    .split_once('=')
                    .ok_or_else(|| CliError::Usage(format!("--param wants K=V, got `{raw}`")))?;
                let v: i64 = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--param value `{v}` not an integer")))?;
                params.push((k.to_string(), Json::Int(v)));
            }
            "--n" => fields.push(("n", Json::Int(flags.parsed(flag)?))),
            "--iters" => fields.push(("iters", Json::Int(flags.parsed(flag)?))),
            "--bj" => fields.push(("bj", Json::Int(flags.parsed(flag)?))),
            "--bk" => fields.push(("bk", Json::Int(flags.parsed(flag)?))),
            "--grid" => fields.push(("grid", Json::Str(flags.value(flag)?.to_string()))),
            "--geometry" => geometries.push(Json::Str(flags.value(flag)?.to_string())),
            "--timeout-ms" => fields.push(("timeout_ms", Json::Int(flags.parsed(flag)?))),
            "--no-store" => fields.push(("store", Json::Bool(false))),
            "--threads" => fields.push(("threads", Json::Int(flags.parsed(flag)?))),
            "--symbolic" => fields.push(("symbolic", Json::Str(flags.value(flag)?.to_string()))),
            "--reports" => fields.push(("reports", Json::Bool(true))),
            "--table" => table = true,
            "--retries" => retries = flags.parsed(flag)?,
            other => return Err(CliError::Usage(format!("unknown sweep flag `{other}`"))),
        }
    }
    if !geometries.is_empty() {
        fields.push(("geometries", Json::Arr(geometries)));
    }
    if !params.is_empty() {
        fields.push(("params", Json::Obj(params)));
    }
    let request = Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );

    let addr = resolve_addr(addr, port_file)?;
    let policy = RetryPolicy::with_retries(retries);
    let line = call_with_retry(&addr, &request.render(), &policy)
        .map_err(|e| transport_diag(&addr, &e))?;
    let parsed = Json::parse(&line).ok();
    let ok = parsed
        .as_ref()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        .unwrap_or(false);
    if !ok {
        eprintln!("{line}");
        return Ok(ExitCode::from(2));
    }
    if table {
        // Human-readable ranking: one row per cell, best geometry first.
        let resp = parsed.expect("ok implies parsed");
        let Some(Json::Arr(cells)) = resp.get("cells") else {
            return Err(CliError::Runtime("response has no cells".to_string()));
        };
        println!(
            "{:<4} {:>12} {:>12} {:>10} {:>6} geometry",
            "rank", "miss_ratio", "misses", "points", "store"
        );
        for (rank, cell) in cells.iter().enumerate() {
            let num = |k: &str| match cell.get(k) {
                Some(Json::Int(v)) => *v as f64,
                Some(Json::Float(v)) => *v,
                _ => f64::NAN,
            };
            let misses = match cell.get("misses") {
                Some(Json::Int(v)) => v.to_string(),
                _ => "-".to_string(),
            };
            println!(
                "{:<4} {:>12.6} {:>12} {:>10} {:>6} {}",
                rank + 1,
                num("miss_ratio"),
                misses,
                num("points") as u64,
                cell.get("store").and_then(Json::as_str).unwrap_or("?"),
                cell.get("geometry").and_then(Json::as_str).unwrap_or("?"),
            );
        }
    } else {
        println!("{line}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(args: &[String]) -> Result<ExitCode, CliError> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_trace_gen(&args[1..]),
        Some("sim") => cmd_trace_sim(&args[1..]),
        Some(other) => Err(CliError::Usage(format!(
            "unknown trace subcommand `{other}` (want gen or sim)"
        ))),
        None => Err(CliError::Usage(
            "trace needs a subcommand: gen or sim".to_string(),
        )),
    }
}

fn parse_geometry(raw: &str) -> Result<cme_cache::CacheConfig, CliError> {
    cme_cache::CacheConfig::parse_geometry(raw).map_err(|e| CliError::Usage(e.to_string()))
}

fn cmd_trace_gen(args: &[String]) -> Result<ExitCode, CliError> {
    let mut workload: Option<String> = None;
    let mut source: Option<String> = None;
    let mut params: Vec<(String, i64)> = Vec::new();
    let (mut n, mut iters) = (32i64, 2i64);
    let (mut bj, mut bk) = (None, None);
    let mut out: Option<PathBuf> = None;
    let mut geometry = None;
    let mut raw = false;

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload = Some(flags.value(flag)?.to_string()),
            "--file" => source = Some(std::fs::read_to_string(flags.value(flag)?)?),
            "--param" => {
                let pair = flags.value(flag)?;
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| CliError::Usage(format!("--param wants K=V, got `{pair}`")))?;
                let v: i64 = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--param value `{v}` not an integer")))?;
                params.push((k.to_uppercase(), v));
            }
            "--n" => n = flags.parsed(flag)?,
            "--iters" => iters = flags.parsed(flag)?,
            "--bj" => bj = Some(flags.parsed(flag)?),
            "--bk" => bk = Some(flags.parsed(flag)?),
            "--out" => out = Some(PathBuf::from(flags.value(flag)?)),
            "--geometry" => geometry = Some(parse_geometry(flags.value(flag)?)?),
            "--raw" => raw = true,
            other => return Err(CliError::Usage(format!("unknown trace gen flag `{other}`"))),
        }
    }
    let out = out.ok_or_else(|| CliError::Usage("trace gen needs --out".to_string()))?;
    let spec = match (workload, source) {
        (Some(name), None) => ProgramSpec::Workload {
            name,
            n,
            iters,
            bj,
            bk,
        },
        (None, Some(text)) => ProgramSpec::Source { text, params },
        _ => {
            return Err(CliError::Usage(
                "trace gen needs exactly one of --workload or --file".to_string(),
            ))
        }
    };
    let program = spec.build().map_err(CliError::Usage)?;
    let words = cme_trace::generate(&program).map_err(|e| CliError::Usage(e.to_string()))?;
    let config = match geometry {
        Some(g) => g,
        None => cme_cache::CacheConfig::new(32 * 1024, 32, 2).expect("default geometry is valid"),
    };

    let mut file = std::fs::File::create(&out)?;
    let count = if raw {
        cme_trace::write_raw(&mut file, words.iter().copied())?
    } else {
        cme_trace::write_framed(&mut file, &config, words.iter().copied())?
    };
    let bytes = file.metadata()?.len();
    drop(file);

    let summary = cme_serve::json::obj(vec![
        ("ok", Json::Bool(true)),
        ("out", Json::Str(out.display().to_string())),
        (
            "format",
            Json::Str(if raw { "raw" } else { "framed" }.to_string()),
        ),
        ("geometry", Json::Str(config.geometry_string())),
        ("accesses", Json::Int(count as i64)),
        ("bytes", Json::Int(bytes as i64)),
    ]);
    println!("{}", summary.render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace_sim(args: &[String]) -> Result<ExitCode, CliError> {
    let mut input: Option<PathBuf> = None;
    let mut geometry = None;
    let mut threads = 1usize;

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--in" => input = Some(PathBuf::from(flags.value(flag)?)),
            "--geometry" => geometry = Some(parse_geometry(flags.value(flag)?)?),
            "--threads" => threads = flags.parsed(flag)?,
            other => return Err(CliError::Usage(format!("unknown trace sim flag `{other}`"))),
        }
    }
    let input = input.ok_or_else(|| CliError::Usage("trace sim needs --in".to_string()))?;

    let file = std::fs::File::open(&input).map_err(|e| {
        CliError::Runtime(format!("trace sim: cannot open {}: {e}", input.display()))
    })?;
    let mut reader = cme_trace::TraceReader::new(std::io::BufReader::new(file))
        .map_err(|e| CliError::Runtime(format!("trace sim: {}: {e}", input.display())))?;
    let config = match (geometry, reader.header()) {
        (Some(g), _) => g,
        (None, Some(h)) => h
            .geometry()
            .map_err(|e| CliError::Usage(format!("trace header: {e}")))?,
        (None, None) => {
            return Err(CliError::Usage(
                "raw traces need --geometry (framed traces carry their own)".to_string(),
            ))
        }
    };

    let start = std::time::Instant::now();
    let stats = if threads <= 1 {
        // Serial: stream through a fixed-size buffer, constant memory.
        cme_trace::replay_reader(config, &mut reader)?
    } else {
        let words = reader.read_to_end()?;
        cme_trace::replay_parallel(config, &words, threads)
    };
    let wall = start.elapsed();

    // An empty replay means the input was truncated to nothing or generated
    // from a zero-trip workload — a 0.0 miss ratio from zero accesses reads
    // as a perfect cache and has burned people in scripted sweeps, so it is
    // a hard error that names the file.
    if stats.accesses == 0 {
        return Err(CliError::Runtime(format!(
            "trace sim: {}: trace contains no accesses (nothing to replay)",
            input.display()
        )));
    }

    let per_sec = stats.accesses as f64 / wall.as_secs_f64().max(1e-9);
    let response = cme_serve::json::obj(vec![
        ("ok", Json::Bool(true)),
        (
            "report",
            Json::Raw(cme_serve::render_trace_payload(config, &stats)),
        ),
        (
            "metrics",
            cme_serve::json::obj(vec![
                ("wall_us", Json::Int(wall.as_micros() as i64)),
                ("accesses_per_sec", Json::Float(per_sec)),
                ("threads", Json::Int(threads as i64)),
            ]),
        ),
    ]);
    println!("{}", response.render());
    Ok(ExitCode::SUCCESS)
}
