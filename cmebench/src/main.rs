//! `cmebench`: the repository benchmark.
//!
//! One invocation runs one named workload and prints, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`:
//!
//! ```text
//! cargo run --release --manifest-path cmebench/Cargo.toml -- \
//!     --workload paper-exact --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end metrics ([`END_TO_END`]);
//! with `--trace 1` the run also records a span around every call into a
//! layer and the metrics are the per-layer metrics ([`per_layer`]).
//! `cmebench oracle` regenerates `oracle.txt`. See `README.md` for the
//! workloads and what each metric should move.

mod estimate;
mod exact;
mod oracle;
mod serve;
mod span;
mod stats;

use span::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("pass_s", "s"),
    ("miss_abs_err", "count"),
    ("miss_err_pts", "pts"),
];

/// Per-kernel suffixes of the `paper-exact` per-layer metrics.
pub const KERNELS: [&str; 3] = ["hydro", "mgrid", "mmt"];
/// Per-class suffixes of the `serve-mixed` per-layer metrics.
pub const CLASSES: [&str; 3] = ["hot", "cold", "sweep"];
/// Layers whose self time the traced run reports, plus the remainder.
pub const LAYERS: [&str; 9] = [
    "fortran",
    "inline",
    "ir",
    "reuse",
    "analysis",
    "cache",
    "trace",
    "serve",
    "unattributed",
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// a workload never calls reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("fortran.parse_s", "s"),
        ("inline.s", "s"),
        ("ir.normalise_s", "s"),
        ("reuse.s", "s"),
        ("reuse.vectors", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in KERNELS {
        for (n, u) in [
            ("analysis.prepass_s", "s"),
            ("analysis.prepass_resolved_pct", "%"),
            ("analysis.walk_s", "s"),
            ("analysis.walk_points", "count"),
            ("analysis.symbolic_s", "s"),
            ("analysis.symbolic_closed_pct", "%"),
            ("cache.sim_s", "s"),
            ("trace.gen_s", "s"),
            ("trace.replay_s", "s"),
            ("analysis_over_sim", "x"),
        ] {
            v.push((format!("{n}.{k}"), u));
        }
    }
    for (n, u) in [
        ("analysis.sample_s", "s"),
        ("analysis.sample_points", "count"),
        ("analysis.render_s", "s"),
        ("trace.macc_per_s", "Macc/s"),
    ] {
        v.push((n.to_string(), u));
    }
    for c in CLASSES {
        for n in [
            "serve.rtt_ms",
            "serve.engine_ms",
            "serve.queue_ms",
            "serve.wire_ms",
        ] {
            v.push((format!("{n}.{c}"), "ms"));
        }
    }
    for (n, u) in [
        ("serve.req_p50_ms", "ms"),
        ("serve.req_p90_ms", "ms"),
        ("serve.rps", "1/s"),
        ("serve.store_hit_pct", "%"),
        ("serve.store_disk_kb", "kB"),
        ("serve.sweep_cell_hit_pct", "%"),
        ("serve.single_flight_waits", "count"),
        ("serve.shed_requests", "count"),
    ] {
        v.push((n.to_string(), u));
    }
    for l in LAYERS {
        v.push((format!("self.{l}_s"), "s"));
    }
    for n in [
        "tracing.traced_s",
        "tracing.untraced_s",
        "tracing.overhead_s",
    ] {
        v.push((n.to_string(), "s"));
    }
    v
}

/// What one run of a workload needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub rec: Recorder,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.rec.enabled()
    }
}

/// What one run of a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Counts one operation, failed unless `ok`.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records the metrics every workload shares: the share of operations
    /// that passed and the process's peak resident set.
    pub fn finish_common(&mut self) -> Result<(), String> {
        let ok = self.attempted - self.failed;
        self.set("ok_pct", 100.0 * ok as f64 / self.attempted.max(1) as f64);
        self.set("peak_rss_mb", peak_rss_kb()? as f64 / 1024.0);
        Ok(())
    }

    /// Adds per-layer self times and tracing overhead from one traced pass
    /// rooted at `root`, against an untraced pass of `untraced_s`.
    pub fn add_self_times(&mut self, rec: &Recorder, root: u64, untraced_s: f64) {
        let spans = rec.spans();
        for (layer, t) in span::layer_self_times(&spans, root) {
            *self.metrics.entry(format!("self.{layer}_s")).or_insert(0.0) += t;
        }
        let traced = spans
            .iter()
            .find(|s| s.id == root)
            .map_or(0.0, |s| s.end - s.start);
        *self.metrics.entry("tracing.traced_s".into()).or_insert(0.0) += traced;
        *self
            .metrics
            .entry("tracing.untraced_s".into())
            .or_insert(0.0) += untraced_s;
    }
}

/// Peak resident set size of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Scratch space for a run: inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A small deterministic generator (SplitMix64) for workload inputs, kept
/// here so the inputs never change when the program's own RNG does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Set-ups before each measured pass of an analysis workload. Set-ups are
/// spread over the run, so their median samples the same conditions as the
/// passes do.
pub const SETUPS_PER_PASS: usize = 2;

/// Runs `f` [`SETUPS_PER_PASS`] times, appending each wall time to `times`,
/// and returns the last value.
pub fn set_up<T>(
    times: &mut Vec<f64>,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..SETUPS_PER_PASS {
        let t = std::time::Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(last.expect("at least one set-up"))
}

/// Prints a one-line summary of a series of pass times.
pub fn report_passes(label: &str, passes: &[f64]) {
    let all: Vec<String> = passes.iter().map(|p| format!("{p:.4}")).collect();
    println!(
        "{label}: {} passes, median {:.4}s, IQR/median {:.4} ({}s)",
        passes.len(),
        stats::median(passes).unwrap_or(f64::NAN),
        stats::relative_iqr(passes).unwrap_or(f64::NAN),
        all.join("s, ")
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance line printed before any measurement.
fn provenance(args: &Args, inputs: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match command_output("git", &["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "\"unknown\"".into(),
    };
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "provenance {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"analysis_threads\":{},\"server_workers\":{},\"client_connections\":{},\
         \"rustc\":{},\"git_rev\":{},\"git_dirty\":{dirty},\"inputs\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cme_analysis::Threads::Auto.count(),
        serve::workers(),
        serve::CONNECTIONS,
        json_str(&rustc),
        json_str(&rev),
        json_str(inputs)
    )
}

fn result_line(out: &Outcome, names: &[(String, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        if i > 0 {
            metrics.push(',');
        }
        write!(
            metrics,
            "{}:{{\"value\":{value:?},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        )
        .expect("string write");
    }
    if let Some(stray) = out
        .metrics
        .keys()
        .find(|k| !names.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("workload produced undeclared metric {stray}"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    ))
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    if argv.first().map(String::as_str) == Some("oracle") {
        print!("{}", oracle::generate()?);
        return Ok(ExitCode::SUCCESS);
    }
    let args = parse_args(argv)?;
    let inputs = match args.workload.as_str() {
        "paper-exact" => exact::INPUTS,
        "whole-estimate" => estimate::INPUTS,
        "serve-mixed" => serve::INPUTS,
        other => return Err(format!("unknown workload `{other}`")),
    };
    println!("{}", provenance(&args, inputs));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        rec: Recorder::new(args.trace),
    };
    let mut out = match args.workload.as_str() {
        "paper-exact" => exact::run(&ctx)?,
        "whole-estimate" => estimate::run(&ctx)?,
        _ => serve::run(&ctx)?,
    };
    let names: Vec<(String, &str)> = if args.trace {
        let t = out.metrics.get("tracing.traced_s").copied().unwrap_or(0.0);
        let u = out
            .metrics
            .get("tracing.untraced_s")
            .copied()
            .unwrap_or(0.0);
        out.set("tracing.overhead_s", t - u);
        for (l, _) in per_layer().iter().filter(|(n, _)| n.starts_with("self.")) {
            println!(
                "self time {l}: {:.4}s",
                out.metrics.get(l).copied().unwrap_or(0.0)
            );
        }
        println!(
            "traced {t:.4}s, untraced {u:.4}s, tracing overhead {:.4}s",
            t - u
        );
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, ctx.rec.dump()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        out.metrics
            .retain(|k, _| !END_TO_END.iter().any(|(n, _)| n == k));
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!("{}", result_line(&out, &names)?);
    Ok(if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cmebench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one list in BENCHMARK.json; the
    /// unit is empty for workloads.
    fn entries(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            entry
                .split(&format!("\"{key}\""))
                .nth(1)
                .and_then(|s| s.split('"').nth(1))
                .unwrap_or("")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(entries(json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(entries(json, "per_layer"), layers);
        assert!(layers.len() <= 128);
        let workloads: Vec<String> = entries(json, "workloads")
            .into_iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(workloads, ["paper-exact", "whole-estimate", "serve-mixed"]);
    }

    #[test]
    fn args_parse_and_reject() {
        let a: Vec<String> = [
            "--workload",
            "serve-mixed",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = parse_args(&a).unwrap();
        assert_eq!(
            (p.workload.as_str(), p.seed, p.seconds, p.trace),
            ("serve-mixed", 9, 3.0, true)
        );
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "1".into()]).is_err());
    }

    #[test]
    fn rng_is_deterministic_and_shuffles() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(1).shuffle(&mut v);
        let mut w = v.clone();
        w.sort();
        assert_eq!(w, (0..50).collect::<Vec<_>>());
        assert_ne!(v, w);
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut out = Outcome::default();
        out.tally(true);
        out.set("pass_s", 1.25);
        let names = vec![("pass_s".to_string(), "s"), ("setup_s".to_string(), "s")];
        let line = result_line(&out, &names).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"pass_s\":{\"value\":1.25,\"unit\":\"s\"},\"setup_s\":{\"value\":0.0,\"unit\":\"s\"}}}"
        );
        out.set("stray", 1.0);
        assert!(result_line(&out, &names).is_err());
    }
}
