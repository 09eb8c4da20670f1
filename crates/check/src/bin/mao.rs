//! The `mao` command-line driver.
//!
//! One-shot mode mirrors the paper's invocation style:
//!
//! ```text
//! mao --mao=LFIND=trace[0]:ASM=o[/dev/null] in.s
//! ```
//!
//! `--mao=` options select and order the passes; everything else is treated
//! as an input assembly file (the real MAO forwards unknown options to gas;
//! this reproduction has no gas behind it, so unknown options are reported).
//! The pseudo-passes `READ` (implicit first) and `ASM` (emission, with an
//! `o[path]` option) frame the pipeline exactly as §III.A describes.
//!
//! Service mode keeps the optimizer resident between requests:
//!
//! ```text
//! mao serve --listen unix:/tmp/maod.sock --shards 4 --cache-dir /var/cache/maod
//! mao client --listen unix:/tmp/maod.sock --passes REDTEST:ADDADD in.s
//! mao client --stats
//! mao batch < requests.ndjson
//! mao loadgen --requests 500 --connections 4 --p99-limit-us 2000000
//! ```
//!
//! Check mode runs the differential correctness harness (see the
//! `mao-check` crate docs):
//!
//! ```text
//! mao check --seed 42 --cases 500
//! mao check --smoke
//! mao check --cost-model core2.mpt --regress-dir tests/regressions
//! ```
//!
//! `--cost-model` runs the same differential sweep with a measured `.mpt`
//! table installed as the process-global cost model, so pass bugs that
//! only appear under calibrated numbers are caught, ddmin-shrunk, and
//! persisted like any other divergence.
//!
//! Superopt mode runs the search-based superoptimizer (see the
//! `mao-superopt` crate docs) over one input, with an optional persistent
//! learned-rewrite cache:
//!
//! ```text
//! mao superopt --seed 42 --cache-dir /var/cache/mao-rewrites in.s -o out.s
//! mao superopt --smoke --seed 42
//! mao superopt --inject-bogus-rewrite --smoke
//! ```
//!
//! Probe mode runs the §IV characterization harness (see the `mao-probe`
//! crate docs): a calibration sweep fits per-mnemonic latency/throughput/
//! port-pressure tables plus machine parameters and writes them as a
//! versioned `.mpt` file that every port/latency-sensitive pass loads
//! through the process-global cost provider:
//!
//! ```text
//! mao probe --sweep --profile core2 -o core2.mpt
//! mao probe --show core2.mpt
//! mao probe --calibrate-profile my-box -o my-box.mpt
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use mao::pass::{
    parse_invocations, registry, run_pipeline_observed, PassInvocation, PipelineConfig,
};
use mao::{AnalysisCache, MaoUnit, Obs};
use mao_serve::engine::{Engine, EngineConfig};
use mao_serve::json::Json;
use mao_serve::protocol::{OptimizeRequest, Request};
use mao_serve::server::Listen;
use mao_serve::Client;

fn usage() -> &'static str {
    "usage: mao [--mao=PASS[=opt[val],...][:PASS...]]... [--jobs N] [--profile FILE]\n\
     \x20          [--isa x86-64|aarch64] [--emit-snapshot FILE] [--snapshot-dir DIR]\n\
     \x20          [--list-passes] input.s|input.msnap\n\
     \x20      mao serve  [--listen ADDR] [--shards N] [--jobs N] [--timeout-ms N]\n\
     \x20                 [--max-pending N] [--cache-dir DIR] [--cache-max-bytes N]\n\
     \x20                 [--cache-fsync] [--idle-timeout-ms N] [--cache-cap N]\n\
     \x20                 [--analysis-cache-cap N] [--max-request-bytes N]\n\
     \x20                 [--snapshot-dir DIR] [--snapshot-max-bytes N]\n\
     \x20                 [--cost-model FILE.mpt]\n\
     \x20      mao client [--listen ADDR] [--passes STR] [--jobs N] [--timeout-ms N]\n\
     \x20                 [--timeout SECS] [--no-cache] [--isa ISA] [-o FILE] input.s\n\
     \x20                 | --stats | --metrics | --ping | --shutdown\n\
     \x20                 (exit 3 = shed with BUSY, exit 4 = timed out)\n\
     \x20      mao batch  [--shards N] [--jobs N] [--timeout-ms N] [--cache-cap N]\n\
     \x20      mao loadgen [--listen ADDR] [--requests N] [--connections N]\n\
     \x20                 [--depth N] [--hot-keys N] [--cold-pct N] [--malformed-pct N]\n\
     \x20                 [--passes STR] [--p50-limit-us N] [--p99-limit-us N] [--json]\n\
     \x20      mao check  [--seed N] [--cases N] [--passes A,B:C,...] [--jobs N]\n\
     \x20                 [--budget N] [--regress-dir DIR] [--inject-miscompile]\n\
     \x20                 [--cost-model FILE.mpt] [--isa ISA] [--smoke] [--verbose]\n\
     \x20      mao superopt [--seed N] [--jobs N] [--cache-dir DIR] [--min-window N]\n\
     \x20                 [--max-window N] [--diff-states N] [--enum-max N]\n\
     \x20                 [--iters N] [--max-candidates N] [--inject-bogus-rewrite]\n\
     \x20                 [--smoke] [-o FILE] input.s\n\
     \x20      mao probe  --sweep [--profile core2|opteron] [--backend sim|wall]\n\
     \x20                 [--seed N] [--name NAME] [--trips N] [-o FILE.mpt]\n\
     \x20                 | --show FILE.mpt\n\
     \x20                 | --calibrate-profile NAME [--profile P] [--seed N]\n\
     \x20                 [-o FILE.mpt]\n\
     \n\
     --isa ISA  target instruction set: x86-64 (default) or aarch64.\n\
     \x20           Selects the parser dialect, gates ISA-specific passes, and\n\
     \x20           keys every cache. `mao check --isa aarch64` runs the\n\
     \x20           structural sweep (no simulator oracle for aarch64 yet).\n\
     --jobs N   worker threads for function-level passes (0 = all cores;\n\
     \x20           default 1, or the MAO_JOBS environment variable when set).\n\
     \x20           Output is byte-identical for every N.\n\
     --profile FILE   record every pass/function span and write a Chrome\n\
     \x20           trace (chrome://tracing, Perfetto) to FILE after the run.\n\
     --emit-snapshot FILE   write the parsed unit as a compact binary IR\n\
     \x20           snapshot (loadable in place of the .s input later).\n\
     --snapshot-dir DIR   content-addressed snapshot store keyed by input\n\
     \x20           content hash: previously seen inputs load their parsed\n\
     \x20           IR from disk and skip text parsing entirely.\n\
     --metrics  fetch the daemon's metrics registry as Prometheus text.\n\
     ADDR is `unix:/path`, `tcp:host:port`, or a bare socket path\n\
     (default unix:/tmp/maod.sock, or the MAOD_SOCKET environment variable).\n\
     The ASM pseudo-pass emits assembly: ASM=o[/path/to/out.s] (default stdout).\n\
     Without any ASM pass, the transformed unit is emitted to stdout."
}

fn default_listen() -> String {
    std::env::var("MAOD_SOCKET").unwrap_or_else(|_| "unix:/tmp/maod.sock".to_string())
}

fn main() -> ExitCode {
    // Extension passes join the registry before any pipeline parses pass
    // strings — SUPEROPT is then addressable from every mode (one-shot
    // --mao=, serve/client, check, and the superopt subcommand).
    mao_superopt::register();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("superopt") => cmd_superopt(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        _ => cmd_oneshot(&args),
    }
}

/// Shared `--flag VALUE` scanner for the service subcommands.
struct ArgParser<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> ArgParser<'a> {
    fn new(args: &'a [String]) -> ArgParser<'a> {
        ArgParser { args: args.iter() }
    }

    fn next(&mut self) -> Option<&'a String> {
        self.args.next()
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    fn numeric<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a numeric value"))
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut listen = default_listen();
    let mut config = EngineConfig::default();
    let mut parser = ArgParser::new(args);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = parser.next() {
            match arg.as_str() {
                "--listen" => listen = parser.value("--listen")?.to_string(),
                // --workers survives as an alias from the pre-shard daemon.
                "--shards" | "--workers" => config.shards = parser.numeric("--shards")?,
                "--jobs" => config.jobs = parser.numeric("--jobs")?,
                "--timeout-ms" => config.timeout_ms = parser.numeric("--timeout-ms")?,
                "--max-pending" => config.max_pending = parser.numeric("--max-pending")?,
                "--cache-dir" => config.cache_dir = Some(parser.value("--cache-dir")?.into()),
                "--cache-max-bytes" => {
                    config.cache_max_bytes = parser.numeric("--cache-max-bytes")?
                }
                "--cache-fsync" => config.cache_fsync = true,
                "--idle-timeout-ms" => {
                    config.idle_timeout_ms = parser.numeric("--idle-timeout-ms")?
                }
                "--cache-cap" => config.result_cache_capacity = parser.numeric("--cache-cap")?,
                "--analysis-cache-cap" => {
                    config.analysis_cache_capacity = parser.numeric("--analysis-cache-cap")?
                }
                "--max-request-bytes" => {
                    config.max_request_bytes = parser.numeric("--max-request-bytes")?
                }
                "--snapshot-dir" => {
                    config.snapshot_dir = Some(parser.value("--snapshot-dir")?.into())
                }
                "--snapshot-max-bytes" => {
                    config.snapshot_max_bytes = parser.numeric("--snapshot-max-bytes")?
                }
                "--cost-model" => config.cost_model = Some(parser.value("--cost-model")?.into()),
                "--help" | "-h" => {
                    println!("{}", usage());
                    std::process::exit(0);
                }
                other => return Err(format!("unknown serve option `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(message) = parsed {
        eprintln!("mao serve: {message}\n{}", usage());
        return ExitCode::FAILURE;
    }
    let addr = match Listen::parse(&listen) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("mao serve: bad --listen: {message}");
            return ExitCode::FAILURE;
        }
    };
    let engine = match Engine::build(config) {
        Ok(e) => e,
        Err(message) => {
            eprintln!("mao serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    match mao_serve::server::serve(engine, &addr) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mao serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `mao client` exit code when the daemon shed the request with `BUSY`.
const EXIT_BUSY: u8 = 3;
/// `mao client` exit code when the request timed out (server budget or
/// client `--timeout`).
const EXIT_TIMEOUT: u8 = 4;

fn cmd_client(args: &[String]) -> ExitCode {
    let mut listen = default_listen();
    let mut passes = String::new();
    let mut jobs: Option<usize> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut client_timeout: Option<std::time::Duration> = None;
    let mut use_cache = true;
    let mut isa = mao::isa::IsaId::X86_64;
    let mut out: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut admin: Option<Request> = None;
    let mut parser = ArgParser::new(args);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = parser.next() {
            match arg.as_str() {
                "--listen" => listen = parser.value("--listen")?.to_string(),
                "--passes" => passes = parser.value("--passes")?.to_string(),
                "--isa" => {
                    let name = parser.value("--isa")?;
                    isa = mao::isa::IsaId::from_name(name)
                        .ok_or_else(|| format!("unknown --isa `{name}`"))?;
                }
                "--jobs" => jobs = Some(parser.numeric("--jobs")?),
                "--timeout-ms" => timeout_ms = Some(parser.numeric("--timeout-ms")?),
                "--timeout" => {
                    let secs: f64 = parser.numeric("--timeout")?;
                    let timeout = std::time::Duration::try_from_secs_f64(secs).map_err(|_| {
                        format!("--timeout `{secs}` is not a valid number of seconds")
                    })?;
                    // A zero socket timeout is an error; round up to 1 ms.
                    client_timeout = Some(timeout.max(std::time::Duration::from_millis(1)));
                }
                "--no-cache" => use_cache = false,
                "-o" | "--out" => out = Some(parser.value("-o")?.to_string()),
                "--stats" => admin = Some(Request::Stats),
                "--metrics" => admin = Some(Request::Metrics),
                "--ping" => admin = Some(Request::Ping),
                "--shutdown" => admin = Some(Request::Shutdown),
                "--help" | "-h" => {
                    println!("{}", usage());
                    std::process::exit(0);
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown client option `{other}`"))
                }
                input => inputs.push(input.to_string()),
            }
        }
        Ok(())
    })();
    if let Err(message) = parsed {
        eprintln!("mao client: {message}\n{}", usage());
        return ExitCode::FAILURE;
    }
    let addr = match Listen::parse(&listen) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("mao client: bad --listen: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect_with_io_timeout(&addr, client_timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mao client: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Socket-level timeouts surface as WouldBlock/TimedOut; scripts need
    // to tell "daemon too slow" apart from "daemon broken".
    let io_exit = |e: &std::io::Error| -> ExitCode {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            ExitCode::from(EXIT_TIMEOUT)
        } else {
            ExitCode::FAILURE
        }
    };

    if let Some(request) = admin {
        let raw_metrics = request == Request::Metrics;
        return match client.request(&request) {
            Ok(response) => {
                // Metrics are Prometheus text; print the payload raw so the
                // output can be piped straight into a scraper or promtool.
                match response.get("metrics").and_then(Json::as_str) {
                    Some(text) if raw_metrics => print!("{text}"),
                    _ => println!("{}", response.to_string()),
                }
                let _ = std::io::stdout().flush();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mao client: {e}");
                io_exit(&e)
            }
        };
    }

    let Some(input) = inputs.first() else {
        eprintln!("mao client: no input file\n{}", usage());
        return ExitCode::FAILURE;
    };
    let asm = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mao client: cannot read `{input}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let request = Request::Optimize(OptimizeRequest {
        asm,
        passes,
        jobs,
        timeout_ms,
        use_cache,
        isa,
    });
    let response = match client.request(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mao client: {e}");
            return io_exit(&e);
        }
    };
    if response.get("status").and_then(Json::as_str) != Some("ok") {
        let (kind, message) = match response.get("error") {
            Some(e) => (
                e.get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                e.get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
            ),
            None => ("?".to_string(), response.to_string()),
        };
        eprintln!("mao client: server error [{kind}]: {message}");
        // Shed and timed-out requests get their own exit codes so build
        // scripts can back off and retry instead of failing the build.
        return match kind.as_str() {
            "busy" => ExitCode::from(EXIT_BUSY),
            "timeout" => ExitCode::from(EXIT_TIMEOUT),
            _ => ExitCode::FAILURE,
        };
    }
    // Trace and per-pass stats to stderr, matching one-shot mode's format.
    if let Some(trace) = response.get("trace").and_then(Json::as_arr) {
        for line in trace {
            if let Some(line) = line.as_str() {
                eprintln!("[mao] {line}");
            }
        }
    }
    if let Some(passes) = response
        .get("stats")
        .and_then(|s| s.get("passes"))
        .and_then(Json::as_arr)
    {
        for pass in passes {
            let name = pass.get("name").and_then(Json::as_str).unwrap_or("?");
            let transformations = pass
                .get("transformations")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let matches = pass.get("matches").and_then(Json::as_u64).unwrap_or(0);
            if transformations > 0 || matches > 0 {
                eprintln!("[mao] {name}: {transformations} transformations, {matches} matches");
            }
        }
    }
    if let Some(cache) = response.get("cache").and_then(Json::as_str) {
        eprintln!("[mao] cache: {cache}");
    }
    let asm_out = response.get("asm").and_then(Json::as_str).unwrap_or("");
    match out.as_deref() {
        Some("-") | None => {
            print!("{asm_out}");
            let _ = std::io::stdout().flush();
        }
        Some(path) => {
            if let Err(e) = std::fs::write(path, asm_out) {
                eprintln!("mao client: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_batch(args: &[String]) -> ExitCode {
    let mut config = EngineConfig::default();
    let mut parser = ArgParser::new(args);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = parser.next() {
            match arg.as_str() {
                "--shards" | "--workers" => config.shards = parser.numeric("--shards")?,
                "--jobs" => config.jobs = parser.numeric("--jobs")?,
                "--timeout-ms" => config.timeout_ms = parser.numeric("--timeout-ms")?,
                "--cache-cap" => config.result_cache_capacity = parser.numeric("--cache-cap")?,
                "--max-request-bytes" => {
                    config.max_request_bytes = parser.numeric("--max-request-bytes")?
                }
                "--help" | "-h" => {
                    println!("{}", usage());
                    std::process::exit(0);
                }
                other => return Err(format!("unknown batch option `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(message) = parsed {
        eprintln!("mao batch: {message}\n{}", usage());
        return ExitCode::FAILURE;
    }
    let engine = Engine::new(config);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match mao_serve::run_batch(&engine, stdin.lock(), stdout.lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mao batch: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_loadgen(args: &[String]) -> ExitCode {
    let mut listen = default_listen();
    let mut config = mao_serve::loadgen::LoadgenConfig::default();
    let mut json_out = false;
    let mut parser = ArgParser::new(args);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = parser.next() {
            match arg.as_str() {
                "--listen" => listen = parser.value("--listen")?.to_string(),
                "--requests" => config.requests = parser.numeric("--requests")?,
                "--connections" => config.connections = parser.numeric("--connections")?,
                "--depth" => config.pipeline_depth = parser.numeric("--depth")?,
                "--hot-keys" => config.hot_keys = parser.numeric("--hot-keys")?,
                "--cold-pct" => config.cold_pct = parser.numeric("--cold-pct")?,
                "--malformed-pct" => config.malformed_pct = parser.numeric("--malformed-pct")?,
                "--passes" => config.passes = parser.value("--passes")?.to_string(),
                "--p50-limit-us" => config.p50_limit_us = Some(parser.numeric("--p50-limit-us")?),
                "--p99-limit-us" => config.p99_limit_us = Some(parser.numeric("--p99-limit-us")?),
                "--json" => json_out = true,
                "--help" | "-h" => {
                    println!("{}", usage());
                    std::process::exit(0);
                }
                other => return Err(format!("unknown loadgen option `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(message) = parsed {
        eprintln!("mao loadgen: {message}\n{}", usage());
        return ExitCode::FAILURE;
    }
    config.addr = match Listen::parse(&listen) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("mao loadgen: bad --listen: {message}");
            return ExitCode::FAILURE;
        }
    };
    let report = match mao_serve::loadgen::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mao loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json_out {
        println!("{}", report.to_json().to_string());
    } else {
        println!(
            "mao loadgen: {} requests in {:.2}s ({:.1} req/s)",
            report.sent,
            report.elapsed_s,
            report.throughput_rps()
        );
        println!(
            "  ok {} (hit {} / hit_disk {} / miss {}), busy {}, expected_err {}, unexpected_err {}",
            report.ok,
            report.cache_hits,
            report.cache_disk_hits,
            report.cache_misses,
            report.busy,
            report.expected_errors,
            report.unexpected_errors
        );
        println!(
            "  latency: client p50 {}us p99 {}us | service p50 {:.0}us p99 {:.0}us",
            report.client_p50_us,
            report.client_p99_us,
            report.service_p50_us,
            report.service_p99_us
        );
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        for failure in &report.failures {
            eprintln!("mao loadgen: GATE FAILED: {failure}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut config = mao_check::CheckConfig::default();
    let mut inject = false;
    let mut smoke = false;
    let mut isa = mao::isa::IsaId::X86_64;
    let mut cost_model: Option<String> = None;
    let mut parser = ArgParser::new(args);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = parser.next() {
            match arg.as_str() {
                "--seed" => config.seed = parser.numeric("--seed")?,
                "--cost-model" => cost_model = Some(parser.value("--cost-model")?.to_string()),
                "--cases" => config.cases = parser.numeric("--cases")?,
                "--passes" => {
                    config.passes = Some(
                        parser
                            .value("--passes")?
                            .split(',')
                            .map(str::to_string)
                            .collect(),
                    )
                }
                "--jobs" => config.jobs = parser.numeric("--jobs")?,
                "--budget" => config.budget = parser.numeric("--budget")?,
                "--regress-dir" => config.regress_dir = Some(parser.value("--regress-dir")?.into()),
                "--inject-miscompile" => inject = true,
                "--isa" => {
                    let name = parser.value("--isa")?;
                    isa = mao::isa::IsaId::from_name(name)
                        .ok_or_else(|| format!("unknown --isa `{name}`"))?;
                }
                // The CI stage: small, fast, fixed seed, every ISA.
                "--smoke" => {
                    smoke = true;
                    config.seed = 42;
                    config.cases = 25;
                }
                "--verbose" | "-v" => config.verbose = true,
                "--help" | "-h" => {
                    println!("{}", usage());
                    std::process::exit(0);
                }
                other => return Err(format!("unknown check option `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(message) = parsed {
        eprintln!("mao check: {message}\n{}", usage());
        return ExitCode::FAILURE;
    }

    // Differential mode: install the measured table before any pipeline
    // runs, so the whole sweep checks the passes under those numbers. A
    // rejected table aborts the run — it must never be half-installed.
    if let Some(path) = &cost_model {
        match mao_check::install_cost_model(std::path::Path::new(path)) {
            Ok(model) => println!(
                "mao check: cost model `{}` ({}, fingerprint {:016x})",
                model.name,
                model.provenance.source,
                model.fingerprint()
            ),
            Err(message) => {
                eprintln!("mao check: {message}");
                return ExitCode::FAILURE;
            }
        }
    }

    if inject {
        // Fault-injection self-test: MISOPT must be caught, shrunk, and
        // (when --regress-dir is given) persisted.
        return match mao_check::run_injection_selftest(config.seed, config.regress_dir.as_deref()) {
            Ok(failures) => {
                for f in &failures {
                    println!(
                        "caught {} [{} via {}]: {}",
                        f.case,
                        f.passes,
                        f.path.name(),
                        f.detail
                    );
                    if let Some(path) = &f.saved {
                        println!("  persisted to {}", path.display());
                    }
                }
                println!(
                    "mao check: injection self-test caught {} miscompile(s)",
                    failures.len()
                );
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("mao check: INJECTION SELF-TEST FAILED: {message}");
                ExitCode::FAILURE
            }
        };
    }

    // The AArch64 leg: structural matrix (no simulator oracle). `--isa
    // aarch64` runs it alone; `--smoke` appends it to the x86 sweep so CI
    // covers both instantiations in one invocation.
    if isa == mao::isa::IsaId::Aarch64 {
        let report = mao_check::run_structural_check(isa, &config);
        println!(
            "mao check [{isa}]: structural sweep -> {} cases, {} comparisons, {} failure(s)",
            report.cases,
            report.comparisons,
            report.failures.len()
        );
        return report_check(&format!("check [{isa}]"), &report);
    }
    let report = mao_check::run_check(&config);
    println!(
        "mao check: seed {} -> {} cases ({} skipped), {} oracle comparisons ({} deduped), {} failure(s)",
        config.seed,
        report.cases,
        report.skipped,
        report.comparisons,
        report.deduped,
        report.failures.len()
    );
    let x86 = report_check("check", &report);
    if !smoke {
        return x86;
    }
    let a64_config = mao_check::CheckConfig {
        passes: None, // structural sweep picks the ISA-neutral set
        ..config
    };
    let a64 = mao_check::run_structural_check(mao::isa::IsaId::Aarch64, &a64_config);
    println!(
        "mao check: aarch64 structural leg -> {} cases, {} comparisons, {} failure(s)",
        a64.cases,
        a64.comparisons,
        a64.failures.len()
    );
    let a64 = report_check("check [aarch64]", &a64);
    if x86 == ExitCode::SUCCESS && a64 == ExitCode::SUCCESS {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print a sweep's failures (if any) and fold it to an exit code.
fn report_check(tag: &str, report: &mao_check::CheckReport) -> ExitCode {
    if report.ok() {
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        eprintln!(
            "FAIL [{tag}] {} [{} via {}]: {}",
            f.case,
            f.passes,
            f.path.name(),
            f.detail
        );
        eprintln!("  shrunk to:\n{}", indent(&f.shrunk_asm));
        match &f.saved {
            Some(path) => eprintln!("  persisted to {}", path.display()),
            None => eprintln!("  (pass --regress-dir to persist)"),
        }
    }
    ExitCode::FAILURE
}

fn cmd_superopt(args: &[String]) -> ExitCode {
    let mut seed: u64 = 0;
    let mut jobs: usize = 1;
    let mut min_window: usize = 3;
    let mut max_window: usize = 8;
    let mut diff_states: usize = 5;
    let mut enum_max: Option<usize> = None;
    let mut iters: Option<usize> = None;
    let mut max_candidates: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut inject = false;
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut parser = ArgParser::new(args);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = parser.next() {
            match arg.as_str() {
                "--seed" => seed = parser.numeric("--seed")?,
                "--jobs" => jobs = parser.numeric("--jobs")?,
                "--min-window" => min_window = parser.numeric("--min-window")?,
                "--max-window" => max_window = parser.numeric("--max-window")?,
                "--diff-states" => diff_states = parser.numeric("--diff-states")?,
                "--enum-max" => enum_max = Some(parser.numeric("--enum-max")?),
                "--iters" => iters = Some(parser.numeric("--iters")?),
                "--max-candidates" => max_candidates = Some(parser.numeric("--max-candidates")?),
                "--cache-dir" => cache_dir = Some(parser.value("--cache-dir")?.to_string()),
                "--inject-bogus-rewrite" => inject = true,
                "--smoke" => smoke = true,
                "-o" | "--out" => out = Some(parser.value("-o")?.to_string()),
                "--help" | "-h" => {
                    println!("{}", usage());
                    std::process::exit(0);
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown superopt option `{other}`"))
                }
                input => inputs.push(input.to_string()),
            }
        }
        Ok(())
    })();
    if let Err(message) = parsed {
        eprintln!("mao superopt: {message}\n{}", usage());
        return ExitCode::FAILURE;
    }

    // The CI stage: the bundled smoke unit, a fixed seed, small budgets.
    let text = if smoke {
        if seed == 0 {
            seed = 42;
        }
        iters.get_or_insert(64);
        max_candidates.get_or_insert(96);
        mao_superopt::SMOKE_ASM.to_string()
    } else {
        let Some(input) = inputs.first() else {
            eprintln!("mao superopt: no input file\n{}", usage());
            return ExitCode::FAILURE;
        };
        match std::fs::read_to_string(input) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mao superopt: cannot read `{input}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let mut unit = match MaoUnit::parse(&text) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("mao superopt: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Assemble the pass invocation through the normal option grammar so the
    // CLI exercises exactly what `--mao=SUPEROPT=...` would.
    let mut spec = format!(
        "{}=seed[{seed}],min-window[{min_window}],max-window[{max_window}],diff-states[{diff_states}]",
        mao_superopt::PASS_NAME
    );
    if let Some(n) = enum_max {
        spec.push_str(&format!(",enum-max[{n}]"));
    }
    if let Some(n) = iters {
        spec.push_str(&format!(",iters[{n}]"));
    }
    if let Some(n) = max_candidates {
        spec.push_str(&format!(",max-candidates[{n}]"));
    }
    if let Some(dir) = &cache_dir {
        spec.push_str(&format!(",cache-dir[{dir}]"));
    }
    if inject {
        spec.push_str(",inject-bogus-rewrite[1]");
    }
    let invocations = match parse_invocations(&spec) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("mao superopt: {e}");
            return ExitCode::FAILURE;
        }
    };

    let config = PipelineConfig { jobs };
    let obs = Obs::aggregating();
    let analyses = Arc::new(AnalysisCache::new());
    let report =
        match run_pipeline_observed(&mut unit, &invocations, None, &config, &analyses, &obs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mao superopt: {e}");
                return ExitCode::FAILURE;
            }
        };
    for line in &report.trace {
        eprintln!("[mao] {line}");
    }

    let counter = |name: &str| obs.metrics.counter_value(name);
    let rewrites = counter("mao_superopt_rewrites_total");
    eprintln!(
        "[mao] superopt: {} windows, {} searches, {} candidates, {} rewrites",
        counter("mao_superopt_windows_total"),
        counter("mao_superopt_searches_total"),
        counter("mao_superopt_candidates_total"),
        rewrites,
    );
    eprintln!(
        "[mao] superopt: cache {} hits / {} misses; rejected {} diff, {} oracle",
        counter("mao_superopt_cache_hits_total"),
        counter("mao_superopt_cache_misses_total"),
        counter("mao_superopt_diff_rejects_total"),
        counter("mao_superopt_oracle_rejects_total"),
    );

    if inject {
        // Fault-injection self-test: the seeded bogus rewrite must have hit
        // the two-phase verifier and bounced. The pass itself fails hard if
        // an injected rewrite is ever accepted; this guards the "nothing
        // was injected at all" hole.
        let rejected = counter("mao_superopt_injected_rejected_total");
        if rejected == 0 {
            eprintln!(
                "mao superopt: INJECTION SELF-TEST FAILED: no injected rewrite was exercised"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("mao superopt: injection self-test rejected {rejected} bogus rewrite(s)");
    }

    match out.as_deref() {
        Some("-") | None if smoke => {} // smoke is a gate, not a transform
        Some("-") | None => {
            print!("{}", unit.emit());
            let _ = std::io::stdout().flush();
        }
        Some(path) => {
            if let Err(e) = std::fs::write(path, unit.emit()) {
                eprintln!("mao superopt: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if smoke && !inject && rewrites == 0 {
        eprintln!("mao superopt: SMOKE FAILED: no rewrite discovered on the smoke unit");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_probe(args: &[String]) -> ExitCode {
    use mao_probe::{run_sweep, Processor, SimBackend, SweepConfig, WallClockBackend};
    use mao_x86::cost::CostModel;

    let mut sweep = false;
    let mut show: Option<String> = None;
    let mut calibrate: Option<String> = None;
    let mut profile = "core2".to_string();
    let mut backend = "sim".to_string();
    let mut cfg = SweepConfig::default();
    let mut out: Option<String> = None;
    let mut parser = ArgParser::new(args);
    let parsed = (|| -> Result<(), String> {
        while let Some(arg) = parser.next() {
            match arg.as_str() {
                "--sweep" => sweep = true,
                "--show" => show = Some(parser.value("--show")?.to_string()),
                "--calibrate-profile" => {
                    calibrate = Some(parser.value("--calibrate-profile")?.to_string())
                }
                "--profile" => profile = parser.value("--profile")?.to_string(),
                "--backend" => backend = parser.value("--backend")?.to_string(),
                "--seed" => cfg.seed = parser.numeric("--seed")?,
                "--name" => cfg.name = Some(parser.value("--name")?.to_string()),
                "--trips" => cfg.trip_count = parser.numeric("--trips")?,
                "-o" | "--out" => out = Some(parser.value("-o")?.to_string()),
                "--help" | "-h" => {
                    println!("{}", usage());
                    std::process::exit(0);
                }
                other => return Err(format!("unknown probe option `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(message) = parsed {
        eprintln!("mao probe: {message}\n{}", usage());
        return ExitCode::FAILURE;
    }

    // --show: load and display a table. Every rejection (bad magic, version
    // skew, truncation, checksum mismatch) exits nonzero with the structured
    // load error and the table is never installed — the CI corrupt-table
    // stages key off this exit code.
    if let Some(path) = show {
        return match CostModel::load_mpt(std::path::Path::new(&path)) {
            Ok(model) => {
                print_model(&model);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mao probe: cannot load `{path}`: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if !sweep && calibrate.is_none() {
        eprintln!(
            "mao probe: nothing to do (pass --sweep, --show FILE or --calibrate-profile NAME)\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }

    let proc = match profile.as_str() {
        "core2" | "intel" => Processor::core2(),
        "opteron" | "amd" => Processor::opteron(),
        other => {
            eprintln!("mao probe: unknown --profile `{other}` (core2|opteron)");
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = &calibrate {
        cfg.name = Some(name.clone());
    }

    let obs = Obs::aggregating();
    let result = match backend.as_str() {
        "sim" => run_sweep(&mut SimBackend, &proc, &cfg, &obs),
        "wall" => {
            if !WallClockBackend::available() {
                eprintln!(
                    "mao probe: wall-clock backend unavailable on this host \
                     (needs x86-64 linux and a working `cc`)"
                );
                return ExitCode::FAILURE;
            }
            run_sweep(&mut WallClockBackend, &proc, &cfg, &obs)
        }
        other => {
            eprintln!("mao probe: unknown --backend `{other}` (sim|wall)");
            return ExitCode::FAILURE;
        }
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mao probe: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "probe sweep: {} on {} (seed {})",
        report.model.provenance.source,
        report.model.provenance.target,
        report.model.provenance.seed
    );
    println!(
        "{:<10} {:>7} {:>6} {:>5}  {:>9} {:>12} {:>8}",
        "mnemonic", "latency", "rtp", "ports", "cycle-cpi", "disjoint-cpi", "chain"
    );
    for m in &report.measurements {
        let c = report.model.get(m.spec.mnemonic);
        println!(
            "{:<10} {:>7} {:>6.2} {:>5}  {:>9.2} {:>12.2} {:>8}",
            m.spec.name,
            c.latency,
            c.recip_tp_x100 as f64 / 100.0,
            c.port_mask.count_ones(),
            m.cycle_cpi,
            m.disjoint_cpi,
            if m.chain_consistent() {
                "ok"
            } else {
                "MISMATCH"
            }
        );
    }
    for (name, err) in &report.skipped {
        println!("{name:<10} skipped: {err}");
    }
    let mach = report.model.machine;
    println!(
        "machine: issue {} wide, {} ports{}, decode line {}B, lsd {} lines, \
         predictor shift {}, load-to-use {}",
        mach.issue_width,
        mach.num_ports,
        if mach.symmetric_ports {
            " (symmetric)"
        } else {
            ""
        },
        mach.decode_line,
        mach.lsd_max_lines,
        mach.predictor_shift,
        mach.load_latency
    );
    println!(
        "measurements: {} stable, {} unstable",
        obs.metrics.counter_value("mao_probe_measurements_total"),
        obs.metrics.counter_value("mao_probe_unstable_total")
    );

    let out_path = out.or_else(|| calibrate.as_ref().map(|n| format!("{n}.mpt")));
    if let Some(path) = &out_path {
        if let Err(e) = report.model.write_mpt(std::path::Path::new(path)) {
            eprintln!("mao probe: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {path} ({} mnemonics, fingerprint {:016x})",
            report.model.len(),
            report.model.fingerprint()
        );
    }

    let Some(profile_name) = calibrate else {
        return ExitCode::SUCCESS;
    };

    // --calibrate-profile: the fitted table becomes a third simulation
    // profile, and the model is installed as the process-global cost
    // provider so LOOP16/SCHED/LSDFIT/BRALIGN plan with the measured
    // numbers — then the EXPERIMENTS.md tables re-run against it end to
    // end (the §V.B LOOP16 rows plus the 252.eon single-pass effects).
    let config = mao_sim::UarchConfig::from_cost_model(&report.model);
    mao_x86::cost::install(Arc::new(report.model));

    println!("\n== Table: 252.eon single-pass effects (profile `{profile_name}`) ==");
    println!("{:<14} {:>10}", "pass", "measured");
    let Some(eon) = mao_corpus::spec::spec2000_benchmark("252.eon") else {
        eprintln!("mao probe: 252.eon benchmark missing from the corpus");
        return ExitCode::FAILURE;
    };
    for pass in ["NOPKILL", "REDTEST"] {
        let (pct, _) = match mao_bench::pass_effect(&eon, pass, &config) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("mao probe: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{pass:<14} {pct:>+9.2}%");
    }

    println!("\n== Table: LOOP16 on profile `{profile_name}` ==");
    println!("{:<14} {:>10}", "benchmark", "measured");
    for name in mao_corpus::spec::SPEC2000_NAMES {
        let Some(w) = mao_corpus::spec::spec2000_benchmark(name) else {
            eprintln!("mao probe: benchmark `{name}` missing from the corpus");
            return ExitCode::FAILURE;
        };
        let (pct, rep) = match mao_bench::pass_effect(&w, "LOOP16", &config) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("mao probe: {e}");
                return ExitCode::FAILURE;
            }
        };
        let transforms = rep.stats("LOOP16").map(|s| s.transformations).unwrap_or(0);
        println!("{name:<14} {pct:>+9.2}% ({transforms} loops aligned)");
    }
    ExitCode::SUCCESS
}

/// Pretty-print a loaded `.mpt` cost table (the `mao probe --show` path).
fn print_model(model: &mao_x86::cost::CostModel) {
    let p = &model.provenance;
    println!(
        "table `{}`: {} mnemonics + default",
        model.name,
        model.len()
    );
    println!(
        "  provenance: isa {}, source {}, target {}, generator {}, seed {}, fingerprint {:016x}",
        p.isa,
        p.source,
        p.target,
        p.generator,
        p.seed,
        model.fingerprint()
    );
    let m = model.machine;
    println!(
        "  machine: issue {} wide, {} ports{}, decode line {}B, lsd {} lines, \
         predictor shift {}, load-to-use {}, mispredict {}",
        m.issue_width,
        m.num_ports,
        if m.symmetric_ports {
            " (symmetric)"
        } else {
            ""
        },
        m.decode_line,
        m.lsd_max_lines,
        m.predictor_shift,
        m.load_latency,
        m.mispredict_penalty
    );
    println!(
        "  {:<12} {:>7} {:>6} {:>10}",
        "mnemonic", "latency", "rtp", "port mask"
    );
    let d = model.default_cost;
    println!(
        "  {:<12} {:>7} {:>6.2} {:>#10b}",
        "(default)",
        d.latency,
        d.recip_tp_x100 as f64 / 100.0,
        d.port_mask
    );
    for (mnemonic, cost) in model.entries() {
        println!(
            "  {:<12} {:>7} {:>6.2} {:>#10b}",
            format!("{mnemonic:?}"),
            cost.latency,
            cost.recip_tp_x100 as f64 / 100.0,
            cost.port_mask
        );
    }
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    | {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn cmd_oneshot(args: &[String]) -> ExitCode {
    let mut option_strings: Vec<String> = Vec::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut list_passes = false;
    let mut profile_out: Option<String> = None;
    let mut emit_snapshot: Option<String> = None;
    let mut snapshot_dir: Option<String> = None;
    let mut isa_flag: Option<mao::isa::IsaId> = None;
    // Default from the environment; --jobs on the command line wins.
    let mut jobs: usize = std::env::var("MAO_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(rest) = arg.strip_prefix("--mao=") {
            option_strings.push(rest.to_string());
        } else if arg == "--list-passes" {
            list_passes = true;
        } else if arg == "--jobs" {
            let Some(n) = iter.next().and_then(|v| v.parse().ok()) else {
                eprintln!("mao: --jobs needs a numeric argument (0 = all cores)");
                return ExitCode::FAILURE;
            };
            jobs = n;
        } else if let Some(rest) = arg.strip_prefix("--jobs=") {
            let Ok(n) = rest.parse() else {
                eprintln!("mao: --jobs needs a numeric argument (0 = all cores)");
                return ExitCode::FAILURE;
            };
            jobs = n;
        } else if arg == "--isa" || arg.starts_with("--isa=") {
            let name = match arg.strip_prefix("--isa=") {
                Some(rest) => Some(rest.to_string()),
                None => iter.next().cloned(),
            };
            let Some(isa) = name.as_deref().and_then(mao::isa::IsaId::from_name) else {
                eprintln!("mao: --isa needs x86-64 or aarch64");
                return ExitCode::FAILURE;
            };
            isa_flag = Some(isa);
        } else if arg == "--profile" {
            let Some(path) = iter.next() else {
                eprintln!("mao: --profile needs an output file");
                return ExitCode::FAILURE;
            };
            profile_out = Some(path.clone());
        } else if let Some(rest) = arg.strip_prefix("--profile=") {
            profile_out = Some(rest.to_string());
        } else if arg == "--emit-snapshot" {
            let Some(path) = iter.next() else {
                eprintln!("mao: --emit-snapshot needs an output file");
                return ExitCode::FAILURE;
            };
            emit_snapshot = Some(path.clone());
        } else if let Some(rest) = arg.strip_prefix("--emit-snapshot=") {
            emit_snapshot = Some(rest.to_string());
        } else if arg == "--snapshot-dir" {
            let Some(dir) = iter.next() else {
                eprintln!("mao: --snapshot-dir needs a directory");
                return ExitCode::FAILURE;
            };
            snapshot_dir = Some(dir.clone());
        } else if let Some(rest) = arg.strip_prefix("--snapshot-dir=") {
            snapshot_dir = Some(rest.to_string());
        } else if arg == "--help" || arg == "-h" {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        } else if arg.starts_with('-') {
            eprintln!("mao: unknown option `{arg}` (gas passthrough is not supported)");
            return ExitCode::FAILURE;
        } else {
            inputs.push(arg.clone());
        }
    }

    if list_passes {
        let reg = registry();
        println!("{:<10} description", "pass");
        for (name, factory) in &reg {
            println!("{:<10} {}", name, factory().description());
        }
        println!("{:<10} emit assembly output: ASM=o[path]", "ASM");
        return ExitCode::SUCCESS;
    }

    let Some(input) = inputs.first() else {
        eprintln!("mao: no input file\n{}", usage());
        return ExitCode::FAILURE;
    };

    let raw = match std::fs::read(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mao: cannot read `{input}`: {e}");
            return ExitCode::FAILURE;
        }
    };

    // READ: parsing is "a pass as well, but called by default as the first
    // pass" (§III.A). The front end is snapshot-aware: a binary IR snapshot
    // file, or a `--snapshot-dir` entry keyed by the input's content hash,
    // replaces text parsing with a direct IR load.
    let (mut unit, snapshot_key) = if raw.starts_with(&mao_asm::snapshot::SNAPSHOT_MAGIC) {
        let key = match mao_asm::snapshot::snapshot_key(&raw) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("mao: {input}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // A snapshot carries its unit's ISA in the header; an explicit
        // --isa that disagrees is a structured error, not a reinterpret.
        let stamped = match mao_asm::snapshot::snapshot_isa(&raw) {
            Ok(isa) => isa,
            Err(e) => {
                eprintln!("mao: {input}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(requested) = isa_flag {
            if requested != stamped {
                eprintln!(
                    "mao: {input}: snapshot is `{stamped}`, but --isa asked for `{requested}`"
                );
                return ExitCode::FAILURE;
            }
        }
        match mao_asm::snapshot::decode(&raw, Some(key)) {
            Ok(entries) => {
                eprintln!("[mao] frontend: loaded snapshot `{input}` ({stamped})");
                (MaoUnit::from_entries_isa(entries, stamped), key)
            }
            Err(e) => {
                eprintln!("mao: {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let isa = isa_flag.unwrap_or_default();
        let text = match String::from_utf8(raw) {
            Ok(t) => t,
            Err(_) => {
                eprintln!("mao: `{input}` is neither UTF-8 assembly nor an IR snapshot");
                return ExitCode::FAILURE;
            }
        };
        // The ISA folds into the store key, like the daemon's snapshot
        // tier: identical text parsed under two dialects must not collide.
        let key = mao_asm::snapshot::content_key(&text) ^ (u128::from(isa.tag()) << 120);
        let store = match &snapshot_dir {
            Some(dir) => match mao_serve::SnapshotStore::open(dir, 0) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("mao: cannot open snapshot dir `{dir}`: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        let cached = store.as_ref().and_then(|s| s.load_key(key));
        match cached {
            Some(entries) => {
                eprintln!("[mao] frontend: snapshot hit");
                (MaoUnit::from_entries_isa(entries, isa), key)
            }
            None => {
                if store.is_some() {
                    eprintln!("[mao] frontend: snapshot miss");
                }
                let unit = match MaoUnit::parse_with_jobs_isa(&text, jobs, isa) {
                    Ok(u) => u,
                    Err(e) => {
                        eprintln!("mao: {input}:{e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Some(store) = &store {
                    store.put(key, unit.entries());
                }
                (unit, key)
            }
        }
    };

    if let Some(path) = &emit_snapshot {
        let bytes = mao_asm::snapshot::encode(unit.entries(), snapshot_key);
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("mao: cannot write snapshot `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[mao] frontend: wrote snapshot to {path} ({} bytes)",
            bytes.len()
        );
    }

    let mut invocations: Vec<PassInvocation> = Vec::new();
    for s in &option_strings {
        match parse_invocations(s) {
            Ok(mut invs) => invocations.append(&mut invs),
            Err(e) => {
                eprintln!("mao: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Split out ASM pseudo-passes; run optimization segments between them.
    let config = PipelineConfig { jobs };
    let obs = if profile_out.is_some() {
        Obs::recording()
    } else {
        Obs::off()
    };
    let analyses = Arc::new(AnalysisCache::new());
    let mut emitted = false;
    let mut segment: Vec<PassInvocation> = Vec::new();
    let run_segment = |unit: &mut MaoUnit, segment: &mut Vec<PassInvocation>| -> bool {
        if segment.is_empty() {
            return true;
        }
        match run_pipeline_observed(unit, segment, None, &config, &analyses, &obs) {
            Ok(report) => {
                for line in &report.trace {
                    eprintln!("[mao] {line}");
                }
                for (name, stats) in &report.passes {
                    if stats.transformations > 0 || stats.matches > 0 {
                        eprintln!(
                            "[mao] {name}: {} transformations, {} matches",
                            stats.transformations, stats.matches
                        );
                    }
                    for note in &stats.notes {
                        eprintln!("[mao] {name}: {note}");
                    }
                }
                segment.clear();
                true
            }
            Err(e) => {
                eprintln!("mao: {e}");
                false
            }
        }
    };

    for inv in invocations {
        if inv.name == "ASM" {
            if !run_segment(&mut unit, &mut segment) {
                return ExitCode::FAILURE;
            }
            let out = unit.emit();
            match inv.options.get("o") {
                Some("-") | None => {
                    print!("{out}");
                    let _ = std::io::stdout().flush();
                }
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &out) {
                        eprintln!("mao: cannot write `{path}`: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            emitted = true;
        } else if inv.name == "READ" {
            // Already performed; accept for command-line compatibility.
        } else {
            segment.push(inv);
        }
    }
    if !run_segment(&mut unit, &mut segment) {
        return ExitCode::FAILURE;
    }
    if !emitted {
        print!("{}", unit.emit());
        let _ = std::io::stdout().flush();
    }
    if let Some(path) = &profile_out {
        if let Err(e) = std::fs::write(path, obs.recorder.chrome_trace_json()) {
            eprintln!("mao: cannot write profile `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[mao] wrote Chrome trace profile to {path}");
    }
    ExitCode::SUCCESS
}
