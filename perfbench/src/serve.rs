//! `serve-mixed`: open-loop traffic against `mao serve` over a unix socket.
//!
//! One benchmark process drives two connections. Each request is due at a
//! fixed, seeded time and is timed from then to its full response, so a
//! stall also delays every request queued behind it. Three fixed-rate
//! phases (`lo`, `mid`, `hi`) run in order; then the daemon restarts over
//! the same cache and snapshot directories and a fourth phase replays
//! earlier units at the `mid` rate, each first read from the disk tier.
//! Every ok response must equal the in-process one-shot result for its
//! unit; every malformed request must get the matching structured error.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mao_corpus::generate;
use mao_serve::json::Json;
use mao_serve::protocol::{read_frame, write_frame, Frame, OptimizeRequest, Request};

use crate::inputs::{
    capacity_batches, serve_schedule, serve_unit, Arrival, Kind, Phase, COMPILE_PIPELINE, HOT_UNITS,
};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::util::{self, peak_rss_mb, text_bytes_of, WorkDir};
use crate::{Ctx, Outcome};

/// Connections the load generator holds open.
const CONNECTIONS: usize = 2;
/// Daemon start-ups, and restarts, timed for `setup_s`.
const SETUP_STARTS: usize = 25;
/// The fixed tail-latency limit a rate must meet to count toward
/// `serve.max_rps`, and the longest a phase may take to drain after its
/// last request was due, in ms: four times the ~125 ms a miss takes on an
/// idle daemon (`README.md`).
const TAIL_LIMIT_MS: f64 = 500.0;
/// A phase whose generator sent more than [`LATE_SHARE`] of its requests
/// this late (ms) is flagged as late: it did not offer its rate.
const LATE_MS: f64 = 10.0;
const LATE_SHARE: f64 = 0.05;
/// How long the daemon may take to answer its first ping or to exit.
const DAEMON_WAIT: Duration = Duration::from_secs(20);
/// How long a reader waits for any one response.
const RESPONSE_WAIT: Duration = Duration::from_secs(60);
/// Frames larger than this are refused when read back.
const MAX_FRAME: usize = 64 << 20;

/// A running `mao serve`, killed and reaped if dropped while running.
struct Daemon {
    child: Child,
    sock: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Start a daemon and wait for its first `ping` answer; returns the seconds
/// from spawn to ready.
fn start(ctx: &Ctx, work: &WorkDir, tag: &str, store: &str) -> Result<(Daemon, f64), String> {
    let sock = work.arg(&format!("{tag}.sock"));
    let _ = std::fs::remove_file(&sock);
    let begin = Instant::now();
    let child = Command::new(&ctx.mao)
        .args([
            "serve",
            "--listen",
            &format!("unix:{sock}"),
            "--shards",
            "2",
            "--jobs",
            "1",
        ])
        .args(["--cache-dir", &work.arg(&format!("{store}-cache"))])
        .args(["--snapshot-dir", &work.arg(&format!("{store}-snapshots"))])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", ctx.mao.display()))?;
    let mut daemon = Daemon { child, sock };
    loop {
        if let Ok(mut s) = UnixStream::connect(&daemon.sock) {
            let pong = call(&mut s, &Request::Ping)?;
            if pong.get("pong").and_then(Json::as_bool) == Some(true) {
                return Ok((daemon, begin.elapsed().as_secs_f64()));
            }
        }
        if begin.elapsed() > DAEMON_WAIT || !matches!(daemon.child.try_wait(), Ok(None)) {
            return Err("daemon did not answer ping".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Ask the daemon to drain and exit, and reap it.
fn stop(mut daemon: Daemon) -> Result<(), String> {
    let mut s = UnixStream::connect(&daemon.sock).map_err(|e| e.to_string())?;
    call(&mut s, &Request::Shutdown)?;
    let begin = Instant::now();
    while matches!(daemon.child.try_wait(), Ok(None)) {
        if begin.elapsed() > DAEMON_WAIT {
            return Err("daemon did not exit after shutdown".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn send_frame(s: &mut UnixStream, payload: &[u8]) -> Result<(), String> {
    write_frame(s, payload).map_err(|e| format!("send: {e}"))
}

fn recv_frame(s: &mut UnixStream) -> Result<Vec<u8>, String> {
    match read_frame(s, MAX_FRAME).map_err(|e| format!("receive: {e}"))? {
        Frame::Payload(p) => Ok(p),
        Frame::TooLarge(n) => Err(format!("response frame of {n} bytes")),
        Frame::Eof => Err("daemon closed the connection".into()),
    }
}

fn parse(payload: &[u8]) -> Result<Json, String> {
    Json::parse(&String::from_utf8_lossy(payload)).map_err(|e| format!("bad response: {e}"))
}

/// One closed-loop request/response.
fn call(s: &mut UnixStream, request: &Request) -> Result<Json, String> {
    send_frame(s, request.to_json().to_string().as_bytes())?;
    parse(&recv_frame(s)?)
}

/// The bytes each kind of request sends.
fn frame(kind: Kind, units: &BTreeMap<usize, String>) -> Vec<u8> {
    let optimize = |asm: &str| {
        Request::Optimize(OptimizeRequest {
            asm: asm.to_string(),
            passes: COMPILE_PIPELINE.to_string(),
            jobs: None,
            timeout_ms: None,
            use_cache: true,
            isa: Default::default(),
        })
        .to_json()
        .to_string()
        .into_bytes()
    };
    match kind {
        Kind::Unit(u) => optimize(&units[&u]),
        Kind::BadJson => b"{\"type\":\"optimize\",\"asm\":\"\\tmovl $1, %eax".to_vec(),
        Kind::BadAsm => optimize("\t.text\nf:\n\tfrobnicate %zz, %qq\n"),
    }
}

/// One completed request of an open-loop phase.
struct Done {
    kind: Kind,
    due: Instant,
    sent: Instant,
    done: Instant,
    conn: usize,
    payload: Result<Vec<u8>, String>,
}

/// Send `arrivals` on schedule over fresh connections and collect every
/// response. Each connection has a reader thread; responses on one
/// connection come back in request order, so each request goes to the
/// connection with the fewest responses outstanding, as a pipelining
/// client would send it.
fn open_loop(sock: &str, arrivals: &[Arrival], frames: &[Vec<u8>]) -> Result<Vec<Done>, String> {
    let mut writers = Vec::new();
    let mut queues = Vec::new();
    let mut readers = Vec::new();
    let outstanding: Arc<Vec<AtomicUsize>> =
        Arc::new((0..CONNECTIONS).map(|_| AtomicUsize::new(0)).collect());
    for conn in 0..CONNECTIONS {
        let stream = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
        let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
        reader
            .set_read_timeout(Some(RESPONSE_WAIT))
            .map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel::<(Kind, Instant, Instant)>();
        writers.push(stream);
        queues.push(tx);
        let outstanding = outstanding.clone();
        readers.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            for (kind, due, sent) in rx {
                let payload = recv_frame(&mut reader);
                outstanding[conn].fetch_sub(1, Ordering::SeqCst);
                let failed = payload.is_err();
                out.push(Done {
                    kind,
                    due,
                    sent,
                    done: Instant::now(),
                    conn,
                    payload,
                });
                if failed {
                    break;
                }
            }
            out
        }));
    }
    let origin = Instant::now() + Duration::from_millis(20);
    for (i, (a, bytes)) in arrivals.iter().zip(frames).enumerate() {
        let due = origin + Duration::from_secs_f64(a.due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let conn = (0..CONNECTIONS)
            .map(|c| (i + c) % CONNECTIONS)
            .min_by_key(|&c| outstanding[c].load(Ordering::SeqCst))
            .expect("at least one connection");
        outstanding[conn].fetch_add(1, Ordering::SeqCst);
        let sent = Instant::now();
        send_frame(&mut writers[conn], bytes)?;
        if queues[conn].send((a.kind, due, sent)).is_err() {
            break;
        }
    }
    drop(queues);
    let mut done = Vec::new();
    for r in readers {
        done.extend(r.join().map_err(|_| "reader thread panicked".to_string())?);
    }
    Ok(done)
}

/// Latencies by cache outcome, ms.
#[derive(Default)]
struct ByClass {
    hit: Vec<f64>,
    disk_hit: Vec<f64>,
    miss: Vec<f64>,
    error: Vec<f64>,
}

impl ByClass {
    fn absorb(&mut self, other: &ByClass) {
        self.hit.extend(&other.hit);
        self.disk_hit.extend(&other.disk_hit);
        self.miss.extend(&other.miss);
        self.error.extend(&other.error);
    }
}

/// Check every response of a phase; return its request latencies
/// (malformed requests excluded; a failed request counts as infinitely
/// late) and how late the generator sent each request, ms.
fn judge(
    done: &[Done],
    reference: &BTreeMap<usize, String>,
    classes: &mut ByClass,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    for d in done {
        let ms = d.done.duration_since(d.due).as_secs_f64() * 1e3;
        late.push(d.sent.duration_since(d.due).as_secs_f64() * 1e3);
        let response = d.payload.as_deref().map_err(String::clone).and_then(parse);
        let status = |r: &Json| r.get("status").and_then(Json::as_str).map(str::to_string);
        let ok = match (d.kind, &response) {
            (Kind::Unit(u), Ok(r)) if status(r).as_deref() == Some("ok") => {
                let same =
                    r.get("asm").and_then(Json::as_str) == reference.get(&u).map(String::as_str);
                match r.get("cache").and_then(Json::as_str) {
                    Some("hit") => classes.hit.push(ms),
                    Some("hit_disk") => classes.disk_hit.push(ms),
                    _ => classes.miss.push(ms),
                }
                same
            }
            (Kind::BadJson | Kind::BadAsm, Ok(r)) => {
                let want = if d.kind == Kind::BadJson {
                    "bad_request"
                } else {
                    "parse"
                };
                classes.error.push(ms);
                r.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    == Some(want)
            }
            _ => false,
        };
        out.check(ok, || {
            format!(
                "{:?} on connection {}: {}",
                d.kind,
                d.conn,
                match &response {
                    Ok(r) => r.to_string().chars().take(300).collect::<String>(),
                    Err(e) => e.clone(),
                }
            )
        });
        if let Kind::Unit(_) = d.kind {
            latencies.push(if ok { ms } else { f64::INFINITY });
        }
    }
    (latencies, late)
}

/// Counters from a daemon's `stats` and `metrics` answers.
fn daemon_counters(sock: &str, into: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let mut s = UnixStream::connect(sock).map_err(|e| e.to_string())?;
    let stats = call(&mut s, &Request::Stats)?;
    let stats = stats.get("stats").ok_or("stats response without stats")?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(stats, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let fields: [(&'static str, &[&str]); 7] = [
        ("serve.result_cache.hits", &["result_cache", "hits"]),
        (
            "serve.result_cache.disk_hits",
            &["result_cache", "disk", "hits"],
        ),
        ("serve.result_cache.misses", &["result_cache", "misses"]),
        (
            "serve.result_cache.evictions",
            &["result_cache", "evictions"],
        ),
        ("serve.offered", &["admission", "offered"]),
        ("serve.shed", &["admission", "shed"]),
        ("serve.snapshot_store.hits", &["frontend", "snapshot_hits"]),
    ];
    for (name, path) in fields {
        *into.entry(name).or_insert(0.0) += num(path);
    }
    let metrics = call(&mut s, &Request::Metrics)?;
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap_or("");
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        let value: f64 = value.parse().unwrap_or(0.0);
        if let Some(key) = match name {
            "mao_request_queue_wait_us_sum" => Some("queue_us"),
            "mao_request_queue_wait_us_count" => Some("queue_n"),
            "mao_request_service_us_sum" => Some("service_us"),
            "mao_request_service_us_count" => Some("service_n"),
            _ => None,
        } {
            *into.entry(key).or_insert(0.0) += value;
        }
    }
    Ok(())
}

/// A unit, its text, its one-shot compile, and its input's encoded text
/// bytes.
type Reference = (usize, String, util::Compiled, u64);

/// Generate `unit` and compile it in process: the one-shot result every
/// daemon answer for it must equal.
fn reference_compile(seed: u64, unit: usize, tracer: &Tracer) -> Result<Reference, String> {
    let asm = generate(&serve_unit(seed, unit)).asm;
    let root = tracer.span("bench.reference", unit as u64);
    let compiled = util::compile(&asm, COMPILE_PIPELINE, 1, tracer, unit as u64);
    drop(root);
    let input_bytes = text_bytes_of(&asm)?;
    Ok((unit, asm, compiled?, input_bytes))
}

/// Daemon start-ups timed for `setup_s` on empty stores and, after the
/// load, restarts timed over the populated stores; each half of `setup_s`
/// is the median of its kind.
fn time_starts(ctx: &Ctx, work: &WorkDir, store: &str, n: usize) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(n);
    for i in 0..n {
        let fresh = if store.is_empty() {
            format!("fresh{i}")
        } else {
            store.to_string()
        };
        let (d, ready) = start(ctx, work, &format!("s{i}"), &fresh)?;
        times.push(ready);
        stop(d)?;
    }
    Ok(times)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let work = WorkDir::create("serve-mixed")?;
    let tracer = &ctx.tracer;
    let phases = serve_schedule(ctx.seed, ctx.seconds);
    let mut out = Outcome::default();

    // Inputs and the in-process one-shot reference for every unit sent, on
    // two threads: the references are the slowest part of the set-up.
    let mut unit_ids: Vec<usize> = phases
        .iter()
        .flat_map(|p| &p.arrivals)
        .filter_map(|a| match a.kind {
            Kind::Unit(u) => Some(u),
            _ => None,
        })
        .chain(0..HOT_UNITS)
        .collect();
    unit_ids.sort_unstable();
    unit_ids.dedup();
    let relax_before = mao::relax::relax_totals();
    let refs: Vec<Result<Reference, String>> = std::thread::scope(|scope| {
        let halves: Vec<_> = (0..2)
            .map(|half| {
                let unit_ids = &unit_ids;
                scope.spawn(move || {
                    unit_ids
                        .iter()
                        .skip(half)
                        .step_by(2)
                        .map(|&u| reference_compile(ctx.seed, u, tracer))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let relax_after = mao::relax::relax_totals();
    let mut units = BTreeMap::new();
    let mut reference = BTreeMap::new();
    let mut ratios = Vec::new();
    let mut distinct = Vec::new();
    for r in refs {
        let (u, asm, compiled, input_bytes) = r?;
        ratios.push(compiled.text_bytes as f64 / input_bytes as f64);
        units.insert(u, asm);
        reference.insert(u, compiled.asm.clone());
        distinct.push(compiled);
    }
    let relax = (
        relax_after.iterations - relax_before.iterations,
        relax_after.rechecks - relax_before.rechecks,
    );

    // Set-up: daemon start-ups on empty stores, then the one under load.
    let starts = time_starts(ctx, &work, "", SETUP_STARTS)?;
    let (mut daemon, _) = start(ctx, &work, "d", "main")?;

    // Warm the hot set (untimed): each hot unit once, closed loop.
    {
        let mut s = UnixStream::connect(&daemon.sock).map_err(|e| e.to_string())?;
        for u in 0..HOT_UNITS {
            send_frame(&mut s, &frame(Kind::Unit(u), &units))?;
            let r = parse(&recv_frame(&mut s)?)?;
            out.check(
                r.get("asm").and_then(Json::as_str) == Some(reference[&u].as_str()),
                || {
                    format!(
                        "warm-up of hot unit {u}: {}",
                        r.to_string().chars().take(300).collect::<String>()
                    )
                },
            );
        }
    }

    let mut classes = ByClass::default();
    let mut lo = ByClass::default();
    let mut lo_latencies = Vec::new();
    let mut counters = BTreeMap::new();
    let mut late_rates = 0;
    let mut late_all = Vec::new();
    let mut max_rps: f64 = 0.0;
    let mut peak_mb: f64 = 0.0;
    for (i, phase) in phases.iter().enumerate() {
        if phase.name == "restart" {
            daemon_counters(&daemon.sock, &mut counters)?;
            eprintln!(
                "perfbench: daemon peak RSS {:.1} MB through `mid`, {:.1} MB through `hi`",
                peak_mb,
                peak_rss_mb(Some(daemon.child.id()))
            );
            stop(daemon)?;
            daemon = start(ctx, &work, "d", "main")?.0;
        }
        let failed_before = out.failed;
        let mut phase_classes = ByClass::default();
        let r = run_phase(
            &daemon.sock,
            phase,
            i as u64,
            &units,
            &reference,
            tracer,
            &mut phase_classes,
            &mut out,
        )?;
        // A shed request is answered `busy`, which fails its check.
        let clean = out.failed == failed_before;
        late_all.push(r.late_ms);
        let late = r.late_share > LATE_SHARE;
        if late {
            late_rates += 1;
            eprintln!(
                "perfbench: phase {} ran late: {:.1}% of its requests went out over {LATE_MS} ms \
                 after they were due, one {:.1} ms",
                phase.name,
                r.late_share * 100.0,
                r.late_ms
            );
        }
        let t = tail(&r.latencies);
        eprintln!(
            "perfbench: phase {:<7} {:>4.1} rps: {} requests ({} hit, {} disk hit, {} miss, \
             {} malformed), p50 {:.1} ms, p{:.1} {:.1} ms, miss p50 {:.1} ms, drained {:.0} ms \
             after the last was due",
            phase.name,
            phase.rate,
            r.latencies.len() + phase_classes.error.len(),
            phase_classes.hit.len(),
            phase_classes.disk_hit.len(),
            phase_classes.miss.len(),
            phase_classes.error.len(),
            median(&r.latencies),
            t.percentile,
            t.value,
            median(&phase_classes.miss),
            r.drain_ms,
        );
        if phase.name == "restart" {
            out.set("serve.restart_tail_ms", t.value);
        } else {
            out.set(format!("serve.p50_ms.{}", phase.name), median(&r.latencies));
            out.set(format!("serve.tail_ms.{}", phase.name), t.value);
            // A rung holds when its tail meets the limit with no failed or
            // shed request, no late generator, and no backlog left over.
            if clean && !late && t.value <= TAIL_LIMIT_MS && r.drain_ms <= TAIL_LIMIT_MS {
                max_rps = max_rps.max(phase.rate);
            }
            if phase.name == "lo" {
                lo.absorb(&phase_classes);
                lo_latencies = r.latencies;
            }
            // The daemon's peak memory is read before `hi`: at saturation
            // it grows with the backlog, which moves with the host's speed.
            if phase.name == "mid" {
                peak_mb = peak_mb.max(peak_rss_mb(Some(daemon.child.id())));
            }
        }
        classes.absorb(&phase_classes);
    }
    daemon_counters(&daemon.sock, &mut counters)?;
    peak_mb = peak_mb.max(peak_rss_mb(Some(daemon.child.id())));
    stop(daemon)?;
    // Restarts over the now-populated stores, for the set-up median.
    let restarts = time_starts(ctx, &work, "main", SETUP_STARTS)?;

    out.set("setup_s", median(&starts) + median(&restarts));
    // End-to-end latency is taken at the `lo` rate. At `mid` and `hi` the
    // tail is set by how misses happen to queue behind one another, which
    // moves with the seed's arrival times and the host's speed by more
    // than a useful bound; those rates feed `serve.max_rps` and their own
    // per-layer figures. The median over every request sits inside the
    // memory-hit mode, whose few-ms latency swings with the host's speed;
    // the median of the requests the daemon had to optimize is the steady
    // figure, and the tail over every request keeps the hits in.
    let lo_tail = tail(&lo_latencies);
    out.set("op_p50_ms", median(&lo.miss));
    out.set("op_tail_ms", lo_tail.value);
    out.set("peak_rss_mb", peak_mb);
    out.set("output_cost_ratio", crate::stats::geomean(&ratios));
    if !tracer.enabled() {
        return Ok(out);
    }

    util::set_pipeline_layers(tracer, distinct.len(), &distinct, relax, &mut out);
    out.set("serve.hit_ms", median(&classes.hit));
    out.set("serve.disk_hit_ms", median(&classes.disk_hit));
    out.set("serve.miss_ms", median(&classes.miss));
    out.set("serve.error_ms", median(&classes.error));
    out.set("serve.max_rps", max_rps);
    out.set("serve.late_rates", late_rates as f64);
    out.set(
        "serve.gen_late_ms",
        late_all.iter().copied().fold(0.0, f64::max),
    );
    let mean_ms = |sum: &str, n: &str| {
        counters.get(sum).unwrap_or(&0.0) / counters.get(n).unwrap_or(&0.0).max(1.0) / 1e3
    };
    out.set("serve.queue_wait_ms", mean_ms("queue_us", "queue_n"));
    out.set("serve.service_ms", mean_ms("service_us", "service_n"));
    for (name, v) in &counters {
        if name.starts_with("serve.") {
            out.set(*name, *v);
        }
    }
    out.set("op_samples", lo_tail.count as f64);
    out.set("op_tail_percentile", lo_tail.percentile);
    out.set("asm.snapshot_load_s", snapshot_load_s(&work, tracer)?);
    Ok(out)
}

/// What one phase measured.
struct PhaseResult {
    /// Latency of every well-formed request, ms (a failed one is infinite).
    latencies: Vec<f64>,
    /// How late the generator sent its latest request, ms.
    late_ms: f64,
    /// Share of requests the generator sent over [`LATE_MS`] late.
    late_share: f64,
    /// From the last request's due time to the last response, ms.
    drain_ms: f64,
}

/// One phase: the open loop, then the checks; the stretches in which
/// requests were outstanding become spans under the phase's root span.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    sock: &str,
    phase: &Phase,
    index: u64,
    units: &BTreeMap<usize, String>,
    reference: &BTreeMap<usize, String>,
    tracer: &Tracer,
    classes: &mut ByClass,
    out: &mut Outcome,
) -> Result<PhaseResult, String> {
    let frames: Vec<Vec<u8>> = phase
        .arrivals
        .iter()
        .map(|a| frame(a.kind, units))
        .collect();
    let begin = Instant::now();
    let done = open_loop(sock, &phase.arrivals, &frames)?;
    let root = tracer.record(
        &format!("bench.phase.{}", phase.name),
        begin,
        Instant::now(),
        None,
        index,
        1,
    );
    if done.len() != phase.arrivals.len() {
        out.check(false, || {
            format!(
                "phase {}: {} of {} responses",
                phase.name,
                done.len(),
                phase.arrivals.len()
            )
        });
    }
    // The daemon is busy while any request is outstanding: one span per
    // stretch of overlapping requests, each timed from its first due time.
    let mut spans: Vec<(Instant, Instant)> = done.iter().map(|d| (d.due, d.done)).collect();
    spans.sort_by_key(|s| s.0);
    let mut busy: Vec<(Instant, Instant)> = Vec::new();
    for (start, end) in spans {
        match busy.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => busy.push((start, end)),
        }
    }
    for (start, end) in busy {
        tracer.record("serve.busy", start, end, Some(root), index, 1);
    }
    let drain_ms = match (
        done.iter().map(|d| d.due).max(),
        done.iter().map(|d| d.done).max(),
    ) {
        (Some(due), Some(end)) => end.saturating_duration_since(due).as_secs_f64() * 1e3,
        _ => 0.0,
    };
    let (latencies, late) = judge(&done, reference, classes, out);
    Ok(PhaseResult {
        latencies,
        late_ms: late.iter().copied().fold(0.0, f64::max),
        late_share: late.iter().filter(|&&ms| ms > LATE_MS).count() as f64
            / late.len().max(1) as f64,
        drain_ms,
    })
}

/// Median seconds to decode one snapshot the daemon stored.
fn snapshot_load_s(work: &WorkDir, tracer: &Tracer) -> Result<f64, String> {
    let dir = work.path("main-snapshots");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Ok(0.0);
    };
    let root = tracer.span("bench.snapshots", 0);
    let mut times = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("msnap") {
            continue;
        }
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let decoded = tracer.time("asm.snapshot_load", 0, || {
            mao_asm::snapshot::decode(&bytes, None)
        });
        times.push(t.elapsed().as_secs_f64());
        decoded.map_err(|e| format!("{}: {e}", path.display()))?;
    }
    drop(root);
    Ok(median(&times))
}

/// Saturating batches [`capacity`] sends, and the requests in each.
const CAPACITY_BATCHES: usize = 5;
const CAPACITY_BATCH: usize = 100;

/// The daemon's saturation throughput for the traffic mix, requests per
/// second: batches of the mix with every request sent at once over the two
/// connections, each timed from its first send to its last response; the
/// median over the batches. Run once to place the rate ladder
/// ([`crate::inputs::RATES`]); not part of a workload.
pub fn capacity(ctx: &Ctx) -> Result<f64, String> {
    let work = WorkDir::create("serve-capacity")?;
    let batches = capacity_batches(ctx.seed, CAPACITY_BATCHES, CAPACITY_BATCH);
    let units: BTreeMap<usize, String> = batches
        .iter()
        .flatten()
        .filter_map(|a| match a.kind {
            Kind::Unit(u) => Some(u),
            _ => None,
        })
        .chain(0..HOT_UNITS)
        .map(|u| (u, generate(&serve_unit(ctx.seed, u)).asm))
        .collect();
    let (daemon, _) = start(ctx, &work, "d", "main")?;
    {
        let mut s = UnixStream::connect(&daemon.sock).map_err(|e| e.to_string())?;
        for u in 0..HOT_UNITS {
            send_frame(&mut s, &frame(Kind::Unit(u), &units))?;
            recv_frame(&mut s)?;
        }
    }
    let mut rps = Vec::new();
    for batch in &batches {
        let frames: Vec<Vec<u8>> = batch.iter().map(|a| frame(a.kind, &units)).collect();
        let done = open_loop(&daemon.sock, batch, &frames)?;
        let first = done.iter().map(|d| d.sent).min().ok_or("no responses")?;
        let last = done.iter().map(|d| d.done).max().ok_or("no responses")?;
        let ok = done.iter().all(|d| {
            let status = d
                .payload
                .as_deref()
                .ok()
                .and_then(|p| parse(p).ok())
                .and_then(|r| r.get("status").and_then(Json::as_str).map(str::to_string));
            match d.kind {
                Kind::Unit(_) => status.as_deref() == Some("ok"),
                _ => status.as_deref() == Some("error"),
            }
        });
        if done.len() != batch.len() || !ok {
            return Err("a saturating batch got a wrong or missing response".into());
        }
        let r = batch.len() as f64 / last.duration_since(first).as_secs_f64();
        eprintln!(
            "perfbench: batch of {} requests: {r:.2} requests/s",
            batch.len()
        );
        rps.push(r);
    }
    stop(daemon)?;
    Ok(median(&rps))
}
