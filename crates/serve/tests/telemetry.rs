//! End-to-end telemetry through the service: the `metrics` request must
//! serve valid Prometheus text whose counters move with real traffic, the
//! `stats` response must carry the schema version and agree with the
//! scrape member for member, and the Chrome-trace export must parse as the
//! JSON shape `chrome://tracing` expects.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mao::obs::{prom, Metrics, Obs, Span};
use mao_serve::engine::{Engine, EngineConfig};
use mao_serve::json::Json;
use mao_serve::protocol::{OptimizeRequest, Request, Response};
use mao_serve::{request_key, DiskCache, OptimizeOutcome, ResultCache, STATS_SCHEMA_VERSION};

const INPUT: &str = "\t.type\tf, @function\nf:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L1\n\taddl $3, %eax\n\taddl $4, %eax\n.L1:\n\tret\n";

fn engine() -> Engine {
    Engine::new(EngineConfig {
        shards: 2,
        ..EngineConfig::default()
    })
}

fn optimize(asm: &str) -> Request {
    optimize_with(asm, "REDTEST:ADDADD")
}

fn optimize_with(asm: &str, passes: &str) -> Request {
    Request::Optimize(OptimizeRequest {
        asm: asm.into(),
        passes: passes.into(),
        jobs: None,
        timeout_ms: None,
        use_cache: true,
        isa: mao::isa::IsaId::X86_64,
    })
}

fn metrics_text(engine: &Engine) -> String {
    match engine.handle(Request::Metrics) {
        Response::Metrics(text) => text,
        other => panic!("expected metrics response, got {other:?}"),
    }
}

/// Extract the unlabeled sample value of `family` from exposition text.
fn sample(text: &str, family: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(&format!("{family} ")))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_are_valid_prometheus_and_track_cache_traffic() {
    let engine = engine();
    let cold = metrics_text(&engine);
    prom::validate(&cold).expect("cold scrape validates");
    assert_eq!(sample(&cold, "mao_result_cache_hits_total"), Some(0));

    let _ = engine.handle(optimize(INPUT)); // miss
    let _ = engine.handle(optimize(INPUT)); // hit
    let warm = metrics_text(&engine);
    prom::validate(&warm).expect("warm scrape validates");
    assert_eq!(sample(&warm, "mao_result_cache_hits_total"), Some(1));
    assert_eq!(sample(&warm, "mao_result_cache_misses_total"), Some(1));
    assert_eq!(sample(&warm, "mao_functions_processed_total"), Some(2));
    assert!(
        warm.contains("# TYPE mao_request_service_us histogram"),
        "{warm}"
    );
    assert!(
        warm.contains("mao_pass_invocations_total{pass=\"REDTEST\"} 1"),
        "{warm}"
    );
    assert!(warm.contains("mao_uptime_seconds"), "{warm}");
}

#[test]
fn metrics_response_json_carries_schema_version() {
    let engine = engine();
    let json = engine.handle(Request::Metrics).to_json();
    assert_eq!(json.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        json.get("schema_version").unwrap().as_u64(),
        Some(STATS_SCHEMA_VERSION)
    );
    // The payload round-trips through the JSON layer intact.
    let text = json.get("metrics").unwrap().as_str().unwrap();
    prom::validate(text).expect("payload survives JSON transport");
}

#[test]
fn stats_snapshot_carries_schema_version_and_spans() {
    let engine = engine();
    let _ = engine.handle(optimize(INPUT));
    let snap = engine.snapshot();
    assert_eq!(snap.schema_version, STATS_SCHEMA_VERSION);
    assert_eq!(snap.requests.ok, 1);
    assert!(
        snap.span_totals
            .iter()
            .any(|t| t.cat == "request" && t.count == 1),
        "{:?}",
        snap.span_totals
    );
    assert!(snap.span_totals.iter().any(|t| t.cat == "pass"));
    // Rendered and typed views agree.
    let json = snap.to_json();
    assert_eq!(
        json.get("requests").unwrap().get("ok").unwrap().as_u64(),
        Some(1)
    );
}

#[test]
fn chrome_trace_export_is_wellformed_json() {
    let obs = Obs::recording();
    {
        let mut outer = Span::enter(&obs.recorder, "pass", "DCE");
        outer.counter("transformations", 2);
        let _inner = Span::enter(&obs.recorder, "function", "f");
    }
    let trace = Json::parse(&obs.recorder.chrome_trace_json()).expect("chrome trace parses");
    let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), 2);
    for event in events {
        assert_eq!(event.get("ph").unwrap().as_str(), Some("X"));
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(event.get(key).is_some(), "event missing `{key}`");
        }
    }
    assert!(events
        .iter()
        .any(|e| e.get("name").unwrap().as_str() == Some("DCE")
            && e.get("args").unwrap().get("transformations").is_some()));
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mao-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every integer sample of a scrape, keyed by `family{labels}` as rendered.
fn samples(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Caches and stores own their counter cells from construction, and
/// attaching a registry adopts those cells: counts made before the attach
/// are in the scrape, equal to `stats()`.
#[test]
fn counts_made_before_attach_reach_the_registry() {
    let metrics = Metrics::new();

    // Analysis cache: hits, misses, an eviction (capacity 1, two
    // functions), a layout miss and a layout hit.
    let unit = mao::MaoUnit::parse(&two_functions(1)).unwrap();
    let analyses = mao::AnalysisCache::with_capacity(1);
    for name in ["f", "f", "g"] {
        let function = unit.find_function(name).unwrap();
        let _ = analyses.for_function(&unit, &function);
    }
    let _ = analyses.layout(&unit).unwrap();
    let _ = analyses.layout(&unit).unwrap();
    analyses.attach_metrics_labeled(&metrics, &[("shard", "7")]);
    let a = analyses.stats();
    assert!(a.hits > 0 && a.misses > 0 && a.evictions > 0 && a.layout_hits > 0);

    // Result cache with a disk tier: a memory miss that the disk tier also
    // misses, an insert written through, a memory hit, and an eviction.
    let dir = temp_dir("before-attach");
    let disk = DiskCache::open(mao_frame::StoreConfig::new(dir.join("results"))).unwrap();
    let results = ResultCache::with_disk(1, Some(disk));
    let outcome = |asm: &str| {
        Arc::new(OptimizeOutcome {
            asm: asm.into(),
            passes: vec![],
            timings_us: vec![],
            trace: vec![],
        })
    };
    let (k1, k2) = (
        request_key("1", "DCE", mao::isa::IsaId::X86_64),
        request_key("2", "DCE", mao::isa::IsaId::X86_64),
    );
    assert!(results.get(k1).is_none());
    results.insert(k1, outcome("1"));
    assert!(results.get(k1).is_some());
    results.insert(k2, outcome("2"));
    results.attach_metrics(&metrics);
    let r = results.stats();
    let d = r.disk.unwrap();
    assert!(r.hits > 0 && r.misses > 0 && r.evictions > 0 && d.misses > 0 && d.insertions > 0);

    // A bare artifact store: an insertion, a hit, a miss, and a corrupt
    // entry evicted instead of served.
    let kind = mao_frame::Kind {
        magic: *b"MAOTEST\x01",
        version: 1,
        ext: "mt",
    };
    let store =
        mao_frame::ArtifactStore::open(kind, mao_frame::StoreConfig::new(dir.join("store")))
            .unwrap();
    store.put(1, &kind.encode(0, 1, b"body"));
    store.put(2, &kind.encode(0, 1, b"stamped with the wrong key"));
    assert!(store.get(1, |_| Some(())).is_some());
    assert!(store.get(2, |_| Some(())).is_none());
    assert!(store.get(3, |_| Some(())).is_none());
    store.attach_metrics(&metrics, "mao_test_store");
    let t = store.stats();
    assert!(t.hits > 0 && t.misses > 0 && t.insertions > 0 && t.corrupt > 0);

    let scraped = samples(&metrics.counter_lines());
    let shard = |family: &str| scraped[&format!("{family}{{shard=\"7\"}}")];
    assert_eq!(shard("mao_analysis_cache_hits_total"), a.hits);
    assert_eq!(shard("mao_analysis_cache_misses_total"), a.misses);
    assert_eq!(shard("mao_analysis_cache_evictions_total"), a.evictions);
    assert_eq!(shard("mao_layout_cache_hits_total"), a.layout_hits);
    assert_eq!(shard("mao_layout_cache_misses_total"), a.layout_misses);
    assert_eq!(
        shard("mao_layout_cache_disk_hits_total"),
        a.layout_disk_hits
    );
    assert_eq!(
        shard("mao_layout_cache_disk_misses_total"),
        a.layout_disk_misses
    );
    for (family, value) in [
        ("mao_result_cache_hits_total", r.hits),
        ("mao_result_cache_misses_total", r.misses),
        ("mao_result_cache_evictions_total", r.evictions),
        ("mao_result_cache_insertions_total", r.insertions),
        ("mao_result_cache_disk_hits_total", d.hits),
        ("mao_result_cache_disk_misses_total", d.misses),
        ("mao_result_cache_disk_insertions_total", d.insertions),
        ("mao_result_cache_disk_evictions_total", d.evictions),
        ("mao_result_cache_disk_corrupt_total", d.corrupt),
        ("mao_test_store_hits_total", t.hits),
        ("mao_test_store_misses_total", t.misses),
        ("mao_test_store_insertions_total", t.insertions),
        ("mao_test_store_evictions_total", t.evictions),
        ("mao_test_store_corrupt_total", t.corrupt),
    ] {
        assert_eq!(scraped[family], value, "{family}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two functions, so a capacity-1 analysis cache evicts; `variant` makes
/// the unit (and so its request key) distinct.
fn two_functions(variant: u32) -> String {
    format!(
        "\t.type\tf, @function\nf:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L1\n\
         \taddl ${variant}, %eax\n\taddl $4, %eax\n.L1:\n\tret\n\
         \t.type\tg, @function\ng:\n\taddl $1, %ecx\n\taddl $2, %ecx\n\tret\n"
    )
}

/// The scrape series a `stats` JSON member is rendered from, or `None`
/// for members that are not counters (ratios, capacities, identities,
/// wall-clock totals). Panics on a member it does not know, so a new
/// member must declare which series (if any) it agrees with.
fn series_of(path: &str, shards: usize) -> Option<Vec<String>> {
    let parts: Vec<&str> = path.split('.').collect();
    let one = |s: String| Some(vec![s]);
    let per_shard = |family: String| {
        Some(
            (0..shards)
                .map(|i| format!("{family}{{shard=\"{i}\"}}"))
                .collect(),
        )
    };
    match parts.as_slice() {
        ["schema_version" | "uptime_s"] => None,
        [_, "hit_rate"] | [_, "capacity"] | [_, "disk", "max_bytes"] => None,
        ["per_pass_timings" | "spans" | "cost_model", ..] => None,
        ["frontend", "parse_us"] | ["shards", _, "shard"] => None,
        ["shards", _, _, "hit_rate"] => None,
        ["requests", "errors"] => one("mao_requests_error_total".into()),
        ["requests", "panics" | "timeouts"] => one(format!("mao_request_{}_total", parts[1])),
        ["requests", "total"] => one("mao_requests_total".into()),
        ["requests", "ok"] => one("mao_requests_ok_total".into()),
        ["isa", name] => one(format!("mao_requests_isa_total{{isa=\"{name}\"}}")),
        ["in_flight"] => one("mao_requests_in_flight".into()),
        ["admission", "pending"] => one("mao_requests_pending".into()),
        ["admission", what] => one(format!("mao_requests_{what}_total")),
        ["result_cache", "len"] => one("mao_result_cache_len".into()),
        ["result_cache", what] => one(format!("mao_result_cache_{what}_total")),
        ["result_cache", "disk", what @ ("bytes" | "entries")] => {
            one(format!("mao_result_cache_disk_{what}"))
        }
        ["result_cache", "disk", what] => one(format!("mao_result_cache_disk_{what}_total")),
        ["analysis_cache", what] => per_shard(format!("mao_analysis_cache_{what}_total")),
        ["layout_cache", what] => {
            let what = match *what {
                "hit_disk" => "disk_hits",
                "miss_disk" => "disk_misses",
                other => other,
            };
            per_shard(format!("mao_layout_cache_{what}_total"))
        }
        ["frontend", what @ ("snapshot_hits" | "snapshot_misses")] => {
            one(format!("mao_frontend_{what}_total"))
        }
        ["frontend", "snapshot_bytes"] => one("mao_frontend_snapshot_store_bytes".into()),
        ["frontend", "snapshot_entries"] => one("mao_frontend_snapshot_store_entries".into()),
        ["frontend", what] => one(format!("mao_frontend_{what}")),
        ["shards", i, "requests"] => one(format!("mao_shard_requests_total{{shard=\"{i}\"}}")),
        ["shards", i, "analysis_cache", what] => {
            one(format!("mao_analysis_cache_{what}_total{{shard=\"{i}\"}}"))
        }
        ["relax", what] => one(format!("mao_relax_{what}_total")),
        ["superopt", what] => one(format!("mao_superopt_{what}_total")),
        _ => panic!("stats member `{path}` has no declared scrape series"),
    }
}

/// Every numeric leaf of a JSON value, keyed by its dotted path.
fn leaves(json: &Json, path: String, out: &mut BTreeMap<String, f64>) {
    let join = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match json {
        Json::Num(n) => {
            out.insert(path, *n);
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                leaves(item, join(&i.to_string()), out);
            }
        }
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                leaves(value, join(key), out);
            }
        }
        _ => {}
    }
}

/// Compare every counter member of the `stats` JSON with the scrape. The
/// scrape request counts itself in `mao_requests_total`, so the engine's
/// members are compared with a `stats` taken after it. Relaxation and
/// interner totals are process-wide (other tests in this binary move them
/// concurrently), so they only have to lie between a `stats` taken before
/// and one taken after the scrape.
fn assert_stats_match_scrape(engine: &Engine, phase: &str) {
    let mut before = BTreeMap::new();
    leaves(&engine.snapshot().to_json(), String::new(), &mut before);
    let scraped = samples(&metrics_text(engine));
    let mut after = BTreeMap::new();
    leaves(&engine.snapshot().to_json(), String::new(), &mut after);
    let mut compared = 0;
    for (path, value) in &after {
        let Some(series) = series_of(path, engine.shards()) else {
            continue;
        };
        let total: u64 = series
            .iter()
            .map(|s| {
                *scraped
                    .get(s)
                    .unwrap_or_else(|| panic!("{phase}: `{path}` has no series `{s}`"))
            })
            .sum();
        let process_wide = path.starts_with("relax.") || path.starts_with("frontend.interner_");
        if process_wide {
            assert!(
                before[path] <= total as f64 && total as f64 <= *value,
                "{phase}: {path}: scrape {total} outside [{}, {value}]",
                before[path]
            );
        } else {
            assert_eq!(*value, total as f64, "{phase}: {path} vs {series:?}");
        }
        compared += 1;
    }
    assert!(compared > 40, "{phase}: only {compared} members compared");
}

/// The `stats` JSON and the Prometheus scrape read the same cells: through
/// cold, warm, restart-disk-hit, corrupt-entry and eviction traffic on a
/// 2-shard engine with cache and snapshot directories, every counter
/// member equals its series, and the per-shard analysis-cache series sum
/// to the aggregate.
#[test]
fn stats_and_scrape_agree_through_every_cache_tier() {
    let dir = temp_dir("agree");
    let engine_on = |max_bytes: u64| {
        Engine::new(EngineConfig {
            shards: 2,
            result_cache_capacity: 2,
            analysis_cache_capacity: 1,
            cache_dir: Some(dir.join("cache")),
            cache_max_bytes: max_bytes,
            snapshot_dir: Some(dir.join("snapshots")),
            ..EngineConfig::default()
        })
    };
    let first = engine_on(0);
    assert_stats_match_scrape(&first, "fresh");
    for variant in 0..4 {
        let _ = first.handle(optimize(&two_functions(variant))); // cold
    }
    for variant in (0..4).rev() {
        let _ = first.handle(optimize(&two_functions(variant))); // warm or evicted
    }
    let _ = first.handle(optimize("bogus_mnemonic %eax\n")); // error
    let _ = first.handle(optimize_with(&two_functions(9), "REDTEST:PANIC")); // panic
    let before_restart = first.snapshot();
    assert!(before_restart.result_cache.hits > 0 && before_restart.result_cache.evictions > 0);
    assert!(before_restart.analysis_cache.evictions > 0 && before_restart.requests.panics > 0);
    assert_stats_match_scrape(&first, "first life");
    let disk = before_restart.result_cache.disk.unwrap();
    first.join_workers();
    drop(first);

    // Damage the last persisted result so the restart meets a corrupt
    // entry after three disk hits.
    let key = request_key(&two_functions(3), "REDTEST:ADDADD", mao::isa::IsaId::X86_64);
    flip_last_byte(&dir.join("cache").join(format!("{:032x}.mc", key.raw())));

    // Second life over the same directories, with a byte budget of about
    // two results so new results evict from the disk tier.
    let second = engine_on(disk.bytes / disk.entries * 5 / 2);
    assert_stats_match_scrape(&second, "restart");
    for variant in 0..4 {
        let _ = second.handle(optimize(&two_functions(variant))); // disk hit or corrupt
    }
    for variant in 0..4 {
        let _ = second.handle(optimize_with(&two_functions(variant), "ADDADD"));
        // snapshot hit
    }
    let after = second.snapshot();
    let disk = after.result_cache.disk.unwrap();
    assert!(
        disk.hits > 0 && disk.corrupt > 0 && disk.evictions > 0,
        "{disk:?}"
    );
    assert!(after.frontend.snapshot_hits > 0);
    assert_stats_match_scrape(&second, "second life");
    second.join_workers();
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

fn flip_last_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    std::fs::write(path, bytes).unwrap();
}
