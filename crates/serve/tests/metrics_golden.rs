//! The node's renderings from the metric table, pinned.
//!
//! One fixed metrics state — a fixed sequence of `record`,
//! `record_stage` and `record_rejected` calls plus a fixed
//! `CacheStats` — is rendered as the stats JSON and the Prometheus
//! exposition and compared with the renderings recorded under
//! `tests/golden/` from the hand-written code the table replaced. Only
//! uptime and start time are masked, and the only differences allowed
//! are the series added since. This file runs no compilation, so the
//! process-global profiler histograms in the exposition stay empty and
//! the built-in device list in the service stats is the whole list.

use std::collections::BTreeMap;
use std::sync::Arc;

use qrc_predictor::RewardKind;
use qrc_serve::{
    CacheStats, CacheStatus, CompilationService, CompiledResult, DeviceClass, Kind, ModelRegistry,
    RouteLevel, Scope, ServeMetrics, ServeResponse, ServiceConfig, ShardKey, ShardRoute, Stage,
    WidthBand, METRICS,
};
use serde_json::Value;

/// The families (and their stats keys) the table added to a node's
/// renderings: counters the stats JSON carried without a series.
const ADDED_FAMILIES: [&str; 4] = [
    "qrc_reloads_total",
    "qrc_calibrations_total",
    "qrc_calibration_invalidated_total",
    "qrc_warm_entries",
];
const ADDED_KEYS: [&str; 4] = [
    "registry.reloads",
    "devices.calibrations",
    "devices.calibration_invalidated",
    "persistence.warm_entries",
];
const MASKED_KEYS: [&str; 2] = ["uptime_secs", "started_epoch_secs"];
const MASKED_FAMILIES: [&str; 2] = ["qrc_uptime_seconds", "qrc_start_time_seconds"];

/// Seven requests over four shards and every routing level, two of
/// them errors (one never routed).
fn requests() -> Vec<(u64, Option<CacheStatus>, Option<ShardRoute>)> {
    let fidelity = ShardKey::wildcard(RewardKind::ExpectedFidelity);
    let narrow = ShardKey {
        width_band: WidthBand::Narrow,
        ..fidelity
    };
    let ionq = ShardKey {
        device_class: DeviceClass::from_name("ionq").unwrap(),
        ..fidelity
    };
    let depth = ShardKey::wildcard(RewardKind::CriticalDepth);
    let route = |shard, level| Some(ShardRoute { shard, level });
    vec![
        (
            120,
            Some(CacheStatus::Miss),
            route(narrow, RouteLevel::Exact),
        ),
        (40, Some(CacheStatus::Hit), route(narrow, RouteLevel::Exact)),
        (
            35,
            Some(CacheStatus::Coalesced),
            route(narrow, RouteLevel::Exact),
        ),
        (900, None, route(fidelity, RouteLevel::ObjectiveOnly)),
        (7, None, None),
        (
            2500,
            Some(CacheStatus::Miss),
            route(ionq, RouteLevel::BandWildcard),
        ),
        (
            64,
            Some(CacheStatus::Hit),
            route(depth, RouteLevel::DeviceWildcard),
        ),
    ]
}

const STAGES: [(Stage, u64); 6] = [
    (Stage::QueueWait, 12),
    (Stage::Parse, 3),
    (Stage::Admission, 40),
    (Stage::BatchAssembly, 900),
    (Stage::Compute, 1500),
    (Stage::Compute, 2500),
];

const CACHE: CacheStats = CacheStats {
    hits: 5,
    warm_hits: 2,
    misses: 3,
    insertions: 3,
    evictions: 1,
};

fn fixed_metrics() -> ServeMetrics {
    let metrics = ServeMetrics::new();
    for (micros, status, route) in requests() {
        metrics.record(micros, status, route.as_ref());
    }
    for (stage, micros) in STAGES {
        metrics.record_stage(stage, micros);
    }
    metrics.record_rejected();
    metrics.record_rejected();
    metrics
}

/// A service over an empty registry fed the same requests through its
/// own recording entry points, with a queue probe installed.
fn fixed_service() -> CompilationService {
    let service = CompilationService::with_registry(
        ModelRegistry::from_models(Vec::new()),
        &ServiceConfig {
            verbose: false,
            ..ServiceConfig::default()
        },
    );
    service.install_queue_probe(Box::new(|| 4));
    let result = Arc::new(CompiledResult {
        qasm: String::new(),
        device: None,
        actions: Vec::new(),
        reward: 0.0,
    });
    for (micros, status, route) in requests() {
        service.record(&ServeResponse {
            id: None,
            result: match status {
                Some(status) => Ok((Arc::clone(&result), status)),
                None => Err("error".into()),
            },
            micros,
            route,
            rid: None,
        });
    }
    for (stage, micros) in STAGES {
        service.record_stage(stage, micros);
    }
    service.record_rejected();
    service
}

/// Every leaf of a JSON value by its dotted key path (`shards.<name>.hit`).
fn leaves(value: &Value, prefix: &str, out: &mut BTreeMap<String, Value>) {
    match value {
        Value::Object(pairs) if !pairs.is_empty() => {
            for (key, child) in pairs {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                leaves(child, &path, out);
            }
        }
        leaf => {
            out.insert(prefix.to_string(), leaf.clone());
        }
    }
}

/// Compares a rendered stats object with a recorded one, key path by
/// key path; `added` lists the paths only the rendering may have.
fn assert_same_stats(rendered: &Value, recorded: &str, added: &[&str]) {
    let mut want = BTreeMap::new();
    leaves(&serde_json::from_str(recorded).unwrap(), "", &mut want);
    let mut got = BTreeMap::new();
    leaves(rendered, "", &mut got);
    for key in MASKED_KEYS {
        assert!(
            got.remove(key).is_some() && want.remove(key).is_some(),
            "{key}"
        );
    }
    for key in added {
        assert_eq!(got.remove(*key), Some(Value::from(0u64)), "{key}");
    }
    assert_eq!(got, want);
}

/// A parsed exposition: each family's `HELP` and `TYPE`, and each
/// sample's value by its series key.
#[derive(Debug, PartialEq)]
struct Exposition {
    families: BTreeMap<String, (String, String)>,
    samples: BTreeMap<String, String>,
}

fn parse_exposition(text: &str) -> Exposition {
    let mut help = BTreeMap::new();
    let mut families = BTreeMap::new();
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, text) = rest.split_once(' ').unwrap();
            help.insert(name.to_string(), text.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap();
            let help = help.remove(name).expect("HELP precedes TYPE");
            assert!(families
                .insert(name.to_string(), (help, kind.to_string()))
                .is_none());
        } else {
            let (series, value) = line.rsplit_once(' ').unwrap();
            assert!(samples
                .insert(series.to_string(), value.to_string())
                .is_none());
        }
    }
    Exposition { families, samples }
}

#[test]
fn node_renderings_match_the_recorded_ones() {
    let metrics = fixed_metrics();
    assert_same_stats(
        &metrics.snapshot(CACHE).to_value(),
        include_str!("golden/metrics_stats.json"),
        &ADDED_KEYS,
    );
    // The service's reply: the same table plus the blocks that are no
    // counter (registry shards, device list, snapshot, retrain).
    assert_same_stats(
        &fixed_service().stats_value(),
        include_str!("golden/service_stats.json"),
        &[],
    );

    let mut got = parse_exposition(&metrics.render_prometheus(&CACHE, Some(4)));
    let mut want = parse_exposition(include_str!("golden/metrics.prom"));
    for family in MASKED_FAMILIES {
        assert!(got.samples.remove(family).is_some() && want.samples.remove(family).is_some());
    }
    for family in ADDED_FAMILIES {
        let (_, kind) = got.families.remove(family).unwrap();
        assert_eq!(got.samples.remove(family).as_deref(), Some("0"), "{family}");
        assert!(kind == "counter" || kind == "gauge");
    }
    assert_eq!(got, want);
}

#[test]
fn every_node_row_is_in_the_stats_and_the_exposition() {
    let service = fixed_service();
    let stats = service.stats_value();
    let text = service.metrics_text();
    let shards = stats.get("shards").and_then(Value::as_object).unwrap();
    assert_eq!(shards.len(), 4);
    let mut rows = 0;
    for metric in METRICS {
        let objects: Vec<&Value> = match metric.scope {
            Scope::Node => vec![&stats],
            Scope::Shard => shards.iter().map(|(_, object)| object).collect(),
            Scope::Router | Scope::Replica => continue,
        };
        rows += 1;
        for object in objects {
            for (_, path) in metric.series() {
                let value = path.iter().try_fold(object, |at, key| at.get(key));
                assert!(value.is_some(), "no {path:?} in {object}");
            }
        }
        if metric.kind != Kind::Derived {
            let kind = metric.kind.prometheus().unwrap();
            let header = format!("# TYPE {} {kind}\n", metric.name);
            assert!(text.contains(&header), "no `{header}` in:\n{text}");
            assert!(
                text.contains(&format!("\n{}", metric.name)),
                "{}",
                metric.name
            );
        }
    }
    assert_eq!(rows, 20, "every node and shard row was walked");
}
