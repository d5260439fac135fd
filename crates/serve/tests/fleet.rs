//! End-to-end fleet tests: a real `FleetRouter` fronting in-process
//! socket replicas. Exercises consistent routing, merged control
//! fan-out (the merged stats are the sum of the replicas' by the metric
//! table's rules, and every table row shows in the merged stats and
//! exposition), mid-stream replica loss with zero lost requests, and a
//! clean drain.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use qrc_benchgen::BenchmarkFamily;
use qrc_predictor::{train, PredictorConfig, RewardKind};
use qrc_rl::PpoConfig;
use qrc_serve::{
    serve_socket, CompilationService, FleetRouter, FrontendConfig, Kind, Merge, ModelRegistry,
    RouterConfig, Scope, ServiceConfig, ShutdownFlag, METRICS,
};
use serde_json::Value;

fn tiny_service() -> Arc<CompilationService> {
    let suite = vec![
        BenchmarkFamily::Ghz.generate(3),
        BenchmarkFamily::Dj.generate(3),
    ];
    let models = RewardKind::ALL
        .into_iter()
        .map(|reward| {
            let config = PredictorConfig {
                reward,
                total_timesteps: 1200,
                ppo: PpoConfig {
                    steps_per_update: 128,
                    minibatch_size: 32,
                    epochs: 4,
                    hidden: vec![24],
                    learning_rate: 1e-3,
                    ..PpoConfig::default()
                },
                seed: 5,
                step_penalty: 0.005,
            };
            train(suite.clone(), &config)
        })
        .collect();
    Arc::new(CompilationService::with_registry(
        ModelRegistry::from_models(models),
        &ServiceConfig {
            verbose: false,
            ..ServiceConfig::default()
        },
    ))
}

struct Replica {
    addr: String,
    shutdown: ShutdownFlag,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Starts one socket replica of the shared service on an ephemeral
/// port, returning its address, its shutdown flag (to simulate a
/// crash mid-test), and its serve thread.
fn start_replica(service: &Arc<CompilationService>) -> Replica {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::clone(service);
    let shutdown = ShutdownFlag::new();
    let flag = shutdown.clone();
    let config = FrontendConfig::default();
    let server = std::thread::spawn(move || serve_socket(&service, listener, &config, &flag));
    Replica {
        addr,
        shutdown,
        server,
    }
}

/// Starts the router over `replicas`, returning the client-facing
/// address, the router handle (for counters), and its run thread.
fn start_router(
    replicas: &[&Replica],
) -> (
    String,
    Arc<FleetRouter>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let router = Arc::new(
        FleetRouter::new(RouterConfig {
            replicas: replicas.iter().map(|r| r.addr.clone()).collect(),
            record_routes: true,
            reconnect_wait: Duration::from_millis(50),
            ..RouterConfig::default()
        })
        .unwrap(),
    );
    router.start().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let run = Arc::clone(&router);
    let thread = std::thread::spawn(move || run.run(listener));
    (addr, router, thread)
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
}

/// A request line whose circuit varies with `variant`, so different
/// ids spread across the ring instead of collapsing onto one key.
fn request_line(id: &str, variant: usize) -> String {
    let family = if variant.is_multiple_of(2) {
        BenchmarkFamily::Ghz
    } else {
        BenchmarkFamily::Dj
    };
    let qc = family.generate(2 + (variant as u32 / 2) % 2);
    let objective = ["fidelity", "critical_depth", "combination"][variant % 3];
    format!(
        r#"{{"id":"{id}","qasm":{},"objective":"{objective}"}}"#,
        serde_json::to_string(&serde_json::Value::from(qrc_circuit::qasm::to_qasm(&qc)))
    )
}

#[test]
fn fleet_routes_merges_stats_and_survives_replica_loss() {
    let service = tiny_service();
    let a = start_replica(&service);
    let b = start_replica(&service);
    let (addr, router, router_thread) = start_router(&[&a, &b]);

    let stream = connect(&addr);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();

    // Phase 1: both replicas healthy. Every request must come back ok.
    for i in 0..12 {
        writeln!(writer, "{}", request_line(&format!("p1-{i}"), i)).unwrap();
    }
    writer.flush().unwrap();
    for _ in 0..12 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "phase-1 failure: {line}");
    }

    // Merged stats nest both replicas and sum their counters.
    writeln!(writer, r#"{{"cmd":"stats"}}"#).unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""fleet""#), "no fleet block: {line}");
    assert!(line.contains(&a.addr) && line.contains(&b.addr));
    let merged = serde_json::from_str(&line).unwrap();
    assert_merged_from_replicas(&merged, &[&a.addr, &b.addr]);

    // The merged exposition carries every row's family, the router's
    // own series included.
    writeln!(writer, r#"{{"cmd":"metrics"}}"#).unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let reply = serde_json::from_str(&line).unwrap();
    let text = reply.get("metrics").and_then(Value::as_str).unwrap();
    for metric in METRICS {
        if let Some(kind) = metric.kind.prometheus() {
            let header = format!("# TYPE {} {kind}\n", metric.name);
            assert!(text.contains(&header), "no `{header}` in:\n{text}");
            assert!(
                text.contains(&format!("\n{}", metric.name)),
                "{}",
                metric.name
            );
        }
    }
    assert!(text.contains(&format!(
        "qrc_replica_healthy{{replica=\"{}\"}} 1\n",
        a.addr
    )));

    // Consistent hashing: identical repeated traffic stays put, so
    // every distinct key was owned by exactly one replica.
    for (key, owners) in router.route_log() {
        assert_eq!(owners.len(), 1, "key {key:#x} bounced between replicas");
    }
    let counters = router.replica_counters();
    let routed: Vec<u64> = counters.iter().map(|c| c.routed).collect();
    assert!(
        routed.iter().all(|&n| n > 0),
        "one replica never saw traffic: {routed:?}"
    );

    // Phase 2: replica A dies mid-stream. The router must eject it,
    // reroute, and keep answering — zero lost or failed requests.
    a.shutdown.request();
    a.server.join().unwrap().unwrap();
    for i in 0..12 {
        writeln!(writer, "{}", request_line(&format!("p2-{i}"), i)).unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "post-loss failure: {line}");
    }
    let counters = router.replica_counters();
    let alive = counters.iter().filter(|c| c.healthy).count();
    assert_eq!(alive, 1, "dead replica not ejected: {counters:?}");

    // Clean drain: shutdown drains the router; replica B keeps
    // running until we stop it ourselves.
    writeln!(writer, r#"{{"cmd":"shutdown"}}"#).unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":true"#), "shutdown reply: {line}");
    drop(writer);
    drop(reader);
    router_thread.join().unwrap().unwrap();

    b.shutdown.request();
    b.server.join().unwrap().unwrap();
}

fn lookup<'v>(value: &'v Value, path: &[&str]) -> Option<&'v Value> {
    path.iter().try_fold(value, |at, key| at.get(key))
}

/// Checks a merged stats reply against the replica replies nested in
/// it: every node and shard row is its replicas' values merged by the
/// row's rule (summable counters are their sum), the derived cache
/// values are recomputed from the merged counters, latency quantiles
/// stay out, and every router and replica row is present.
fn assert_merged_from_replicas(merged: &Value, addrs: &[&str]) {
    let replicas: Vec<&Value> = addrs
        .iter()
        .map(|addr| lookup(merged, &["fleet", "per_replica", addr, "stats"]).unwrap())
        .collect();
    let shards: Vec<String> = merged
        .get("shards")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .map(|(name, _)| name.clone())
        .collect();
    assert!(!shards.is_empty(), "no shard routed: {merged}");
    for metric in METRICS {
        let roots: Vec<Vec<&str>> = match metric.scope {
            Scope::Node => vec![vec![]],
            Scope::Shard => shards.iter().map(|s| vec!["shards", s.as_str()]).collect(),
            Scope::Router => vec![vec!["fleet"]],
            Scope::Replica => addrs
                .iter()
                .map(|a| vec!["fleet", "per_replica", a])
                .collect(),
        };
        for root in roots {
            for (_, path) in metric.series() {
                let path = [root.as_slice(), &path].concat();
                let value = lookup(merged, &path);
                assert!(value.is_some(), "no {path:?} in {merged}");
                let summed = matches!(metric.scope, Scope::Node | Scope::Shard);
                if !summed || metric.kind == Kind::Derived {
                    continue;
                }
                let parts = replicas.iter().filter_map(|r| lookup(r, &path));
                match metric.merge {
                    Merge::Sum => {
                        let sum: u64 = parts.map(|v| v.as_u64().unwrap()).sum();
                        assert_eq!(value.and_then(Value::as_u64), Some(sum), "{path:?}");
                    }
                    rule => {
                        let part = parts
                            .map(|v| v.as_f64().unwrap())
                            .reduce(|a, b| rule.pick(a, b));
                        assert_eq!(value.and_then(Value::as_f64), part, "{path:?}");
                    }
                }
            }
        }
    }
    // The fleet started with its first replica and has been up as long
    // as its oldest.
    let each = |key: &str| -> Vec<f64> {
        let value = |r: &&Value| r.get(key).and_then(Value::as_f64).unwrap();
        replicas.iter().map(value).collect()
    };
    let start = merged.get("started_epoch_secs").and_then(Value::as_f64);
    assert_eq!(
        start,
        each("started_epoch_secs").into_iter().reduce(f64::min)
    );
    let uptime = merged.get("uptime_secs").and_then(Value::as_f64);
    assert_eq!(uptime, each("uptime_secs").into_iter().reduce(f64::max));
    let cache = |key: &str| {
        lookup(merged, &["cache", key])
            .and_then(Value::as_f64)
            .unwrap()
    };
    assert_eq!(cache("cold_hits"), cache("hits") - cache("warm_hits"));
    let lookups = cache("hits") + cache("misses");
    assert!(lookups > 0.0);
    assert_eq!(cache("hit_rate"), cache("hits") / lookups);
    assert!(
        merged.get("latency_us").is_none(),
        "quantiles cannot be summed"
    );
}
