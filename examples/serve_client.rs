//! NDJSON protocol walkthrough: drive the compilation service exactly
//! the way a network client drives the `qrc-serve` binary — one JSON
//! request per line in, one JSON response per line out — first
//! in-process, then over a real TCP socket against the pipelined
//! front end (`qrc-serve --listen`), including live stats and a
//! graceful shutdown.
//!
//! Run with: `cargo run --release --example serve_client`
//!
//! (The first run trains three small models into `target/serve-demo/`;
//! later runs load them from disk in milliseconds.)

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use mqt_predictor::prelude::*;
use mqt_predictor::serve::{
    serve_socket, CompilationService, FrontendConfig, ServiceConfig, ShutdownFlag,
};

fn main() {
    // 1. Start the service: loads (or trains + persists) one policy
    //    per objective. This is the same code path as
    //    `qrc-serve --models target/serve-demo --timesteps 3000`.
    let service = CompilationService::start(&ServiceConfig {
        models_dir: "target/serve-demo".into(),
        timesteps: 3_000,
        train_max_qubits: 4,
        verbose: true,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    println!("service ready with {} models\n", service.registry().len());

    // 2. Build NDJSON request lines, as a client would. The `qasm`
    //    payload is any OpenQASM 2 program; `objective` picks the
    //    reward the policy was trained for; `device` optionally pins
    //    the hardware target.
    let ghz = qasm_line(&BenchmarkFamily::Ghz.generate(3));
    let requests = [
        format!(r#"{{"id":"ghz-fid","qasm":{ghz},"objective":"fidelity"}}"#),
        format!(r#"{{"id":"ghz-depth","qasm":{ghz},"objective":"critical_depth"}}"#),
        // Identical to the first request: answered from the cache.
        format!(r#"{{"id":"ghz-again","qasm":{ghz},"objective":"fidelity"}}"#),
        // Pin the trapped-ion device.
        format!(
            r#"{{"id":"ghz-ionq","qasm":{ghz},"objective":"fidelity","device":"ionq_harmony"}}"#
        ),
        // Malformed on purpose: errors come back as NDJSON too.
        r#"{"id":"oops"}"#.to_string(),
    ];

    // 3. Exchange lines. Each response echoes the id and carries the
    //    compiled QASM, the action trace, the achieved reward, and
    //    cache/latency metadata.
    for line in &requests {
        println!("→ {}", truncate(line, 100));
        let reply = service.handle_line(line);
        let value = serde_json::from_str(&reply).expect("responses are valid JSON");
        match value.get("ok").and_then(|v| v.as_bool()) {
            Some(true) => {
                let reward = value.get("reward").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let cache = value.get("cache").and_then(|v| v.as_str()).unwrap_or("?");
                let micros = value.get("micros").and_then(|v| v.as_u64()).unwrap_or(0);
                let device = value
                    .get("device")
                    .and_then(|v| v.as_str())
                    .unwrap_or("policy's choice pending");
                let actions = value
                    .get("actions")
                    .and_then(|v| v.as_array())
                    .map_or(0, |a| a.len());
                println!(
                    "← ok: device {device}, {actions} actions, reward {reward:.4}, \
                     cache {cache}, {micros}µs\n"
                );
            }
            _ => {
                let error = value.get("error").and_then(|v| v.as_str()).unwrap_or("?");
                println!("← error: {error}\n");
            }
        }
    }

    // 4. Aggregate service metrics, as printed by `qrc-serve --stats`.
    let metrics = service.metrics();
    println!(
        "served {} requests ({} errors), cache hit rate {:.0}%, p50 {}µs, p99 {}µs",
        metrics.requests,
        metrics.errors,
        metrics.cache.hit_rate() * 100.0,
        metrics.p50_us,
        metrics.p99_us
    );

    // 5. The same protocol over TCP: start the pipelined socket front
    //    end on an ephemeral loopback port (what
    //    `qrc-serve --listen 127.0.0.1:0` does) and talk to it like
    //    any network client would.
    println!("\n--- socket mode ---");
    let service = Arc::new(service);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    println!("listening on {addr}");
    let server = {
        let service = Arc::clone(&service);
        let shutdown = ShutdownFlag::new();
        std::thread::spawn(move || {
            serve_socket(&service, listener, &FrontendConfig::default(), &shutdown)
        })
    };

    let mut stream = TcpStream::connect(addr).expect("connect");
    // A compile request, a live stats probe, and a graceful shutdown.
    let ghz4 = qasm_line(&BenchmarkFamily::Ghz.generate(4));
    writeln!(stream, r#"{{"id":"tcp-1","qasm":{ghz4}}}"#).expect("send request");
    writeln!(stream, r#"{{"cmd":"stats"}}"#).expect("send stats cmd");
    writeln!(stream, r#"{{"cmd":"shutdown"}}"#).expect("send shutdown cmd");
    stream.flush().expect("flush");
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        println!("← {}", truncate(&line, 100));
    }

    // The server drained in-flight work and exited cleanly.
    server
        .join()
        .expect("server thread panicked")
        .expect("socket front end failed");
    println!("server drained and shut down cleanly");
}

/// A circuit as a JSON-quoted QASM string literal.
fn qasm_line(circuit: &QuantumCircuit) -> String {
    let text = mqt_predictor::circuit::qasm::to_qasm(circuit);
    serde_json::to_string(&serde_json::Value::from(text))
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
