//! The `qrc-serve` binary: a newline-delimited JSON compilation
//! service over a TCP socket (`--listen`) or stdin/stdout (default).
//!
//! ```text
//! cargo run --release -p qrc-serve --bin qrc-serve -- [flags]
//!
//! flags:
//!   --listen ADDR       serve NDJSON over TCP (e.g. 127.0.0.1:7777;
//!                       port 0 picks an ephemeral port, printed to
//!                       stderr); omitted = stdin/stdout mode
//!   --models DIR        checkpoint directory            (default models/)
//!   --device-dir DIR    load every *.json device spec in DIR into the
//!                       device registry before startup; loaded devices
//!                       are pinnable by name and hot-recalibratable via
//!                       {"cmd":"calibrate"}
//!   --shard SPEC        ensure a policy shard exists (repeatable):
//!                       objective/device-class/width-band, e.g.
//!                       fidelity/ibm/narrow — trained on its scoped
//!                       benchmark slice when the checkpoint is missing;
//!                       the three objective-only wildcard shards are
//!                       always ensured
//!   --timesteps N       training budget per missing model (default 8000)
//!   --seed N            master seed                     (default 3)
//!   --train-max-qubits N  training-suite width for missing models (default 6)
//!   --cache-capacity N  result cache entries            (default 4096)
//!   --cache-shards N    cache shards                    (default 16)
//!   --batch N           most requests per scheduled batch (default 16)
//!   --batch-wait-us N   batch-collection timeout in µs  (default 2000)
//!   --queue N           bounded request-queue capacity  (default 1024)
//!   --max-line-bytes N  reject request lines longer than N bytes
//!                       (default 1048576)
//!   --max-width N       reject circuits wider than N qubits (default 128)
//!   --warm-cache        persist & pre-warm the result cache: import
//!                       cache_snapshot.ndjson from the models dir
//!                       before taking traffic (stale entries dropped,
//!                       torn snapshots quarantined) and snapshot again
//!                       on graceful drain; live snapshots via
//!                       {"cmd":"snapshot"}
//!   --replay-log PATH   pre-compile the head of a traffic log's
//!                       request distribution before taking traffic
//!   --log-traffic PATH  append every served compilation request to
//!                       PATH (one request line each; replayable)
//!   --log-requests      one structured JSON log line per request (stderr),
//!                       carrying the same `rid` the response echoes
//!   --stats             print aggregate metrics JSON to stderr at exit
//!                       (live snapshots: send {"cmd":"stats"})
//!   --metrics-listen ADDR  serve the Prometheus text exposition over
//!                       HTTP GET /metrics on ADDR (e.g. 127.0.0.1:9187;
//!                       also available in-band as {"cmd":"metrics"})
//!   --trace-sample N    trace one request in N with per-stage spans
//!                       (0 = off, 1 = every request)
//!   --trace-out PATH    write sampled spans as Chrome-trace JSON to
//!                       PATH at drain (open in ui.perfetto.dev);
//!                       implies --trace-sample 1 unless set
//!   --quiet             suppress startup/training progress
//! ```
//!
//! Both transports run the pipelined front end (`qrc_serve::listener`):
//! a reader overlaps I/O with compute through a bounded queue. On
//! stdin, replies come back in stream order and a control line acts
//! after every request before it has been answered; on a socket,
//! control replies may overtake queued responses (correlate by `id`).
//!
//! Protocol: one request object per line in, one response per line
//! out. `{"cmd":"stats"}` answers with live metrics (including loaded
//! shard keys, checkpoint mtimes, and the known-device list),
//! `{"cmd":"reload"}` hot-swaps the shard map from the models
//! directory without dropping traffic,
//! `{"cmd":"calibrate","device":NAME,"calibration":SPEC}` hot-swaps
//! one device's calibration data (selectively invalidating that
//! device's fidelity-keyed cache entries), and `{"cmd":"shutdown"}`
//! (or SIGTERM in any mode, or EOF on stdin) drains in-flight
//! batches and exits cleanly — a TERM-initiated drain answers
//! everything already read and exits 0. See the crate docs for the
//! field reference.

use std::sync::Arc;
use std::time::Duration;

use qrc_serve::cliargs::{flag_value, usage_error};
use qrc_serve::{CompilationService, FrontendConfig, ServiceConfig, ShardKey, ShutdownFlag};

const USAGE: &str = "usage: qrc-serve [--listen ADDR] [--models DIR] [--device-dir DIR] \
                     [--shard SPEC]... [--timesteps N] [--seed N] \
                     [--train-max-qubits N] [--cache-capacity N] [--cache-shards N] \
                     [--batch N] [--batch-wait-us N] [--queue N] [--max-line-bytes N] \
                     [--max-width N] [--warm-cache] \
                     [--replay-log PATH] [--log-traffic PATH] \
                     [--log-requests] [--stats] [--metrics-listen ADDR] \
                     [--trace-sample N] [--trace-out PATH] [--quiet]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServiceConfig::default();
    let mut frontend = FrontendConfig::default();
    let mut listen: Option<String> = None;
    let mut device_dir: Option<std::path::PathBuf> = None;
    let mut batch_wait_us: u64 = 2_000;
    let mut print_stats = false;
    let mut warm_cache = false;
    let mut replay_log: Option<std::path::PathBuf> = None;
    let mut log_traffic: Option<std::path::PathBuf> = None;
    let mut metrics_listen: Option<String> = None;
    let mut trace_sample: u64 = 0;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--listen" => match flag_value::<String>(&args, &mut i, "listen") {
                Ok(addr) => listen = Some(addr),
                Err(e) => usage_error(&e, USAGE),
            },
            "--models" => match flag_value::<String>(&args, &mut i, "models") {
                Ok(dir) => config.models_dir = dir.into(),
                Err(e) => usage_error(&e, USAGE),
            },
            "--device-dir" => match flag_value::<String>(&args, &mut i, "device-dir") {
                Ok(dir) => device_dir = Some(std::path::PathBuf::from(dir)),
                Err(e) => usage_error(&e, USAGE),
            },
            "--shard" => match flag_value::<String>(&args, &mut i, "shard") {
                Ok(spec) => match ShardKey::parse(&spec) {
                    Ok(key) => config.shards.push(key),
                    Err(e) => usage_error(&e, USAGE),
                },
                Err(e) => usage_error(&e, USAGE),
            },
            "--timesteps" => parse_into(&args, &mut i, "timesteps", &mut config.timesteps),
            "--seed" => parse_into(&args, &mut i, "seed", &mut config.seed),
            "--train-max-qubits" => parse_into(
                &args,
                &mut i,
                "train-max-qubits",
                &mut config.train_max_qubits,
            ),
            "--cache-capacity" => {
                parse_into(&args, &mut i, "cache-capacity", &mut config.cache_capacity)
            }
            "--cache-shards" => parse_into(&args, &mut i, "cache-shards", &mut config.cache_shards),
            "--batch" => parse_into(&args, &mut i, "batch", &mut frontend.batch_size),
            "--batch-wait-us" => parse_into(&args, &mut i, "batch-wait-us", &mut batch_wait_us),
            "--queue" => parse_into(&args, &mut i, "queue", &mut frontend.queue_capacity),
            "--max-line-bytes" => parse_into(
                &args,
                &mut i,
                "max-line-bytes",
                &mut config.max_request_bytes,
            ),
            "--max-width" => parse_into(&args, &mut i, "max-width", &mut config.max_circuit_qubits),
            "--warm-cache" => warm_cache = true,
            "--replay-log" => match flag_value::<String>(&args, &mut i, "replay-log") {
                Ok(path) => replay_log = Some(path.into()),
                Err(e) => usage_error(&e, USAGE),
            },
            "--log-traffic" => match flag_value::<String>(&args, &mut i, "log-traffic") {
                Ok(path) => log_traffic = Some(path.into()),
                Err(e) => usage_error(&e, USAGE),
            },
            "--log-requests" => frontend.log_requests = true,
            "--stats" => print_stats = true,
            "--metrics-listen" => match flag_value::<String>(&args, &mut i, "metrics-listen") {
                Ok(addr) => metrics_listen = Some(addr),
                Err(e) => usage_error(&e, USAGE),
            },
            "--trace-sample" => parse_into(&args, &mut i, "trace-sample", &mut trace_sample),
            "--trace-out" => match flag_value::<String>(&args, &mut i, "trace-out") {
                Ok(path) => trace_out = Some(path.into()),
                Err(e) => usage_error(&e, USAGE),
            },
            "--quiet" => config.verbose = false,
            other => usage_error(&format!("unknown flag `{other}`"), USAGE),
        }
        i += 1;
    }
    if frontend.batch_size == 0 {
        usage_error("--batch must be at least 1", USAGE);
    }
    if frontend.queue_capacity == 0 {
        usage_error("--queue must be at least 1", USAGE);
    }
    frontend.batch_wait = Duration::from_micros(batch_wait_us);
    // Asking for a trace file without a sampling rate means "trace
    // everything": an explicit --trace-sample still wins.
    if trace_out.is_some() && trace_sample == 0 {
        trace_sample = 1;
    }

    let shutdown = ShutdownFlag::new();
    // Every front end drains on SIGTERM. Socket mode polls the flag
    // everywhere (nonblocking accept, read timeouts); stdin mode
    // observes it from its drain side, which answers and flushes
    // everything already read and then returns without waiting on a
    // reader that SA_RESTART keeps parked in a blocking stdin read.
    // Installed *before* the (possibly minutes-long) model startup: a
    // TERM during training used to hit the default disposition and
    // kill the process with exit 143, which orchestrators read as a
    // failed shutdown. Now it marks the flag, startup completes, and
    // the front end drains and exits 0.
    qrc_serve::install_sigterm_bridge(&shutdown);

    // Dynamic device specs load before the service starts: a snapshot
    // warm-load must already know every device its entries name, and
    // traffic can pin loaded devices from the first request.
    if let Some(dir) = &device_dir {
        match qrc_device::DeviceRegistry::load_dir(dir) {
            Ok(loaded) => {
                if config.verbose {
                    eprintln!(
                        "device registry: {} spec(s) loaded from {} ({} devices known)",
                        loaded.len(),
                        dir.display(),
                        qrc_device::DeviceRegistry::len(),
                    );
                }
            }
            Err(e) => {
                eprintln!("error: could not load device dir: {e}");
                std::process::exit(1);
            }
        }
    }

    let start = std::time::Instant::now();
    let service = match CompilationService::start(&config) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("error: could not start service: {e}");
            std::process::exit(1);
        }
    };
    if config.verbose {
        eprintln!(
            "qrc-serve ready: {} policy shards from {} in {:.2}s (cache {} entries × {} shards)",
            service.registry().len(),
            config.models_dir.display(),
            start.elapsed().as_secs_f64(),
            config.cache_capacity,
            config.cache_shards,
        );
    }

    // Warmup happens strictly before the front end opens: snapshot
    // import first (cheap, validated against checkpoint identity),
    // then the traffic-log head (pre-compiles whatever the snapshot
    // did not cover), then the warmup is sealed so hits on pre-warmed
    // entries count as warm hits and serving stats start clean.
    if warm_cache {
        match service.load_snapshot() {
            Ok(report) => {
                if config.verbose {
                    eprintln!(
                        "cache snapshot: {} entries imported, {} stale dropped{}{}",
                        report.loaded,
                        report.stale_dropped,
                        if report.quarantined {
                            " (torn snapshot quarantined to .corrupt)"
                        } else {
                            ""
                        },
                        if report.missing {
                            " (no snapshot yet)"
                        } else {
                            ""
                        },
                    );
                }
            }
            Err(e) => {
                eprintln!("error: could not load cache snapshot: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &replay_log {
        match service.replay_log(path) {
            Ok(report) => {
                if config.verbose {
                    eprintln!(
                        "traffic-log warmup: {} logged requests, {} unique jobs, \
                         {} compiled, {} failed{}",
                        report.log_requests,
                        report.unique_jobs,
                        report.compiled,
                        report.failed,
                        if report.missing { " (no log yet)" } else { "" },
                    );
                }
            }
            Err(e) => {
                eprintln!(
                    "error: could not replay traffic log {}: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    }
    if warm_cache || replay_log.is_some() {
        let warm = service.finish_warmup();
        if config.verbose {
            eprintln!("cache warm: {warm} entries resident before first request");
        }
    }
    if let Some(path) = &log_traffic {
        if let Err(e) = service.set_traffic_log(path) {
            eprintln!("error: could not open traffic log {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    // The server enables the global compute profiler: per-pass,
    // per-section, and per-tick histograms feed the Prometheus
    // exposition. (Library embedders and the bench harness opt in
    // themselves — the gated hooks cost one relaxed load when off.)
    qrc_obs::profile::set_enabled(true);
    if trace_sample > 0 {
        service.enable_tracing(trace_sample);
        if config.verbose {
            eprintln!("tracing 1 in {trace_sample} requests");
        }
    }

    // The scrape endpoint runs beside either transport and stops when
    // the serve call below returns and requests shutdown.
    let metrics_thread = metrics_listen.map(|addr| {
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("error: could not bind metrics endpoint {addr}: {e}");
                std::process::exit(1);
            }
        };
        match listener.local_addr() {
            Ok(local) => eprintln!("qrc-serve metrics on http://{local}/metrics"),
            Err(_) => eprintln!("qrc-serve metrics on http://{addr}/metrics"),
        }
        let service = Arc::clone(&service);
        let shutdown = shutdown.clone();
        std::thread::spawn(move || qrc_serve::serve_metrics_http(&service, listener, &shutdown))
    });

    let served = match listen {
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(&addr) {
                Ok(listener) => listener,
                Err(e) => {
                    eprintln!("error: could not bind {addr}: {e}");
                    std::process::exit(1);
                }
            };
            // Always printed: with port 0 this is the only way to learn
            // the actual port.
            match listener.local_addr() {
                Ok(local) => eprintln!("qrc-serve listening on {local}"),
                Err(_) => eprintln!("qrc-serve listening on {addr}"),
            }
            qrc_serve::serve_socket(&service, listener, &frontend, &shutdown)
        }
        None => qrc_serve::serve_stdin(&service, &frontend, &shutdown),
    };

    // Snapshot-on-drain: persist the hot cache as the last act of a
    // drain (even after a broken stream — what *was* computed is still
    // valid), so the next `--warm-cache` start answers this process's
    // head-of-distribution traffic at hit-rate speed immediately.
    if warm_cache {
        match service.write_snapshot() {
            Ok(written) => {
                if config.verbose {
                    eprintln!(
                        "cache snapshot: {} entries written to {} ({} skipped)",
                        written.entries,
                        written.path.display(),
                        written.skipped
                    );
                }
            }
            Err(e) => eprintln!("warning: could not write cache snapshot: {e}"),
        }
    }
    // Stop the scrape endpoint: the serve call has drained, so the
    // flag may not be set yet (stdin EOF ends without requesting it).
    shutdown.request();
    if let Some(thread) = metrics_thread {
        let _ = thread.join();
    }
    // The trace file is part of the drain contract: whatever was
    // sampled gets written, even after a broken stream.
    if let Some(path) = &trace_out {
        let sink = service.trace_sink();
        match sink.write(path) {
            Ok(()) => {
                if config.verbose {
                    eprintln!(
                        "trace: {} spans from {} sampled requests written to {} ({} dropped)",
                        sink.len(),
                        sink.sampled_requests(),
                        path.display(),
                        sink.dropped_spans(),
                    );
                }
            }
            Err(e) => eprintln!(
                "warning: could not write trace file {}: {e}",
                path.display()
            ),
        }
    }
    // Stats go out even when the session ended on a broken stream:
    // what *was* served is exactly what the operator needs then.
    if print_stats {
        eprintln!("{}", serde_json::to_string_pretty(&service.stats_value()));
    }
    if let Err(e) = served {
        eprintln!("error: serving ended early, remaining requests dropped: {e}");
        std::process::exit(1);
    }
}

/// Parses the flag's value into `slot`, exiting with a usage error on
/// missing or malformed input.
fn parse_into<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str, slot: &mut T) {
    match flag_value(args, i, flag) {
        Ok(v) => *slot = v,
        Err(e) => usage_error(&e, USAGE),
    }
}
