//! Steady in-process serving benchmark for `qrc_serve::CompilationService`.
//!
//! ```text
//! qrc-perfbench --workload <miss-wide|miss-ion|hit-skewed> --seed N --seconds S --trace <0|1>
//! qrc-perfbench --self-test
//! ```
//!
//! One closed-loop client thread drives a single-threaded service
//! configured as `qrc-serve` runs by default (global profiler on). It
//! replays the workload's request list in full, pass after pass, until
//! `--seconds` of timed calls have run; there are no sockets, queues or
//! batch-wait timers on the timed path. Every answer is checked. The
//! last line of standard output is one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced
//! re-enactment (`--trace 1`). Scratch files live under `.qrcbench/`
//! in the working directory.

mod check;
mod host;
mod probe;
mod reenact;
mod selftest;
mod train;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use qrc_predictor::Action;
use qrc_serve::{CompilationService, ServeRequest, ServiceConfig};
use serde_json::Value;

use check::Checker;
use reenact::{Recorder, Reenactor};
use workload::Workload;

const USAGE: &str = "usage: qrc-perfbench --workload <miss-wide|miss-ion|hit-skewed> \
                     --seed N --seconds S --trace <0|1>\n       qrc-perfbench --self-test";

/// Cold starts per timed run; `setup_s` is their median. Each trains
/// three models (8–18 s on a shared 2-vCPU host), so more would leave
/// less of a run's time budget to the timed passes.
const SETUPS: usize = 2;

/// Latency samples a run must record beyond its p99.
const MIN_TAIL: usize = 10;

/// Service-call seconds between two host probes in the timed passes.
const PROBE_EVERY_S: f64 = 0.25;

/// Host probes taken before and after each cold start; the cold start
/// is scaled by the median of these.
const SETUP_PROBES: usize = 5;

/// A stretch of timed calls is scaled by the median of this many
/// probes on either side of it (about one second of calls).
const PROBE_WINDOW: usize = 2;

/// The probe's duration on the nominal host that every reported time is
/// scaled to, in seconds: about its median on a 2-vCPU Intel Xeon VM.
const NOMINAL_PROBE_S: f64 = 0.005;

/// The end-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
    ("mean_reward", "reward"),
    ("executable_frac", "fraction"),
    ("setup_s", "s"),
];

/// The per-layer metrics (`--trace 1`), with their units.
pub fn per_layer_table() -> Vec<(String, &'static str)> {
    let mut table = Vec::new();
    for layer in reenact::layer_names() {
        table.push((format!("{layer}.self_us_per_req"), "us/req"));
        table.push((format!("{layer}.calls_per_req"), "calls/req"));
    }
    for action in Action::all()
        .into_iter()
        .filter(|a| reenact::is_routing(*a))
    {
        table.push((
            format!("{}.ops_delta", reenact::pass_layer_name(action)),
            "ops/call",
        ));
    }
    for (name, unit) in [
        ("cache.hit_ratio", "fraction"),
        ("service.overhead.self_us_per_req", "us/req"),
        ("train.ppo_s", "s"),
        ("train.env_s", "s"),
        ("train.env_steps", "count"),
        ("setup.warm_s", "s"),
        ("trace.overhead_frac", "fraction"),
        ("trace.coverage_frac", "fraction"),
    ] {
        table.push((name.to_string(), unit));
    }
    table
}

/// How big a run is: full size, or the self-test's minimal size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Training budget per default model.
    pub timesteps: usize,
    /// Truncate the request list to this many requests.
    pub limit: Option<usize>,
    /// Timed seconds to run at least.
    pub seconds: f64,
    /// Latency samples required beyond p99.
    pub min_tail: usize,
}

/// What one run printed.
pub struct RunResult {
    /// Every output check (and, traced, every re-enactment) passed.
    pub correct: bool,
    /// Requests sent in the timed or traced passes.
    pub attempted: u64,
    /// Of those, responses that were not `ok`.
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(String, f64, String)>,
    /// Diagnostics printed before the result line.
    pub notes: Vec<String>,
    /// The first few failed checks.
    pub failures: Vec<String>,
}

impl RunResult {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::object(vec![
                        ("value", Value::from(*value)),
                        ("unit", Value::from(unit.as_str())),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        serde_json::to_string(&Value::object(vec![
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `.qrcbench/work-<pid>` under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = PathBuf::from(".qrcbench").join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let work = match WorkDir::create() {
        Ok(work) => work,
        Err(e) => {
            eprintln!("qrc-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args == ["--self-test"] {
        return selftest::run(&work.0);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qrc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale {
        timesteps: ServiceConfig::default().timesteps,
        limit: None,
        seconds: args.seconds,
        min_tail: MIN_TAIL,
    };
    match run(args.workload, args.seed, args.trace, &scale, &work.0) {
        Ok(result) => {
            for note in &result.notes {
                println!("{note}");
            }
            for failure in &result.failures {
                eprintln!("qrc-perfbench: check failed: {failure}");
            }
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("qrc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload, timed (`trace == false`) or traced, with its
/// scratch files under `work`.
pub fn run(
    workload: Workload,
    seed: u64,
    trace: bool,
    scale: &Scale,
    work: &Path,
) -> Result<RunResult, String> {
    if trace {
        traced(workload, seed, scale, work)
    } else {
        timed(workload, seed, scale, work)
    }
}

/// A started service and the request list it will answer.
struct Prepared {
    service: CompilationService,
    config: ServiceConfig,
    requests: Vec<ServeRequest>,
    lines: Vec<String>,
}

/// Starts a service over `config.models_dir`, training whatever is
/// missing there. The profiler is off while it starts and on after,
/// as in the `qrc-serve` binary.
fn start_service(config: &ServiceConfig) -> Result<CompilationService, String> {
    qrc_obs::profile::set_enabled(false);
    let service = CompilationService::start(config).map_err(|e| format!("service start: {e}"));
    qrc_obs::profile::set_enabled(true);
    service
}

/// The cold start `setup_s` times: train the default models into an
/// empty models dir, start the service, generate the requests, and on
/// hit-skewed (when `warm`) answer the list once. Returns the prepared
/// service and the seconds it took.
fn cold_start(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    models_dir: PathBuf,
    warm: bool,
) -> Result<(Prepared, f64), String> {
    let _ = std::fs::remove_dir_all(&models_dir);
    let start = Instant::now();
    let config = ServiceConfig {
        models_dir,
        timesteps: scale.timesteps,
        parallel: false,
        ..ServiceConfig::default()
    };
    let service = start_service(&config)?;
    let requests = workload.requests(seed, scale.limit);
    let lines: Vec<String> = requests.iter().map(ServeRequest::to_line).collect();
    let prepared = Prepared {
        service,
        config,
        requests,
        lines,
    };
    let warm_answers = if warm && !workload.is_miss() {
        replay(workload, &prepared, |_, _, _, _| Ok(()))?
    } else {
        Vec::new()
    };
    let seconds = start.elapsed().as_secs_f64();
    if let Some(bad) = warm_answers
        .iter()
        .find(|line| !line.contains("\"ok\":true"))
    {
        return Err(format!("warm-up answer is not ok: {bad}"));
    }
    Ok((prepared, seconds))
}

/// One pass: the whole request list, `workload.batch()` lines per
/// `handle_lines` call. A miss workload's pass runs on a fresh service
/// over the trained models, started before the first call, so every
/// request is a real miss; hit-skewed answers from the warmed service.
/// After each call `on_call` gets the service, the call's lines, its
/// answers and its seconds; what it does lies outside every call's
/// timing.
fn replay(
    workload: Workload,
    prepared: &Prepared,
    mut on_call: impl FnMut(&CompilationService, &[String], &[String], f64) -> Result<(), String>,
) -> Result<Vec<String>, String> {
    let fresh = if workload.is_miss() {
        Some(start_service(&prepared.config)?)
    } else {
        None
    };
    let service = fresh.as_ref().unwrap_or(&prepared.service);
    let mut answers = Vec::with_capacity(prepared.lines.len());
    for chunk in prepared.lines.chunks(workload.batch()) {
        let call = Instant::now();
        let out = service.handle_lines(chunk);
        let seconds = call.elapsed().as_secs_f64();
        on_call(service, chunk, &out, seconds)?;
        answers.extend(out);
    }
    Ok(answers)
}

/// The nearest-rank `q` quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Samples strictly above the p99.
fn beyond_p99(sorted: &[f64]) -> usize {
    let p99 = quantile(sorted, 0.99);
    sorted.len() - sorted.partition_point(|&x| x <= p99)
}

fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The timed calls in stretches between host probes, and the probes.
#[derive(Default)]
struct Timeline {
    probes_s: Vec<f64>,
    /// Per stretch: the probes taken before it, and its calls as
    /// `(seconds, requests)`, kept small because they count in the peak
    /// resident set.
    stretches: Vec<(usize, Vec<(f32, u32)>)>,
    /// Call seconds since the last probe.
    unprobed_s: f64,
}

impl Timeline {
    /// Takes `count` probes and starts a new stretch after them.
    fn probe(&mut self, count: usize) {
        for _ in 0..count {
            self.probes_s.push(probe::probe_s());
        }
        self.unprobed_s = 0.0;
        self.stretches.push((self.probes_s.len(), Vec::new()));
    }

    /// Records one call, and probes once [`PROBE_EVERY_S`] of calls
    /// have run since the last probe.
    fn call(&mut self, seconds: f64, requests: usize) {
        self.stretches
            .last_mut()
            .expect("a probe opens the first stretch")
            .1
            .push((seconds as f32, requests as u32));
        self.unprobed_s += seconds;
        if self.unprobed_s >= PROBE_EVERY_S {
            self.probe(1);
        }
    }

    /// The factor that scales a time measured when `at` probes had been
    /// taken to the nominal host: the nominal probe time over the
    /// median of the `window` probes on either side.
    fn speed(&self, at: usize, window: usize) -> f64 {
        let low = at.saturating_sub(window);
        let high = (at + window).min(self.probes_s.len());
        NOMINAL_PROBE_S / median(&self.probes_s[low..high])
    }

    /// Every call as `(seconds, requests)`, its seconds as measured or
    /// scaled to the nominal host.
    fn calls(&self, scaled: bool) -> Vec<(f64, usize)> {
        self.stretches
            .iter()
            .flat_map(|(at, calls)| {
                let speed = if scaled {
                    self.speed(*at, PROBE_WINDOW)
                } else {
                    1.0
                };
                calls
                    .iter()
                    .map(move |&(s, n)| (f64::from(s) * speed, n as usize))
            })
            .collect()
    }
}

/// Per-request latencies in ms, sorted: each request's is its call's.
fn latencies_ms(calls: &[(f64, usize)]) -> Vec<f64> {
    sorted(
        &calls
            .iter()
            .flat_map(|&(s, n)| std::iter::repeat_n(s * 1e3, n))
            .collect::<Vec<_>>(),
    )
}

/// Throughput (requests per second), p50 and p99 (ms) of calls given
/// as `(seconds, requests)`.
fn speed_figures(calls: &[(f64, usize)]) -> [f64; 3] {
    let requests: usize = calls.iter().map(|&(_, n)| n).sum();
    let seconds: f64 = calls.iter().map(|&(s, _)| s).sum();
    let latencies = latencies_ms(calls);
    [
        requests as f64 / seconds,
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.99),
    ]
}

/// The end-to-end run: [`SETUPS`] rounds of a cold start followed by
/// its share of the timed passes, with host probes around each cold
/// start and between calls. Every time is reported scaled to the
/// nominal host by the probes around it; the `#` line also gives it as
/// measured.
fn timed(workload: Workload, seed: u64, scale: &Scale, work: &Path) -> Result<RunResult, String> {
    let started = host::unix_now();
    let mut timeline = Timeline::default();
    let mut setups: Vec<(f64, usize)> = Vec::with_capacity(SETUPS);
    let mut checker: Option<Checker> = None;
    let mut timed_s = 0.0;
    let mut timed_requests = 0;
    let mut peak_rss: f64 = 0.0;
    let mut jiffies = Some((0, 0));
    for round in 0..SETUPS {
        timeline.probe(SETUP_PROBES);
        let dir = work.join(format!("setup-{round}"));
        let (prepared, seconds) = cold_start(workload, seed, scale, dir, true)?;
        setups.push((seconds, timeline.probes_s.len()));
        timeline.probe(SETUP_PROBES);
        let checker = checker
            .get_or_insert_with(|| Checker::new(&prepared.requests, workload.expected_cache()));
        let target_s = scale.seconds * (round + 1) as f64 / SETUPS as f64;
        let last = round + 1 == SETUPS;

        host::reset_peak_rss()?;
        let before = host::cpu_jiffies();
        loop {
            let answers = replay(workload, &prepared, |_, chunk, _, seconds| {
                timeline.call(seconds, chunk.len());
                timed_s += seconds;
                timed_requests += chunk.len();
                Ok(())
            })?;
            checker.check_pass(&answers);
            // With this many samples at least `min_tail` lie beyond the
            // p99, even if the p99 falls inside one call's tied samples.
            let tail_ok =
                scale.min_tail == 0 || timed_requests >= 100 * (scale.min_tail + workload.batch());
            if timed_s >= target_s && (!last || tail_ok) {
                break;
            }
        }
        timeline.probe(1);
        jiffies = host::add_jiffies(jiffies, before, host::cpu_jiffies());
        peak_rss = peak_rss.max(host::peak_rss_mib()?);
    }
    let checker = checker.expect("at least one round");

    let scaled_calls = timeline.calls(true);
    let scaled = speed_figures(&scaled_calls);
    let measured = speed_figures(&timeline.calls(false));
    let latencies = latencies_ms(&scaled_calls);
    let setup_measured: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
    let setup_scaled: Vec<f64> = setups
        .iter()
        .map(|&(s, at)| s * timeline.speed(at, SETUP_PROBES))
        .collect();
    let tally = checker.tally();
    let ok = tally.ok.max(1) as f64;
    let values = [
        scaled[0],
        scaled[1],
        scaled[2],
        peak_rss,
        tally.ok as f64 / tally.sent as f64,
        tally.reward_sum / ok,
        tally.executable as f64 / ok,
        median(&setup_scaled),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), value, unit.to_string()))
        .collect();
    let probes_ms = sorted(&timeline.probes_s)
        .iter()
        .map(|s| s * 1e3)
        .collect::<Vec<_>>();
    let notes = vec![
        format!(
            "# workload={} seed={seed} started_unix={started:.3} timed_s={timed_s:.3} \
             latency_samples={} beyond_p99={} steal_share={}",
            workload.name(),
            latencies.len(),
            beyond_p99(&latencies),
            jiffies
                .and_then(|(steal, total)| (total > 0).then(|| steal as f64 / total as f64))
                .map_or("n/a".to_string(), |s| format!("{s:.4}")),
        ),
        format!(
            "# host probes={} probe_ms_min/median/max={:.3}/{:.3}/{:.3} nominal_probe_ms={:.3} \
             measured: throughput_rps={:.5} latency_p50_ms={:.5} latency_p99_ms={:.5} setup_s={setup_measured:.3?}",
            probes_ms.len(),
            probes_ms[0],
            median(&probes_ms),
            probes_ms[probes_ms.len() - 1],
            NOMINAL_PROBE_S * 1e3,
            measured[0],
            measured[1],
            measured[2],
        ),
        format!("# payload_digest {} {}", workload.name(), checker.digest()),
    ];
    Ok(RunResult {
        correct: checker.failure_count() == 0,
        attempted: tally.sent,
        failed: tally.sent - tally.ok,
        metrics,
        notes,
        failures: checker.failures().to_vec(),
    })
}

/// Counts re-enacted lines that differ from the service's.
#[derive(Default)]
struct Fidelity {
    compared: u64,
    mismatched: u64,
    first: Option<String>,
}

impl Fidelity {
    fn compare(&mut self, service: &[String], reenacted: &[String]) {
        for (a, b) in service.iter().zip(reenacted) {
            self.compared += 1;
            if !check::same_body(a, b) {
                self.mismatched += 1;
                self.first
                    .get_or_insert_with(|| format!("service `{a}` vs re-enacted `{b}`"));
            }
        }
        if service.len() != reenacted.len() {
            self.mismatched += 1;
            self.first.get_or_insert_with(|| {
                format!(
                    "{} service answers vs {} re-enacted",
                    service.len(),
                    reenacted.len()
                )
            });
        }
    }
}

/// The mirror of `service`, built on first use.
fn mirror_of<'m>(
    mirror: &'m mut Option<Reenactor>,
    service: &CompilationService,
    config: &ServiceConfig,
) -> Result<&'m mut Reenactor, String> {
    if mirror.is_none() {
        *mirror = Some(Reenactor::new(service, config)?);
    }
    Ok(mirror.as_mut().expect("built above"))
}

/// The traced run: one cold start, the training re-enactment, then
/// passes in which each service call is followed by its re-enactment.
fn traced(workload: Workload, seed: u64, scale: &Scale, work: &Path) -> Result<RunResult, String> {
    let (prepared, _) = cold_start(workload, seed, scale, work.join("setup-0"), false)?;
    qrc_obs::profile::set_enabled(false);
    let training = train::reenact(&prepared.config);
    qrc_obs::profile::set_enabled(true);
    let training = training?;

    let config = &prepared.config;
    let mut fidelity = Fidelity::default();
    let mut mirror: Option<Reenactor> = None;
    let mut warm_s = 0.0;
    if !workload.is_miss() {
        // The warm-up pass fills the mirror's cache as it fills the
        // service's; its spans are not part of the trace.
        let mut warm_up = Recorder::new();
        replay(workload, &prepared, |service, chunk, out, seconds| {
            warm_s += seconds;
            let reenacted = mirror_of(&mut mirror, service, config)?.call(chunk, 0, &mut warm_up);
            fidelity.compare(out, &reenacted);
            Ok(())
        })?;
    }

    let mut checker = Checker::new(&prepared.requests, workload.expected_cache());
    let mut rec = Recorder::new();
    let mut service_s = 0.0;
    let mut requests = 0u32;
    let mut passes = 0usize;
    let traced_start = Instant::now();
    loop {
        if workload.is_miss() {
            // A fresh service per pass, so a fresh mirror.
            mirror = None;
        }
        let answers = replay(workload, &prepared, |service, chunk, out, seconds| {
            service_s += seconds;
            let reenacted =
                mirror_of(&mut mirror, service, config)?.call(chunk, requests, &mut rec);
            requests += chunk.len() as u32;
            fidelity.compare(out, &reenacted);
            Ok(())
        })?;
        passes += 1;
        checker.check_pass(&answers);
        // The requested seconds count the service's calls only, not
        // their re-enactments.
        if service_s >= scale.seconds {
            break;
        }
    }
    let traced_s = traced_start.elapsed().as_secs_f64();

    let names = reenact::layer_names();
    let spans = rec.spans();
    let per_id = reenact::self_times(spans, names.len() + 1);
    let n = f64::from(requests.max(1));
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut layers_ns = 0u64;
    for (name, &(self_ns, calls)) in names.iter().zip(&per_id[1..]) {
        layers_ns += self_ns;
        values.push((format!("{name}.self_us_per_req"), self_ns as f64 / 1e3 / n));
        values.push((format!("{name}.calls_per_req"), calls as f64 / n));
    }
    for (layer, mean) in rec.ops_delta() {
        values.push((format!("{layer}.ops_delta"), mean));
    }
    let calls_ns: u64 = spans
        .iter()
        .filter(|s| s.name == reenact::CALL)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let service_ns = service_s * 1e9;
    let (layers_ns, calls_ns) = (layers_ns as f64, calls_ns.max(1) as f64);
    values.extend([
        ("cache.hit_ratio".to_string(), rec.hit_ratio()),
        // The one figure that spans two executions: the service's calls
        // minus the re-enactment's layers. It can come out negative.
        (
            "service.overhead.self_us_per_req".to_string(),
            (service_ns - layers_ns) / 1e3 / n,
        ),
        ("train.ppo_s".to_string(), training.ppo_s),
        ("train.env_s".to_string(), training.env_s),
        ("train.env_steps".to_string(), training.env_steps as f64),
        ("setup.warm_s".to_string(), warm_s),
        (
            "trace.overhead_frac".to_string(),
            (calls_ns - service_ns) / service_ns.max(1.0),
        ),
        ("trace.coverage_frac".to_string(), layers_ns / calls_ns),
    ]);
    let metrics = per_layer_table()
        .into_iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("per-layer metric {name} was not computed"))?;
            Ok((name, value, unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let first_pass = prepared.lines.len() as u32;
    let spans_path = write_spans(work, workload, seed, spans, first_pass, &names)?;
    let mut failures = checker.failures().to_vec();
    if let Some(first) = &fidelity.first {
        failures.push(format!(
            "{} of {} re-enacted answers differ from the service; first: {first}",
            fidelity.mismatched, fidelity.compared
        ));
    }
    let tally = checker.tally();
    let notes = vec![
        format!(
            "# workload={} seed={seed} trace=1 passes={passes} requests={requests} traced_s={traced_s:.3} \
             reenacted={} mismatched={} spans={} span_file={}",
            workload.name(),
            fidelity.compared,
            fidelity.mismatched,
            spans.len(),
            spans_path.display(),
        ),
        format!(
            "# across executions: service_us_per_req={:.3} reenacted_layers_us_per_req={:.3} \
             layers/service={:.4}",
            service_ns / 1e3 / n,
            layers_ns / 1e3 / n,
            layers_ns / service_ns.max(1.0),
        ),
        format!("# payload_digest {} {}", workload.name(), checker.digest()),
    ];
    Ok(RunResult {
        correct: checker.failure_count() == 0 && fidelity.mismatched == 0,
        attempted: tally.sent,
        failed: tally.sent - tally.ok,
        metrics,
        notes,
        failures,
    })
}

/// Writes the spans of the first traced pass (requests below
/// `first_pass`) as NDJSON beside the work dir and returns the path.
fn write_spans(
    work: &Path,
    workload: Workload,
    seed: u64,
    spans: &[reenact::Span],
    first_pass: u32,
    names: &[String],
) -> Result<PathBuf, String> {
    let dir = work.parent().unwrap_or(work);
    let path = dir.join(format!("spans-{}-seed{seed}.ndjson", workload.name()));
    let mut text = String::new();
    for span in spans.iter().filter(|span| span.request < first_pass) {
        let name = match span.name {
            reenact::CALL => "call",
            id => names[usize::from(id) - 1].as_str(),
        };
        let parent = if span.parent == u32::MAX {
            Value::Null
        } else {
            Value::from(span.parent)
        };
        text.push_str(&serde_json::to_string(&Value::object(vec![
            ("name", Value::from(name)),
            ("start_ns", Value::from(span.start_ns)),
            ("end_ns", Value::from(span.end_ns)),
            ("parent", parent),
            ("request", Value::from(span.request)),
        ])));
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
