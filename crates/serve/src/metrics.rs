//! Per-request and aggregate service metrics: request/error counters,
//! request-level cache outcomes, per-shard routing counters, latency
//! and per-stage duration histograms, and Prometheus text exposition.
//!
//! Latency and stage durations are recorded into log-bucketed
//! [`qrc_obs::AtomicHistogram`]s — constant memory (~15 KiB per
//! histogram) over the full service lifetime, wait-free recording, and
//! quantiles with bounded relative error
//! ([`qrc_obs::HISTOGRAM_RELATIVE_ERROR`], ≈ 3.2%). This replaces the
//! earlier 65k-sample ring that cloned the whole window under a lock
//! on every stats request.
//!
//! The stage histograms decompose a request's wall-clock into the
//! pipeline's phases (see [`Stage`]); the per-pass and per-tick
//! compute histograms live in the process-global
//! [`qrc_obs::profile`] because they are recorded from rayon worker
//! threads, and are folded into the Prometheus rendering here.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde_json::Value;

use qrc_obs::{AtomicHistogram, Histogram, PromText};

use crate::cache::CacheStats;
use crate::protocol::CacheStatus;
use crate::shard::{RouteLevel, ShardKey, ShardRoute};

/// Latency percentile over unsorted microsecond samples (nearest-rank;
/// 0 on empty input). `q` is in `[0, 1]`.
///
/// Uses `select_nth_unstable` (introselect) instead of a full sort.
/// Live metrics now use histograms; this exact-selection helper
/// remains for benchmark reports and as the oracle histogram quantiles
/// are tested against.
pub fn percentile_us(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut scratch = samples.to_vec();
    let rank = ((q.clamp(0.0, 1.0) * scratch.len() as f64).ceil() as usize).max(1);
    let (_, nth, _) = scratch.select_nth_unstable(rank - 1);
    *nth
}

/// The instrumented phases of a request's journey through the service.
///
/// `QueueWait` through `Compute` are disjoint slices of one request's
/// wall-clock; `BatchAssembly` is per *batch* (the scheduler's wait for
/// stragglers after the first request of a batch arrived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Time between arrival and being drained from the bounded queue.
    QueueWait,
    /// JSON line parsing in the service front end.
    Parse,
    /// Scheduler admission: QASM parse, structural hash, cache lookup.
    Admission,
    /// The queue's wait for additional requests after the first of a
    /// batch arrived (per batch, not per request).
    BatchAssembly,
    /// Policy rollout compute for a cache miss (per unique job).
    Compute,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::QueueWait,
        Stage::Parse,
        Stage::Admission,
        Stage::BatchAssembly,
        Stage::Compute,
    ];

    /// Stable label used in Prometheus series and the stats JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Parse => "parse",
            Stage::Admission => "admission",
            Stage::BatchAssembly => "batch_assembly",
            Stage::Compute => "compute",
        }
    }
}

/// Per-shard routing counters: how many requests a shard answered and
/// how each was served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Requests routed to this shard.
    pub routed: u64,
    /// Of those, answered from the result cache.
    pub hits: u64,
    /// Of those, computed by a fresh policy rollout.
    pub misses: u64,
    /// Of those, coalesced onto an identical in-batch job.
    pub coalesced: u64,
    /// Of those, answered with an error after routing (e.g. an
    /// infeasible device pin).
    pub errors: u64,
}

/// One shard's counters paired with its name, for snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCounterSnapshot {
    /// Canonical shard name (`objective/device-class/width-band`).
    pub shard: String,
    /// The counters.
    pub counters: ShardCounters,
}

/// How many requests resolved at each step of the routing fallback
/// chain (exact → band-wildcard → device-wildcard → objective-only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCounts {
    /// Matched the exact `(objective, device class, width band)` shard.
    pub exact: u64,
    /// Fell back to the shard with the wildcard width band.
    pub band_wildcard: u64,
    /// Fell back to the shard with the wildcard device class.
    pub device_wildcard: u64,
    /// Fell back to the objective-only wildcard shard.
    pub objective_only: u64,
}

impl RouteCounts {
    /// The count for one fallback level.
    pub fn of(&self, level: RouteLevel) -> u64 {
        match level {
            RouteLevel::Exact => self.exact,
            RouteLevel::BandWildcard => self.band_wildcard,
            RouteLevel::DeviceWildcard => self.device_wildcard,
            RouteLevel::ObjectiveOnly => self.objective_only,
        }
    }

    fn slot(&mut self, level: RouteLevel) -> &mut u64 {
        match level {
            RouteLevel::Exact => &mut self.exact,
            RouteLevel::BandWildcard => &mut self.band_wildcard,
            RouteLevel::DeviceWildcard => &mut self.device_wildcard,
            RouteLevel::ObjectiveOnly => &mut self.objective_only,
        }
    }

    /// Renders the counts as a JSON object keyed by level name.
    pub fn to_value(&self) -> Value {
        Value::object(
            RouteLevel::ALL
                .into_iter()
                .map(|level| (level.name(), Value::from(self.of(level))))
                .collect(),
        )
    }
}

/// Live metric accumulators, shared across worker threads.
pub struct ServeMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    hit_responses: AtomicU64,
    miss_responses: AtomicU64,
    coalesced_responses: AtomicU64,
    latency: AtomicHistogram,
    stages: [AtomicHistogram; Stage::ALL.len()],
    routing: Mutex<Routing>,
    started: Instant,
    started_epoch_secs: u64,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            hit_responses: AtomicU64::new(0),
            miss_responses: AtomicU64::new(0),
            coalesced_responses: AtomicU64::new(0),
            latency: AtomicHistogram::new(),
            stages: std::array::from_fn(|_| AtomicHistogram::new()),
            routing: Mutex::new(Routing::default()),
            started: Instant::now(),
            started_epoch_secs: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }
}

/// Routing accumulators (one lock: routed requests update one shard's
/// counters plus one level counter together).
#[derive(Default)]
struct Routing {
    per_shard: HashMap<ShardKey, ShardCounters>,
    levels: RouteCounts,
}

impl ServeMetrics {
    /// A fresh, zeroed accumulator (uptime starts now).
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Records one finished request: its wall-clock, how it was served
    /// (`None` = error response), and — when it got far enough to be
    /// routed — which shard answered it and at which fallback level.
    pub fn record(&self, micros: u64, status: Option<CacheStatus>, route: Option<&ShardRoute>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match status {
            None => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            Some(CacheStatus::Hit) => {
                self.hit_responses.fetch_add(1, Ordering::Relaxed);
            }
            Some(CacheStatus::Miss) => {
                self.miss_responses.fetch_add(1, Ordering::Relaxed);
            }
            Some(CacheStatus::Coalesced) => {
                self.coalesced_responses.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(route) = route {
            let mut routing = self.routing.lock().expect("metrics lock poisoned");
            let counters = routing.per_shard.entry(route.shard).or_default();
            counters.routed += 1;
            match status {
                None => counters.errors += 1,
                Some(CacheStatus::Hit) => counters.hits += 1,
                Some(CacheStatus::Miss) => counters.misses += 1,
                Some(CacheStatus::Coalesced) => counters.coalesced += 1,
            }
            *routing.levels.slot(route.level) += 1;
        }
        self.latency.record(micros);
    }

    /// Records one observation of a pipeline stage's duration.
    pub fn record_stage(&self, stage: Stage, micros: u64) {
        let slot = Stage::ALL
            .iter()
            .position(|s| *s == stage)
            .expect("stage is in ALL");
        self.stages[slot].record(micros);
    }

    /// A point-in-time copy of one stage's histogram.
    pub fn stage_histogram(&self, stage: Stage) -> Histogram {
        let slot = Stage::ALL
            .iter()
            .position(|s| *s == stage)
            .expect("stage is in ALL");
        self.stages[slot].snapshot()
    }

    /// Records one back-pressure rejection (queue full). Rejections
    /// never reach the scheduler, so they are counted apart from
    /// `requests`/`errors` and excluded from the latency histogram — a
    /// flood of instant rejections must not drag p50 toward zero.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Seconds since this accumulator was created (service start).
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Microseconds since service start — the zero point of the trace
    /// timeline, so span timestamps from different threads share one
    /// monotonic epoch.
    pub fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// A consistent snapshot combined with the cache's counters.
    pub fn snapshot(&self, cache: CacheStats) -> MetricsSnapshot {
        let latency = self.latency.snapshot();
        let (shards, routes) = {
            let routing = self.routing.lock().expect("metrics lock poisoned");
            let mut shards: Vec<ShardCounterSnapshot> = routing
                .per_shard
                .iter()
                .map(|(key, counters)| ShardCounterSnapshot {
                    shard: key.name(),
                    counters: *counters,
                })
                .collect();
            shards.sort_by(|a, b| a.shard.cmp(&b.shard));
            (shards, routing.levels)
        };
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            hit_responses: self.hit_responses.load(Ordering::Relaxed),
            miss_responses: self.miss_responses.load(Ordering::Relaxed),
            coalesced_responses: self.coalesced_responses.load(Ordering::Relaxed),
            cache,
            shards,
            routes,
            p50_us: latency.quantile(0.50),
            p99_us: latency.quantile(0.99),
            p999_us: latency.quantile(0.999),
            min_us: latency.min(),
            max_us: latency.max(),
            mean_us: latency.mean(),
            uptime_secs: self.uptime_secs(),
            started_epoch_secs: self.started_epoch_secs,
        }
    }

    /// Renders every counter and histogram as a Prometheus text-format
    /// (0.0.4) document: service counters, cache and shard-routing
    /// counters, the end-to-end latency histogram, per-stage duration
    /// histograms, and the global profiler's per-pass / per-tick /
    /// per-section compute histograms. `queue_depth` is the live
    /// bounded-queue occupancy when a front end exposes one.
    pub fn render_prometheus(&self, cache: &CacheStats, queue_depth: Option<u64>) -> String {
        let bounds = qrc_obs::power_of_two_bounds(26);
        let mut p = PromText::new();

        p.header(
            "qrc_uptime_seconds",
            "gauge",
            "Seconds since service start.",
        );
        p.sample_f64("qrc_uptime_seconds", &[], self.uptime_secs());
        p.header(
            "qrc_start_time_seconds",
            "gauge",
            "Unix timestamp of service start.",
        );
        p.sample_u64("qrc_start_time_seconds", &[], self.started_epoch_secs);
        if let Some(depth) = queue_depth {
            p.header(
                "qrc_queue_depth",
                "gauge",
                "Requests currently waiting in the bounded queue.",
            );
            p.sample_u64("qrc_queue_depth", &[], depth);
        }

        p.header("qrc_requests_total", "counter", "Requests answered.");
        p.sample_u64(
            "qrc_requests_total",
            &[],
            self.requests.load(Ordering::Relaxed),
        );
        p.header(
            "qrc_errors_total",
            "counter",
            "Requests answered with ok=false.",
        );
        p.sample_u64("qrc_errors_total", &[], self.errors.load(Ordering::Relaxed));
        p.header(
            "qrc_rejected_total",
            "counter",
            "Requests rejected by queue back-pressure.",
        );
        p.sample_u64(
            "qrc_rejected_total",
            &[],
            self.rejected.load(Ordering::Relaxed),
        );

        p.header(
            "qrc_responses_total",
            "counter",
            "Requests answered, by cache outcome.",
        );
        for (outcome, counter) in [
            ("hit", &self.hit_responses),
            ("miss", &self.miss_responses),
            ("coalesced", &self.coalesced_responses),
        ] {
            p.sample_u64(
                "qrc_responses_total",
                &[("cache", outcome)],
                counter.load(Ordering::Relaxed),
            );
        }

        p.header(
            "qrc_cache_lookups_total",
            "counter",
            "Unique store lookups, by result.",
        );
        p.sample_u64("qrc_cache_lookups_total", &[("result", "hit")], cache.hits);
        p.sample_u64(
            "qrc_cache_lookups_total",
            &[("result", "miss")],
            cache.misses,
        );
        p.header(
            "qrc_cache_warm_hits_total",
            "counter",
            "Cache hits served from warmup-restored entries.",
        );
        p.sample_u64("qrc_cache_warm_hits_total", &[], cache.warm_hits);
        p.header("qrc_cache_insertions_total", "counter", "Cache insertions.");
        p.sample_u64("qrc_cache_insertions_total", &[], cache.insertions);
        p.header("qrc_cache_evictions_total", "counter", "Cache evictions.");
        p.sample_u64("qrc_cache_evictions_total", &[], cache.evictions);

        let (shards, routes) = {
            let routing = self.routing.lock().expect("metrics lock poisoned");
            let mut shards: Vec<(String, ShardCounters)> = routing
                .per_shard
                .iter()
                .map(|(key, counters)| (key.name(), *counters))
                .collect();
            shards.sort_by(|a, b| a.0.cmp(&b.0));
            (shards, routing.levels)
        };
        p.header(
            "qrc_shard_requests_total",
            "counter",
            "Requests routed, by serving shard and outcome.",
        );
        for (name, counters) in &shards {
            for (outcome, count) in [
                ("hit", counters.hits),
                ("miss", counters.misses),
                ("coalesced", counters.coalesced),
                ("error", counters.errors),
            ] {
                p.sample_u64(
                    "qrc_shard_requests_total",
                    &[("shard", name.as_str()), ("outcome", outcome)],
                    count,
                );
            }
        }
        p.header(
            "qrc_route_level_total",
            "counter",
            "Requests resolved per routing fallback level.",
        );
        for level in RouteLevel::ALL {
            p.sample_u64(
                "qrc_route_level_total",
                &[("level", level.name())],
                routes.of(level),
            );
        }

        p.header(
            "qrc_request_duration_microseconds",
            "histogram",
            "End-to-end request latency.",
        );
        p.histogram(
            "qrc_request_duration_microseconds",
            &[],
            &self.latency.snapshot(),
            &bounds,
        );

        p.header(
            "qrc_stage_duration_microseconds",
            "histogram",
            "Pipeline stage durations (queue_wait, parse, admission, batch_assembly, compute).",
        );
        for (slot, stage) in Stage::ALL.iter().enumerate() {
            p.histogram(
                "qrc_stage_duration_microseconds",
                &[("stage", stage.name())],
                &self.stages[slot].snapshot(),
                &bounds,
            );
        }

        let profile = qrc_obs::profile::snapshot();
        p.header(
            "qrc_tick_duration_microseconds",
            "histogram",
            "Per-rollout-tick policy inference time.",
        );
        p.histogram(
            "qrc_tick_duration_microseconds",
            &[],
            &profile.ticks,
            &bounds,
        );
        p.header(
            "qrc_pass_duration_microseconds",
            "histogram",
            "Compilation pass apply time, by pass name.",
        );
        for (name, hist) in &profile.passes {
            p.histogram(
                "qrc_pass_duration_microseconds",
                &[("pass", name.as_str())],
                hist,
                &bounds,
            );
        }
        p.header(
            "qrc_section_duration_microseconds",
            "histogram",
            "Rollout compute sections (mask, observation, apply, reward).",
        );
        for (name, hist) in &profile.sections {
            p.histogram(
                "qrc_section_duration_microseconds",
                &[("section", name.as_str())],
                hist,
                &bounds,
            );
        }

        p.finish()
    }
}

/// A point-in-time view of the service's aggregate behavior.
///
/// Two layers of cache accounting coexist deliberately: `cache.*`
/// counts *unique lookups* against the store (duplicates coalesced
/// within a batch never reach it), while `*_responses` count how each
/// *request* was answered — the same split a client sees in the
/// per-response `cache` field.
///
/// Latency quantiles come from the lifetime log-bucketed histogram:
/// `min`/`max`/`mean` are exact, quantiles carry the histogram's
/// bounded relative error (≈ 3.2% high).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests answered since start.
    pub requests: u64,
    /// Requests answered with `ok: false`.
    pub errors: u64,
    /// Requests rejected by queue back-pressure before scheduling
    /// (not included in `requests`).
    pub rejected: u64,
    /// Requests answered `"cache":"hit"`.
    pub hit_responses: u64,
    /// Requests answered `"cache":"miss"`.
    pub miss_responses: u64,
    /// Requests answered `"cache":"coalesced"`.
    pub coalesced_responses: u64,
    /// Store-level counters (unique lookups, insertions, evictions).
    pub cache: CacheStats,
    /// Per-shard routing counters, sorted by shard name.
    pub shards: Vec<ShardCounterSnapshot>,
    /// Requests per routing fallback level.
    pub routes: RouteCounts,
    /// Median latency (microseconds, bounded relative error).
    pub p50_us: u64,
    /// 99th-percentile latency (microseconds, bounded relative error).
    pub p99_us: u64,
    /// 99.9th-percentile latency (microseconds, bounded relative
    /// error).
    pub p999_us: u64,
    /// Exact minimum request latency (microseconds).
    pub min_us: u64,
    /// Exact maximum request latency (microseconds).
    pub max_us: u64,
    /// Mean per-request latency over the full lifetime (microseconds).
    pub mean_us: f64,
    /// Seconds since service start.
    pub uptime_secs: f64,
    /// Unix timestamp of service start (seconds).
    pub started_epoch_secs: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object (the `--stats` output of
    /// the `qrc-serve` binary).
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("requests", Value::from(self.requests)),
            ("errors", Value::from(self.errors)),
            ("rejected", Value::from(self.rejected)),
            ("uptime_secs", Value::from(self.uptime_secs)),
            ("started_epoch_secs", Value::from(self.started_epoch_secs)),
            (
                "responses",
                Value::object(vec![
                    ("hit", Value::from(self.hit_responses)),
                    ("miss", Value::from(self.miss_responses)),
                    ("coalesced", Value::from(self.coalesced_responses)),
                ]),
            ),
            (
                "cache",
                Value::object(vec![
                    ("hits", Value::from(self.cache.hits)),
                    ("warm_hits", Value::from(self.cache.warm_hits)),
                    ("cold_hits", Value::from(self.cache.cold_hits())),
                    ("misses", Value::from(self.cache.misses)),
                    ("insertions", Value::from(self.cache.insertions)),
                    ("evictions", Value::from(self.cache.evictions)),
                    ("hit_rate", Value::from(self.cache.hit_rate())),
                ]),
            ),
            (
                "shards",
                Value::object(
                    self.shards
                        .iter()
                        .map(|s| {
                            (
                                s.shard.clone(),
                                Value::object(vec![
                                    ("routed", Value::from(s.counters.routed)),
                                    ("hit", Value::from(s.counters.hits)),
                                    ("miss", Value::from(s.counters.misses)),
                                    ("coalesced", Value::from(s.counters.coalesced)),
                                    ("errors", Value::from(s.counters.errors)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("routes", self.routes.to_value()),
            (
                "latency_us",
                Value::object(vec![
                    ("p50", Value::from(self.p50_us)),
                    ("p99", Value::from(self.p99_us)),
                    ("p999", Value::from(self.p999_us)),
                    ("min", Value::from(self.min_us)),
                    ("max", Value::from(self.max_us)),
                    ("mean", Value::from(self.mean_us)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrc_obs::HISTOGRAM_RELATIVE_ERROR;

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&xs, 0.50), 50);
        assert_eq!(percentile_us(&xs, 0.99), 99);
        assert_eq!(percentile_us(&xs, 1.0), 100);
        assert_eq!(percentile_us(&xs, 0.0), 1);
        assert_eq!(percentile_us(&[], 0.5), 0);
        assert_eq!(percentile_us(&[7], 0.99), 7);
        // Unsorted input is handled.
        assert_eq!(percentile_us(&[30, 10, 20], 0.5), 20);
    }

    #[test]
    fn percentile_selection_matches_sort_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(42);
        for len in [1usize, 2, 3, 10, 257, 1024] {
            let samples: Vec<u64> = (0..len).map(|_| rng.gen_range(0..10_000)).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * len as f64).ceil() as usize).max(1);
                assert_eq!(
                    percentile_us(&samples, q),
                    sorted[rank - 1],
                    "len {len}, q {q}"
                );
            }
        }
    }

    #[test]
    fn snapshot_aggregates() {
        let m = ServeMetrics::new();
        m.record(100, Some(CacheStatus::Miss), None);
        m.record(200, Some(CacheStatus::Hit), None);
        m.record(300, None, None);
        let snap = m.snapshot(CacheStats {
            hits: 1,
            warm_hits: 1,
            misses: 2,
            insertions: 2,
            evictions: 0,
        });
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.hit_responses, 1);
        assert_eq!(snap.miss_responses, 1);
        assert_eq!(snap.coalesced_responses, 0);
        // Histogram quantiles overshoot by at most the bucket width.
        assert!(snap.p50_us >= 200);
        assert!((snap.p50_us as f64) <= 200.0 * (1.0 + HISTOGRAM_RELATIVE_ERROR));
        assert_eq!(snap.min_us, 100, "min is exact");
        assert_eq!(snap.max_us, 300, "max is exact");
        assert_eq!(snap.p999_us, 300, "p999 clamps to the exact max");
        assert!((snap.mean_us - 200.0).abs() < 1e-9);
        assert!(snap.uptime_secs >= 0.0);
        assert!(snap.started_epoch_secs > 0);
        let text = serde_json::to_string(&snap.to_value());
        assert!(text.contains("\"hit_rate\""), "{text}");
        assert!(text.contains("\"warm_hits\":1"), "{text}");
        assert!(text.contains("\"cold_hits\":0"), "{text}");
        assert!(text.contains("\"responses\""), "{text}");
        assert!(text.contains("\"p99\""), "{text}");
        assert!(text.contains("\"p999\""), "{text}");
        assert!(text.contains("\"min\""), "{text}");
        assert!(text.contains("\"max\""), "{text}");
        assert!(text.contains("\"uptime_secs\""), "{text}");
        assert!(text.contains("\"started_epoch_secs\""), "{text}");
    }

    #[test]
    fn per_shard_and_route_counters_accumulate() {
        use qrc_predictor::RewardKind;

        let m = ServeMetrics::new();
        let wildcard = ShardKey::wildcard(RewardKind::ExpectedFidelity);
        let narrow = ShardKey {
            width_band: crate::shard::WidthBand::Narrow,
            ..wildcard
        };
        let exact = ShardRoute {
            shard: narrow,
            level: RouteLevel::Exact,
        };
        let fallback = ShardRoute {
            shard: wildcard,
            level: RouteLevel::ObjectiveOnly,
        };
        m.record(10, Some(CacheStatus::Miss), Some(&exact));
        m.record(5, Some(CacheStatus::Hit), Some(&exact));
        m.record(7, Some(CacheStatus::Coalesced), Some(&exact));
        m.record(9, None, Some(&fallback));
        m.record(3, None, None); // parse error: never routed

        let snap = m.snapshot(CacheStats::default());
        assert_eq!(snap.shards.len(), 2);
        let by_name = |name: &str| {
            snap.shards
                .iter()
                .find(|s| s.shard == name)
                .unwrap_or_else(|| panic!("no counters for {name}"))
                .counters
        };
        let narrow_counters = by_name("fidelity/any/narrow");
        assert_eq!(narrow_counters.routed, 3);
        assert_eq!(narrow_counters.misses, 1);
        assert_eq!(narrow_counters.hits, 1);
        assert_eq!(narrow_counters.coalesced, 1);
        assert_eq!(narrow_counters.errors, 0);
        let wildcard_counters = by_name("fidelity/any/any");
        assert_eq!(wildcard_counters.routed, 1);
        assert_eq!(wildcard_counters.errors, 1);
        assert_eq!(snap.routes.exact, 3);
        assert_eq!(snap.routes.objective_only, 1);
        assert_eq!(snap.routes.band_wildcard + snap.routes.device_wildcard, 0);
        // Routed totals never exceed requests (the parse error is
        // counted in requests but routed nowhere).
        let routed: u64 = snap.shards.iter().map(|s| s.counters.routed).sum();
        assert_eq!(routed, 4);
        assert_eq!(snap.requests, 5);

        let text = serde_json::to_string(&snap.to_value());
        assert!(text.contains("\"fidelity/any/narrow\""), "{text}");
        assert!(text.contains("\"routes\""), "{text}");
        assert!(text.contains("\"objective_only\""), "{text}");
    }

    #[test]
    fn rejections_are_counted_apart_from_requests_and_errors() {
        let m = ServeMetrics::new();
        m.record(50, Some(CacheStatus::Miss), None);
        m.record(10, None, None);
        m.record_rejected();
        m.record_rejected();
        let snap = m.snapshot(CacheStats::default());
        assert_eq!(snap.rejected, 2);
        assert_eq!(snap.requests, 2, "rejections are not requests");
        assert_eq!(snap.errors, 1, "rejections are not parse errors");
        // Rejections stay out of the latency histogram: the median
        // sits on the two recorded samples (10, 50), not dragged to 0
        // (values below 2^5 land in exact single-value buckets).
        assert_eq!(snap.p50_us, 10);
        assert_eq!(snap.p99_us, 50);
        let text = serde_json::to_string(&snap.to_value());
        assert!(text.contains("\"rejected\""), "{text}");
    }

    #[test]
    fn latency_histogram_holds_lifetime_quantiles_in_bounded_memory() {
        let m = ServeMetrics::new();
        // Far more samples than the old 65k ring could hold: the
        // histogram's memory is fixed by its bucket count, and the
        // quantiles still cover the whole lifetime within the error
        // bound.
        let total = 200_000u64;
        for i in 1..=total {
            m.record(i, Some(CacheStatus::Miss), None);
        }
        let snap = m.snapshot(CacheStats::default());
        assert_eq!(snap.requests, total);
        assert_eq!(snap.min_us, 1);
        assert_eq!(snap.max_us, total);
        for (q, exact) in [(snap.p50_us, total / 2), (snap.p99_us, total * 99 / 100)] {
            assert!(q >= exact, "{q} < {exact}");
            assert!((q as f64) <= exact as f64 * (1.0 + HISTOGRAM_RELATIVE_ERROR));
        }
        assert!((snap.mean_us - (total + 1) as f64 / 2.0).abs() < 1.0);
    }

    #[test]
    fn stage_histograms_record_and_render() {
        let m = ServeMetrics::new();
        m.record_stage(Stage::QueueWait, 12);
        m.record_stage(Stage::Parse, 3);
        m.record_stage(Stage::Admission, 40);
        m.record_stage(Stage::BatchAssembly, 900);
        m.record_stage(Stage::Compute, 1500);
        m.record_stage(Stage::Compute, 2500);
        let compute = m.stage_histogram(Stage::Compute);
        assert_eq!(compute.count(), 2);
        assert_eq!(compute.sum(), 4000);
        assert_eq!(m.stage_histogram(Stage::Parse).max(), 3);

        m.record(100, Some(CacheStatus::Miss), None);
        let text = m.render_prometheus(&CacheStats::default(), Some(7));
        for series in [
            "qrc_requests_total 1",
            "qrc_responses_total{cache=\"miss\"} 1",
            "qrc_stage_duration_microseconds_bucket{stage=\"queue_wait\",le=\"16\"} 1",
            "qrc_stage_duration_microseconds_sum{stage=\"compute\"} 4000",
            "qrc_stage_duration_microseconds_count{stage=\"batch_assembly\"} 1",
            "qrc_request_duration_microseconds_count 1",
            "qrc_queue_depth 7",
            "qrc_uptime_seconds",
            "qrc_start_time_seconds",
            "qrc_tick_duration_microseconds",
            "qrc_pass_duration_microseconds",
            "qrc_route_level_total{level=\"exact\"} 0",
            "# TYPE qrc_stage_duration_microseconds histogram",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
        // Without a queue probe the gauge is absent entirely.
        let without = m.render_prometheus(&CacheStats::default(), None);
        assert!(!without.contains("qrc_queue_depth"));
    }
}
