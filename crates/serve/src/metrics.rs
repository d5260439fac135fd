//! Per-request and aggregate service metrics, and [`METRICS`], the one
//! table every exported counter and gauge is declared in.
//!
//! Each row of the table names a Prometheus family (name, type, help,
//! label), the key path of its values in the stats JSON, the item it
//! reads (a node, a serving shard, the fleet router or one replica
//! behind it) and how a fleet merges it. A node's `{"cmd":"stats"}`
//! reply and Prometheus exposition, `qrc-lb`'s merged reply and its own
//! series, and the per-shard block of `BENCH_serve.json` are all
//! rendered from the table; a fleet reads its replicas' replies back
//! through it.
//!
//! Latency and stage durations are recorded into log-bucketed
//! [`qrc_obs::AtomicHistogram`]s — constant memory (~15 KiB per
//! histogram) over the full service lifetime, wait-free recording, and
//! quantiles with bounded relative error
//! ([`qrc_obs::HISTOGRAM_RELATIVE_ERROR`], ≈ 3.2%).
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
    /// Every stage, in pipeline order (the order of the variants, so a
    /// stage's position is `stage as usize`).
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

/// Per-shard routing counters: how each request a shard answered was
/// served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Requests answered from the result cache.
    pub hits: u64,
    /// Requests computed by a fresh policy rollout.
    pub misses: u64,
    /// Requests coalesced onto an identical in-batch job.
    pub coalesced: u64,
    /// Requests answered with an error after routing (e.g. an
    /// infeasible device pin).
    pub errors: u64,
}

impl ShardCounters {
    /// Requests routed to this shard: every outcome together.
    pub fn routed(&self) -> u64 {
        self.hits + self.misses + self.coalesced + self.errors
    }

    /// The counter of one outcome, in [`OUTCOMES`] order: a cache
    /// status by its position, then errors.
    fn slot(&mut self, outcome: usize) -> &mut u64 {
        [
            &mut self.hits,
            &mut self.misses,
            &mut self.coalesced,
            &mut self.errors,
        ][outcome]
    }
}

/// One shard's counters paired with its name, for snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCounterSnapshot {
    /// Canonical shard name (`objective/device-class/width-band`).
    pub shard: String,
    /// The counters.
    pub counters: ShardCounters,
}

impl ShardCounterSnapshot {
    /// The shard's name under `shard`, then its counters keyed as in
    /// the stats JSON: one row of `BENCH_serve.json`'s per-shard block.
    pub fn to_value(&self) -> Value {
        let mut snapshot = MetricsSnapshot {
            shards: vec![self.clone()],
            ..MetricsSnapshot::default()
        };
        let mut value = Value::object(vec![("shard", Value::from(self.shard.clone()))]);
        write_item(&mut snapshot, Scope::Shard, 0, &[], &mut value);
        value
    }
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
    /// The counter of one level (`RouteLevel` declares its variants in
    /// field order).
    fn slot(&mut self, level: RouteLevel) -> &mut u64 {
        let counts = [
            &mut self.exact,
            &mut self.band_wildcard,
            &mut self.device_wildcard,
            &mut self.objective_only,
        ];
        counts[level as usize]
    }

    /// Renders the counts as a JSON object keyed by level name.
    pub fn to_value(&self) -> Value {
        let mut counts = *self;
        Value::object(
            RouteLevel::ALL
                .into_iter()
                .map(|level| (level.name(), Value::from(*counts.slot(level))))
                .collect(),
        )
    }
}

/// The fleet router's own counters, read at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Replicas in the fleet.
    pub replicas: u64,
    /// Of those, replicas on the hash ring.
    pub healthy: u64,
    /// Requests forwarded round-robin because no routing key could be
    /// extracted (the replica still answers them).
    pub round_robin: u64,
    /// Requests answered inline because no replica was healthy.
    pub unroutable: u64,
    /// `overloaded` rejections passed through from replicas.
    pub overloaded: u64,
    /// Malformed control-looking lines the router answered inline.
    pub parse_errors: u64,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: u64,
}

/// One replica as the fleet router sees it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// The replica's address (`host:port`).
    pub addr: String,
    /// Whether the replica is on the hash ring.
    pub healthy: bool,
    /// Requests written to the replica.
    pub routed: u64,
    /// Responses received from it and delivered to clients.
    pub completed: u64,
    /// Requests taken back from its window at ejection and re-routed.
    pub rerouted: u64,
    /// Times it was ejected from the ring.
    pub ejections: u64,
}

/// Live metric accumulators, shared across worker threads.
pub struct ServeMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    /// Indexed by `CacheStatus as usize`.
    responses: [AtomicU64; 3],
    reloads: AtomicU64,
    calibrations: AtomicU64,
    calibration_invalidated: AtomicU64,
    warm_entries: AtomicU64,
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
            responses: std::array::from_fn(|_| AtomicU64::new(0)),
            reloads: AtomicU64::new(0),
            calibrations: AtomicU64::new(0),
            calibration_invalidated: AtomicU64::new(0),
            warm_entries: AtomicU64::new(0),
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
            None => self.errors.fetch_add(1, Ordering::Relaxed),
            Some(status) => self.responses[status as usize].fetch_add(1, Ordering::Relaxed),
        };
        if let Some(route) = route {
            let mut routing = self.routing.lock().expect("metrics lock poisoned");
            let counters = routing.per_shard.entry(route.shard).or_default();
            *counters.slot(status.map_or(OUTCOMES.len() - 1, |s| s as usize)) += 1;
            *routing.levels.slot(route.level) += 1;
        }
        self.latency.record(micros);
    }

    /// Records one observation of a pipeline stage's duration.
    pub fn record_stage(&self, stage: Stage, micros: u64) {
        self.stages[stage as usize].record(micros);
    }

    /// A point-in-time copy of one stage's histogram.
    pub fn stage_histogram(&self, stage: Stage) -> Histogram {
        self.stages[stage as usize].snapshot()
    }

    /// Records one back-pressure rejection (queue full). Rejections
    /// never reach the scheduler, so they are counted apart from
    /// `requests`/`errors` and excluded from the latency histogram — a
    /// flood of instant rejections must not drag p50 toward zero.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one registry hot-reload.
    pub fn record_reload(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one live recalibration and the cache entries it
    /// invalidated.
    pub fn record_calibration(&self, invalidated: u64) {
        self.calibrations.fetch_add(1, Ordering::Relaxed);
        self.calibration_invalidated
            .fetch_add(invalidated, Ordering::Relaxed);
    }

    /// Records how many cache entries were resident when warmup
    /// finished.
    pub fn set_warm_entries(&self, entries: u64) {
        self.warm_entries.store(entries, Ordering::Relaxed);
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

    /// A consistent snapshot combined with the cache's counters (no
    /// queue depth: the queue belongs to the front end).
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
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        MetricsSnapshot {
            requests: load(&self.requests),
            errors: load(&self.errors),
            rejected: load(&self.rejected),
            responses: self.responses.each_ref().map(load),
            cache,
            shards,
            routes,
            reloads: load(&self.reloads),
            calibrations: load(&self.calibrations),
            calibration_invalidated: load(&self.calibration_invalidated),
            warm_entries: load(&self.warm_entries),
            p50_us: latency.quantile(0.50),
            p99_us: latency.quantile(0.99),
            p999_us: latency.quantile(0.999),
            min_us: latency.min(),
            max_us: latency.max(),
            mean_us: latency.mean(),
            uptime_secs: self.uptime_secs(),
            started_epoch_secs: self.started_epoch_secs,
            ..MetricsSnapshot::default()
        }
    }

    /// Renders a Prometheus text-format (0.0.4) document: every table
    /// row of the node and its shards, the end-to-end latency
    /// histogram, per-stage duration histograms, and the global
    /// profiler's per-pass / per-tick / per-section compute histograms.
    /// `queue_depth` is the live bounded-queue occupancy when a front
    /// end exposes one.
    pub fn render_prometheus(&self, cache: &CacheStats, queue_depth: Option<u64>) -> String {
        let mut snapshot = MetricsSnapshot {
            queue_depth,
            ..self.snapshot(*cache)
        };
        let mut p = PromText::new();
        write_series(&mut p, &mut snapshot, Scope::Node);
        write_series(&mut p, &mut snapshot, Scope::Shard);

        let latency = [("", self.latency.snapshot())];
        let stages = Stage::ALL.map(|stage| (stage.name(), self.stage_histogram(stage)));
        let profile = qrc_obs::profile::snapshot();
        let ticks = [("", profile.ticks)];
        fn named<N: AsRef<str>>(hists: &[(N, Histogram)]) -> Vec<(&str, &Histogram)> {
            hists.iter().map(|(name, h)| (name.as_ref(), h)).collect()
        }
        // Duration histograms: name, help, the label splitting the
        // family, and each histogram with its label value.
        let histograms = [
            (
                "qrc_request_duration_microseconds",
                "End-to-end request latency.",
                None,
                named(&latency),
            ),
            (
                "qrc_stage_duration_microseconds",
                "Pipeline stage durations (queue_wait, parse, admission, batch_assembly, compute).",
                Some("stage"),
                named(&stages),
            ),
            (
                "qrc_tick_duration_microseconds",
                "Per-rollout-tick policy inference time.",
                None,
                named(&ticks),
            ),
            (
                "qrc_pass_duration_microseconds",
                "Compilation pass apply time, by pass name.",
                Some("pass"),
                named(&profile.passes),
            ),
            (
                "qrc_section_duration_microseconds",
                "Rollout compute sections (mask, observation, apply, reward).",
                Some("section"),
                named(&profile.sections),
            ),
        ];
        let bounds = qrc_obs::power_of_two_bounds(26);
        for (name, help, label, hists) in histograms {
            p.header(name, "histogram", help);
            for (value, hist) in hists {
                let labels: Vec<(&str, &str)> =
                    label.map(|label| (label, value)).into_iter().collect();
                p.histogram(name, &labels, hist, &bounds);
            }
        }
        p.finish()
    }
}

/// A point-in-time view of a node's aggregate behavior, or of a fleet's:
/// its replicas' merged, with the router's own counters.
///
/// Two layers of cache accounting coexist deliberately: `cache.*`
/// counts *unique lookups* against the store (duplicates coalesced
/// within a batch never reach it), while `responses` count how each
/// *request* was answered — the same split a client sees in the
/// per-response `cache` field.
///
/// Latency quantiles come from the lifetime log-bucketed histogram:
/// `min`/`max`/`mean` are exact, quantiles carry the histogram's
/// bounded relative error (≈ 3.2% high). A fleet's snapshot has none:
/// quantiles cannot be merged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests answered since start.
    pub requests: u64,
    /// Requests answered with `ok: false`.
    pub errors: u64,
    /// Requests rejected by queue back-pressure before scheduling
    /// (not included in `requests`).
    pub rejected: u64,
    /// Requests answered with each cache status (indexed by
    /// `CacheStatus as usize`).
    pub responses: [u64; 3],
    /// Store-level counters (unique lookups, insertions, evictions).
    pub cache: CacheStats,
    /// Per-shard routing counters, sorted by shard name.
    pub shards: Vec<ShardCounterSnapshot>,
    /// Requests per routing fallback level.
    pub routes: RouteCounts,
    /// Registry hot-reloads performed since start.
    pub reloads: u64,
    /// Live recalibrations applied since start.
    pub calibrations: u64,
    /// Cache entries invalidated by those recalibrations.
    pub calibration_invalidated: u64,
    /// Cache entries resident when warmup finished (0 = cold start).
    pub warm_entries: u64,
    /// The front end's live queue depth, when one exposes it.
    pub queue_depth: Option<u64>,
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
    /// A fleet router's own counters (zero on a node).
    pub router: RouterStats,
    /// The replicas behind a fleet router (none on a node).
    pub replicas: Vec<ReplicaStats>,
}

/// The stats key the per-shard objects sit under.
const SHARDS: &str = "shards";

/// The stats key a fleet's own block sits under.
const FLEET: &str = "fleet";

/// The stats path the per-replica objects sit under in a fleet's reply.
pub(crate) const PER_REPLICA: [&str; 2] = [FLEET, "per_replica"];

impl MetricsSnapshot {
    /// Renders the snapshot as the `{"cmd":"stats"}` JSON object (the
    /// `--stats` output of the `qrc-serve` binary): every node and
    /// shard row, then the latency quantiles.
    pub fn to_value(&self) -> Value {
        let mut value = self.table_value();
        let latency = Value::object(vec![
            ("p50", Value::from(self.p50_us)),
            ("p99", Value::from(self.p99_us)),
            ("p999", Value::from(self.p999_us)),
            ("min", Value::from(self.min_us)),
            ("max", Value::from(self.max_us)),
            ("mean", Value::from(self.mean_us)),
        ]);
        put(&mut value, &["latency_us"], latency);
        value
    }

    /// Renders every node row, then each shard's rows under `shards`.
    pub fn table_value(&self) -> Value {
        // The table reads through mutable borrows (a fleet merge writes
        // through the same accessors), so it renders a copy.
        let mut snapshot = self.clone();
        let mut value = Value::Object(Vec::new());
        write_item(&mut snapshot, Scope::Node, 0, &[], &mut value);
        let shards = item_objects(&mut snapshot, Scope::Shard);
        put(&mut value, &[SHARDS], shards);
        value
    }

    /// A fleet's stats: [`Self::table_value`], then the router's rows
    /// under `fleet` and each replica's under `fleet.per_replica`.
    pub fn fleet_value(&self) -> Value {
        let mut snapshot = self.clone();
        let mut value = self.table_value();
        let mut fleet = Value::Object(Vec::new());
        write_item(&mut snapshot, Scope::Router, 0, &[], &mut fleet);
        put(&mut value, &[FLEET], fleet);
        let replicas = item_objects(&mut snapshot, Scope::Replica);
        put(&mut value, &PER_REPLICA, replicas);
        value
    }

    /// Writes into the stats object `out` the rows of `scope` for its
    /// `item`-th item whose key paths start with `prefix`, each at the
    /// rest of its path: with [`Scope::Node`] and `["cache"]`, the
    /// entries of the node's `cache` block; with [`Scope::Replica`] and
    /// no prefix, one replica's counters.
    pub fn write_rows(&self, scope: Scope, item: usize, prefix: &[&str], out: &mut Value) {
        write_item(&mut self.clone(), scope, item, prefix, out);
    }

    /// A fleet's snapshot: its replicas' stats replies read back
    /// through the table and merged row by row, each by its row's
    /// [`Merge`] rule, so derived values are recomputed from the
    /// merged counters. Shards are matched by name.
    pub fn merge_stats(replies: &[&Value]) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for (n, reply) in replies.iter().enumerate() {
            absorb_item(&mut merged, Scope::Node, 0, reply, n == 0);
            let shards = reply.get(SHARDS).and_then(Value::as_object).unwrap_or(&[]);
            for (name, counters) in shards {
                let at = merged.shards.iter().position(|s| &s.shard == name);
                let item = at.unwrap_or_else(|| {
                    merged.shards.push(ShardCounterSnapshot {
                        shard: name.clone(),
                        counters: ShardCounters::default(),
                    });
                    merged.shards.len() - 1
                });
                // A shard's counters start from zero and add up.
                absorb_item(&mut merged, Scope::Shard, item, counters, false);
            }
        }
        merged.shards.sort_by(|a, b| a.shard.cmp(&b.shard));
        merged
    }
}

// ----- the metric table -----------------------------------------------

/// How a fleet combines its replicas' values of one series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Their sum: counters, and gauges that add up (queue depth).
    Sum,
    /// The smallest: the fleet started when its first replica did.
    Min,
    /// The largest: the fleet has been up as long as its oldest replica.
    Max,
}

impl Merge {
    /// Combines two replicas' values.
    pub fn pick<T: PartialOrd + std::ops::Add<Output = T>>(self, a: T, b: T) -> T {
        match self {
            Merge::Sum => a + b,
            Merge::Min if b < a => b,
            Merge::Max if b > a => b,
            Merge::Min | Merge::Max => a,
        }
    }
}

/// What a row exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A Prometheus counter.
    Counter,
    /// A Prometheus gauge.
    Gauge,
    /// A stats value computed from other rows (a rate, a sum); it has
    /// no series, and a fleet recomputes it from its merged rows.
    Derived,
}

impl Kind {
    /// The Prometheus type, for the kinds that have series.
    pub fn prometheus(self) -> Option<&'static str> {
        match self {
            Kind::Counter => Some("counter"),
            Kind::Gauge => Some("gauge"),
            Kind::Derived => None,
        }
    }
}

/// The items a row reads, one series (per label value) each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The node itself: rows at the top of the stats JSON.
    Node,
    /// Each serving shard: rows under `shards.<name>`, series labelled
    /// `shard`.
    Shard,
    /// The fleet router: rows under `fleet` in `qrc-lb`'s reply.
    Router,
    /// Each replica behind the router: rows under
    /// `fleet.per_replica.<addr>`, series labelled `replica`.
    Replica,
}

impl Scope {
    /// Each item of this scope in `snapshot`, with the label naming it
    /// among its siblings.
    fn items(self, snapshot: &MetricsSnapshot) -> Vec<Option<(&'static str, String)>> {
        match self {
            Scope::Node | Scope::Router => vec![None],
            Scope::Shard => snapshot
                .shards
                .iter()
                .map(|s| Some(("shard", s.shard.clone())))
                .collect(),
            Scope::Replica => snapshot
                .replicas
                .iter()
                .map(|r| Some(("replica", r.addr.clone())))
                .collect(),
        }
    }
}

/// Where a row's value lives in a snapshot.
pub enum Slot<'a> {
    /// A count (or an integer gauge).
    Count(&'a mut u64),
    /// A time in seconds.
    Secs(&'a mut f64),
    /// A gauge that only some nodes measure.
    Maybe(&'a mut Option<u64>),
    /// A value computed when read: a derived value, or a flag of the
    /// router's own that nothing merges.
    Computed(Value),
}

impl Slot<'_> {
    /// The value, if the item has one.
    fn get(self) -> Option<Value> {
        match self {
            Slot::Count(v) => Some(Value::from(*v)),
            Slot::Secs(v) => Some(Value::from(*v)),
            Slot::Maybe(v) => v.map(Value::from),
            Slot::Computed(v) => Some(v),
        }
    }

    /// Folds a replica's value, read from its stats JSON (absent reads
    /// as zero, or as unmeasured), into this one by `rule`.
    fn absorb(self, value: Option<&Value>, rule: Merge) {
        match self {
            Slot::Count(v) => *v = rule.pick(*v, value.and_then(Value::as_u64).unwrap_or(0)),
            Slot::Secs(v) => *v = rule.pick(*v, value.and_then(Value::as_f64).unwrap_or(0.0)),
            Slot::Maybe(v) => {
                let x = value.and_then(Value::as_u64);
                *v = x.zip(*v).map(|(x, y)| rule.pick(y, x)).or(x).or(*v);
            }
            Slot::Computed(_) => {}
        }
    }
}

/// Reads one series of a row: `(snapshot, item, i)` names the item's
/// position in its scope and the series' position among the row's
/// label values (0 without a label).
pub type Read = for<'a> fn(&'a mut MetricsSnapshot, usize, usize) -> Slot<'a>;

/// A label's values, each paired with its key in the object at its
/// row's path.
pub type LabelKeys = &'static [(&'static str, &'static str)];

/// One row of the table: a metric family and where its values live.
#[derive(Clone, Copy)]
pub struct Metric {
    /// The items it reads.
    pub scope: Scope,
    /// Prometheus family name (empty for a derived value).
    pub name: &'static str,
    /// Counter, gauge, or stats-only derived value.
    pub kind: Kind,
    /// Prometheus help text.
    pub help: &'static str,
    /// Key path in the item's stats object. A labelled family's path
    /// names the object holding one key per label value.
    pub path: &'static [&'static str],
    /// The label splitting the family, and its values with their keys.
    pub label: Option<(&'static str, LabelKeys)>,
    /// How a fleet merges it.
    pub merge: Merge,
    /// Its value in a snapshot.
    pub read: Read,
}

impl Metric {
    /// Each series of the family: its label value (empty without a
    /// label) and its key path in the item's stats object.
    pub fn series(&self) -> Vec<(&'static str, Vec<&'static str>)> {
        match self.label {
            None => vec![("", self.path.to_vec())],
            Some((_, values)) => values
                .iter()
                .map(|&(value, key)| (value, [self.path, &[key]].concat()))
                .collect(),
        }
    }

    const fn by(self, label: &'static str, values: LabelKeys) -> Self {
        Metric {
            label: Some((label, values)),
            ..self
        }
    }

    const fn merged(self, merge: Merge) -> Self {
        Metric { merge, ..self }
    }
}

const fn row(
    scope: Scope,
    kind: Kind,
    name: &'static str,
    help: &'static str,
    path: &'static [&'static str],
    read: Read,
) -> Metric {
    Metric {
        scope,
        name,
        kind,
        help,
        path,
        label: None,
        merge: Merge::Sum,
        read,
    }
}

const fn same(name: &'static str) -> (&'static str, &'static str) {
    (name, name)
}

/// A routed request's outcome, as label value and stats key: its cache
/// status (in `CacheStatus` order), or an error.
const OUTCOMES: [(&str, &str); 4] = [
    same(CacheStatus::Hit.name()),
    same(CacheStatus::Miss.name()),
    same(CacheStatus::Coalesced.name()),
    ("error", "errors"),
];

/// Store lookups by result, as label value and stats key.
const LOOKUPS: [(&str, &str); 2] = [
    (CacheStatus::Hit.name(), "hits"),
    (CacheStatus::Miss.name(), "misses"),
];

/// Routing fallback levels, in `RouteLevel::ALL` order.
const LEVELS: [(&str, &str); 4] = [
    same(RouteLevel::Exact.name()),
    same(RouteLevel::BandWildcard.name()),
    same(RouteLevel::DeviceWildcard.name()),
    same(RouteLevel::ObjectiveOnly.name()),
];

use Kind::{Counter, Derived, Gauge};
use Scope::{Node, Replica, Router, Shard};
use Slot::{Computed, Count, Maybe, Secs};

/// Every counter and gauge the service and the fleet router export,
/// and the values the stats JSON derives from them, in rendering order:
/// scope, kind, Prometheus name and help, stats key path; then where
/// the value lives, and the label or merge rule where a row has one.
#[rustfmt::skip]
pub static METRICS: &[Metric] = &[
    row(Node, Counter, "qrc_requests_total", "Requests answered.", &["requests"],
        |s, _, _| Count(&mut s.requests)),
    row(Node, Counter, "qrc_errors_total", "Requests answered with ok=false.", &["errors"],
        |s, _, _| Count(&mut s.errors)),
    row(Node, Counter, "qrc_rejected_total", "Requests rejected by queue back-pressure.", &["rejected"],
        |s, _, _| Count(&mut s.rejected)),
    row(Node, Gauge, "qrc_uptime_seconds", "Seconds since service start.", &["uptime_secs"],
        |s, _, _| Secs(&mut s.uptime_secs)).merged(Merge::Max),
    row(Node, Gauge, "qrc_start_time_seconds", "Unix timestamp of service start.", &["started_epoch_secs"],
        |s, _, _| Count(&mut s.started_epoch_secs)).merged(Merge::Min),
    row(Node, Counter, "qrc_responses_total", "Requests answered, by cache outcome.", &["responses"],
        |s, _, i| Count(&mut s.responses[i])).by("cache", OUTCOMES.split_at(3).0),
    row(Node, Counter, "qrc_cache_lookups_total", "Unique store lookups, by result.", &["cache"],
        |s, _, i| Count([&mut s.cache.hits, &mut s.cache.misses][i])).by("result", &LOOKUPS),
    row(Node, Counter, "qrc_cache_warm_hits_total", "Cache hits served from warmup-restored entries.", &["cache", "warm_hits"],
        |s, _, _| Count(&mut s.cache.warm_hits)),
    row(Node, Derived, "", "", &["cache", "cold_hits"],
        |s, _, _| Computed(Value::from(s.cache.cold_hits()))),
    row(Node, Counter, "qrc_cache_insertions_total", "Cache insertions.", &["cache", "insertions"],
        |s, _, _| Count(&mut s.cache.insertions)),
    row(Node, Counter, "qrc_cache_evictions_total", "Cache evictions.", &["cache", "evictions"],
        |s, _, _| Count(&mut s.cache.evictions)),
    row(Node, Derived, "", "", &["cache", "hit_rate"],
        |s, _, _| Computed(Value::from(s.cache.hit_rate()))),
    row(Node, Counter, "qrc_route_level_total", "Requests resolved per routing fallback level.", &["routes"],
        |s, _, i| Count(s.routes.slot(RouteLevel::ALL[i]))).by("level", &LEVELS),
    row(Node, Counter, "qrc_reloads_total", "Registry hot-reloads performed.", &["registry", "reloads"],
        |s, _, _| Count(&mut s.reloads)),
    row(Node, Counter, "qrc_calibrations_total", "Live device recalibrations applied.", &["devices", "calibrations"],
        |s, _, _| Count(&mut s.calibrations)),
    row(Node, Counter, "qrc_calibration_invalidated_total", "Cache entries invalidated by live recalibrations.", &["devices", "calibration_invalidated"],
        |s, _, _| Count(&mut s.calibration_invalidated)),
    row(Node, Gauge, "qrc_warm_entries", "Cache entries resident when warmup finished.", &["persistence", "warm_entries"],
        |s, _, _| Count(&mut s.warm_entries)),
    row(Node, Gauge, "qrc_queue_depth", "Requests currently waiting in the bounded queue.", &["queue_depth"],
        |s, _, _| Maybe(&mut s.queue_depth)),
    row(Shard, Derived, "", "", &["routed"],
        |s, item, _| Computed(Value::from(s.shards[item].counters.routed()))),
    row(Shard, Counter, "qrc_shard_requests_total", "Requests routed, by serving shard and outcome.", &[],
        |s, item, i| Count(s.shards[item].counters.slot(i))).by("outcome", &OUTCOMES),
    row(Router, Gauge, "qrc_router_replicas", "Replicas in the fleet.", &["replicas"],
        |s, _, _| Count(&mut s.router.replicas)),
    row(Router, Gauge, "qrc_router_healthy_replicas", "Replicas on the hash ring.", &["healthy"],
        |s, _, _| Count(&mut s.router.healthy)),
    row(Router, Counter, "qrc_router_round_robin_total", "Requests forwarded round-robin for want of a routing key.", &["router", "round_robin"],
        |s, _, _| Count(&mut s.router.round_robin)),
    row(Router, Counter, "qrc_router_unroutable_total", "Requests answered inline because no replica was healthy.", &["router", "unroutable"],
        |s, _, _| Count(&mut s.router.unroutable)),
    row(Router, Counter, "qrc_router_overloaded_total", "Overloaded rejections passed through from replicas.", &["router", "overloaded"],
        |s, _, _| Count(&mut s.router.overloaded)),
    row(Router, Counter, "qrc_router_parse_errors_total", "Malformed control lines the router answered inline.", &["router", "parse_errors"],
        |s, _, _| Count(&mut s.router.parse_errors)),
    row(Router, Gauge, "qrc_router_vnodes", "Virtual nodes per replica on the hash ring.", &["router", "vnodes"],
        |s, _, _| Count(&mut s.router.vnodes)),
    row(Replica, Gauge, "qrc_replica_healthy", "1 while the replica is on the hash ring.", &["healthy"],
        |s, item, _| Computed(Value::from(s.replicas[item].healthy))),
    row(Replica, Counter, "qrc_replica_routed_total", "Requests written to the replica.", &["routed"],
        |s, item, _| Count(&mut s.replicas[item].routed)),
    row(Replica, Counter, "qrc_replica_completed_total", "Replica responses delivered to clients.", &["completed"],
        |s, item, _| Count(&mut s.replicas[item].completed)),
    row(Replica, Counter, "qrc_replica_rerouted_total", "In-flight requests re-routed away from the replica at its ejection.", &["rerouted"],
        |s, item, _| Count(&mut s.replicas[item].rerouted)),
    row(Replica, Counter, "qrc_replica_ejections_total", "Times the replica was ejected from the hash ring.", &["ejections"],
        |s, item, _| Count(&mut s.replicas[item].ejections)),
];

/// The rows of one scope.
fn rows(scope: Scope) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |metric| metric.scope == scope)
}

/// Writes the value of every row of `scope` for one of its items whose
/// key path starts with `prefix` into the stats object `out`, each at
/// the rest of its path.
fn write_item(
    snapshot: &mut MetricsSnapshot,
    scope: Scope,
    item: usize,
    prefix: &[&str],
    out: &mut Value,
) {
    for metric in rows(scope) {
        for (i, (_, path)) in metric.series().into_iter().enumerate() {
            let Some(rest) = path.strip_prefix(prefix) else {
                continue;
            };
            if let Some(value) = (metric.read)(snapshot, item, i).get() {
                put(out, rest, value);
            }
        }
    }
}

/// The stats object of every item of `scope`, keyed by its name.
fn item_objects(snapshot: &mut MetricsSnapshot, scope: Scope) -> Value {
    let items = scope.items(snapshot).into_iter().enumerate();
    Value::Object(
        items
            .map(|(item, label)| {
                let mut object = Value::Object(Vec::new());
                write_item(snapshot, scope, item, &[], &mut object);
                (label.map(|(_, name)| name).unwrap_or_default(), object)
            })
            .collect(),
    )
}

/// Folds into one item every row value [`write_item`] put in a
/// replica's `stats`.
fn absorb_item(
    snapshot: &mut MetricsSnapshot,
    scope: Scope,
    item: usize,
    stats: &Value,
    first: bool,
) {
    for metric in rows(scope) {
        // A snapshot starts from zero, so the first replica's values
        // are summed in as they are.
        let rule = if first { Merge::Sum } else { metric.merge };
        for (i, (_, path)) in metric.series().into_iter().enumerate() {
            let value = path.iter().try_fold(stats, |at, key| at.get(key));
            (metric.read)(snapshot, item, i).absorb(value, rule);
        }
    }
}

/// Writes every row of `scope` as a Prometheus family: one series per
/// item and label value. A family with items declares itself with its
/// first series, so a gauge no item measures is left out.
pub(crate) fn write_series(p: &mut PromText, snapshot: &mut MetricsSnapshot, scope: Scope) {
    let items = scope.items(snapshot);
    for metric in rows(scope) {
        let Some(kind) = metric.kind.prometheus() else {
            continue;
        };
        let series = metric.series();
        let mut declared = items.is_empty();
        if declared {
            p.header(metric.name, kind, metric.help);
        }
        for (item, name) in items.iter().enumerate() {
            for (i, &(value_label, _)) in series.iter().enumerate() {
                let Some(value) = (metric.read)(snapshot, item, i).get() else {
                    continue;
                };
                if !std::mem::replace(&mut declared, true) {
                    p.header(metric.name, kind, metric.help);
                }
                let labels: Vec<(&str, &str)> = name
                    .iter()
                    .map(|(label, name)| (*label, name.as_str()))
                    .chain(metric.label.map(|(label, _)| (label, value_label)))
                    .collect();
                match value.as_bool() {
                    Some(flag) => p.sample_u64(metric.name, &labels, u64::from(flag)),
                    None => p.sample_f64(metric.name, &labels, value.as_f64().unwrap_or(0.0)),
                }
            }
        }
    }
}

/// Puts `value` at `path` in the object `out`, making the objects on
/// the way.
pub(crate) fn put(out: &mut Value, path: &[&str], value: Value) {
    let Some((key, rest)) = path.split_first() else {
        *out = value;
        return;
    };
    let Value::Object(pairs) = out else {
        panic!("stats path {path:?} runs through a value");
    };
    let at = pairs.iter().position(|(k, _)| k == key).unwrap_or_else(|| {
        pairs.push((key.to_string(), Value::Object(Vec::new())));
        pairs.len() - 1
    });
    put(&mut pairs[at].1, rest, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrc_obs::HISTOGRAM_RELATIVE_ERROR;

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
        assert_eq!(snap.responses, [1, 1, 0], "hit, miss, coalesced");
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
        assert_eq!(narrow_counters.routed(), 3);
        assert_eq!(narrow_counters.misses, 1);
        assert_eq!(narrow_counters.hits, 1);
        assert_eq!(narrow_counters.coalesced, 1);
        assert_eq!(narrow_counters.errors, 0);
        let wildcard_counters = by_name("fidelity/any/any");
        assert_eq!(wildcard_counters.routed(), 1);
        assert_eq!(wildcard_counters.errors, 1);
        assert_eq!(snap.routes.exact, 3);
        assert_eq!(snap.routes.objective_only, 1);
        assert_eq!(snap.routes.band_wildcard + snap.routes.device_wildcard, 0);
        // Routed totals never exceed requests (the parse error is
        // counted in requests but routed nowhere).
        let routed: u64 = snap.shards.iter().map(|s| s.counters.routed()).sum();
        assert_eq!(routed, 4);
        assert_eq!(snap.requests, 5);

        let text = serde_json::to_string(&snap.to_value());
        assert!(
            text.contains("\"fidelity/any/narrow\":{\"routed\":3,"),
            "{text}"
        );
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
        // Far more samples than any fixed sample window would hold: the
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
