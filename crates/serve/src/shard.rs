//! Shard addressing for the model registry: policies are keyed by
//! `(objective × device-class × width band)` instead of bare objective,
//! so specialized policies answer the traffic slice they are best at.
//!
//! A [`ShardKey`] names one policy shard. Requests resolve to a shard
//! through a deterministic fallback chain (most specific first):
//!
//! 1. **exact** — `(objective, device class, width band)`,
//! 2. **band-wildcard** — `(objective, device class, any)`,
//! 3. **device-wildcard** — `(objective, any, width band)`,
//! 4. **objective-only** — `(objective, any, any)`.
//!
//! The objective-only shard is what every pre-sharding deployment
//! already has (legacy `predictor_<objective>.json` checkpoints load as
//! wildcard-device/wildcard-band shards), so a partial fleet still
//! answers everything.

use qrc_circuit::QuantumCircuit;
use qrc_device::{Device, DeviceId, DeviceRegistry, Platform};
use qrc_predictor::{task_seed, PredictorConfig, RewardKind, TrainedPredictor};

/// The device dimension of a shard: a hardware platform family, or the
/// wildcard matching any (including unpinned requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceClass {
    /// Matches every device and unpinned requests (the wildcard).
    Any,
    /// One hardware platform family (all of its devices).
    Class(Platform),
}

impl DeviceClass {
    /// Every concrete class plus the wildcard, wildcard first.
    pub fn all() -> Vec<DeviceClass> {
        let mut out = vec![DeviceClass::Any];
        out.extend(Platform::ALL.into_iter().map(DeviceClass::Class));
        out
    }

    /// Stable name used in shard keys and checkpoint file names.
    pub const fn name(self) -> &'static str {
        match self {
            DeviceClass::Any => "any",
            DeviceClass::Class(p) => p.name(),
        }
    }

    /// The inverse of [`DeviceClass::name`].
    pub fn from_name(name: &str) -> Option<DeviceClass> {
        if name == "any" {
            return Some(DeviceClass::Any);
        }
        Platform::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .map(DeviceClass::Class)
    }

    /// The class a pinned device belongs to (`Any` for no pin). The
    /// class is derived from the device spec's *platform string*: when
    /// it names one of the four known platforms the pin routes to that
    /// class's specialists (every built-in does — their platform
    /// string is the platform name), while an unknown vendor string
    /// routes to the device-wildcard level, where the generalist
    /// shards serve it.
    pub fn of_pin(pin: Option<DeviceId>) -> DeviceClass {
        match pin.and_then(DeviceRegistry::platform_class) {
            Some(p) => DeviceClass::Class(p),
            None => DeviceClass::Any,
        }
    }

    /// Widest device of the class (`u32::MAX` for the wildcard) — used
    /// to scope training suites to circuits the class can execute.
    pub fn max_qubits(self) -> u32 {
        match self {
            DeviceClass::Any => u32::MAX,
            DeviceClass::Class(p) => DeviceId::of_platform(p)
                .into_iter()
                .map(|d| Device::get(d).num_qubits())
                .max()
                .unwrap_or(0),
        }
    }

    /// Stable small integer for seed/shard mixing (0 = wildcard).
    ///
    /// Exhaustive by construction: the previous
    /// `Platform::ALL.position(..).unwrap_or(0)` spelling silently
    /// aliased any platform missing from `ALL` onto the wildcard's
    /// tag 0 — which would merge that class's cache partition and
    /// training seed with the wildcard shard's. A match cannot drift:
    /// adding a platform without extending this table is a compile
    /// error, not a seed collision.
    const fn tag(self) -> u64 {
        match self {
            DeviceClass::Any => 0,
            DeviceClass::Class(Platform::Ibm) => 1,
            DeviceClass::Class(Platform::Rigetti) => 2,
            DeviceClass::Class(Platform::Ionq) => 3,
            DeviceClass::Class(Platform::Oqc) => 4,
        }
    }
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The width dimension of a shard: a contiguous qubit-count band, or
/// the wildcard matching any width.
///
/// Band boundaries follow the paper's device fleet: `narrow` fits every
/// target (≤ 4 qubits), `medium` fits everything but the smallest chips
/// (5–10), `wide` is 11 qubits and up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WidthBand {
    /// Matches every width (the wildcard).
    Any,
    /// 1–4 qubits.
    Narrow,
    /// 5–10 qubits.
    Medium,
    /// 11 qubits and up.
    Wide,
}

impl WidthBand {
    /// The concrete (non-wildcard) bands, narrowest first.
    pub const BANDS: [WidthBand; 3] = [WidthBand::Narrow, WidthBand::Medium, WidthBand::Wide];

    /// The band a circuit of `width` qubits falls into.
    pub const fn of_width(width: u32) -> WidthBand {
        match width {
            0..=4 => WidthBand::Narrow,
            5..=10 => WidthBand::Medium,
            _ => WidthBand::Wide,
        }
    }

    /// Stable name used in shard keys and checkpoint file names.
    pub const fn name(self) -> &'static str {
        match self {
            WidthBand::Any => "any",
            WidthBand::Narrow => "narrow",
            WidthBand::Medium => "medium",
            WidthBand::Wide => "wide",
        }
    }

    /// The inverse of [`WidthBand::name`].
    pub fn from_name(name: &str) -> Option<WidthBand> {
        match name {
            "any" => Some(WidthBand::Any),
            "narrow" => Some(WidthBand::Narrow),
            "medium" => Some(WidthBand::Medium),
            "wide" => Some(WidthBand::Wide),
            _ => None,
        }
    }

    /// Returns `true` if a circuit of `width` qubits belongs to this
    /// band (the wildcard contains every width).
    pub const fn contains(self, width: u32) -> bool {
        match self {
            WidthBand::Any => true,
            _ => matches!(
                (self, WidthBand::of_width(width)),
                (WidthBand::Narrow, WidthBand::Narrow)
                    | (WidthBand::Medium, WidthBand::Medium)
                    | (WidthBand::Wide, WidthBand::Wide)
            ),
        }
    }

    /// Stable small integer for seed/shard mixing (0 = wildcard).
    const fn tag(self) -> u64 {
        match self {
            WidthBand::Any => 0,
            WidthBand::Narrow => 1,
            WidthBand::Medium => 2,
            WidthBand::Wide => 3,
        }
    }
}

impl std::fmt::Display for WidthBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The address of one policy shard:
/// `(objective × device-class × width band)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardKey {
    /// The optimization objective the shard's policy was trained for.
    pub objective: RewardKind,
    /// The device slice it answers (`Any` = every device / unpinned).
    pub device_class: DeviceClass,
    /// The circuit-width slice it answers (`Any` = every width).
    pub width_band: WidthBand,
}

impl ShardKey {
    /// The objective-only wildcard shard — what a legacy
    /// `predictor_<objective>.json` checkpoint migrates to.
    pub const fn wildcard(objective: RewardKind) -> ShardKey {
        ShardKey {
            objective,
            device_class: DeviceClass::Any,
            width_band: WidthBand::Any,
        }
    }

    /// The most specific key describing one request: its objective, the
    /// class of its device pin (wildcard when unpinned), and the band
    /// of its circuit width.
    pub fn for_request(objective: RewardKind, pin: Option<DeviceId>, width: u32) -> ShardKey {
        ShardKey {
            objective,
            device_class: DeviceClass::of_pin(pin),
            width_band: WidthBand::of_width(width),
        }
    }

    /// The canonical `objective/device-class/width-band` spelling, used
    /// on the wire (`shard` echo field, stats) and by `--shard` flags.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/{}",
            self.objective.name(),
            self.device_class.name(),
            self.width_band.name()
        )
    }

    /// Parses the [`ShardKey::name`] spelling.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message naming the malformed component.
    pub fn parse(text: &str) -> Result<ShardKey, String> {
        let parts: Vec<&str> = text.split('/').collect();
        if parts.len() != 3 {
            return Err(format!(
                "shard key `{text}` must be objective/device-class/width-band \
                 (e.g. fidelity/ibm/narrow)"
            ));
        }
        let objective = RewardKind::from_name(parts[0]).ok_or_else(|| {
            format!(
                "unknown objective `{}` (expected one of: {})",
                parts[0],
                RewardKind::ALL.map(|k| k.name()).join(", ")
            )
        })?;
        let device_class = DeviceClass::from_name(parts[1]).ok_or_else(|| {
            format!(
                "unknown device class `{}` (expected any or one of: {})",
                parts[1],
                Platform::ALL.map(|p| p.name()).join(", ")
            )
        })?;
        let width_band = WidthBand::from_name(parts[2]).ok_or_else(|| {
            format!(
                "unknown width band `{}` (expected one of: any, narrow, medium, wide)",
                parts[2]
            )
        })?;
        Ok(ShardKey {
            objective,
            device_class,
            width_band,
        })
    }

    /// The checkpoint file name this shard persists under:
    /// `predictor_<objective>_<device-class>_<width-band>.json`.
    pub fn file_name(&self) -> String {
        format!(
            "predictor_{}_{}_{}.json",
            self.objective.name(),
            self.device_class.name(),
            self.width_band.name()
        )
    }

    /// The inverse of [`ShardKey::file_name`], also accepting the
    /// legacy pre-sharding spelling `predictor_<objective>.json` (which
    /// migrates to the objective-only wildcard shard). Returns the key
    /// and whether the name was legacy-form.
    pub fn from_file_name(name: &str) -> Option<(ShardKey, bool)> {
        let stem = name.strip_prefix("predictor_")?.strip_suffix(".json")?;
        // Objective names may contain underscores (`critical_depth`),
        // so match known objectives as prefixes instead of splitting.
        for objective in RewardKind::ALL {
            if stem == objective.name() {
                return Some((ShardKey::wildcard(objective), true));
            }
            let Some(rest) = stem
                .strip_prefix(objective.name())
                .and_then(|r| r.strip_prefix('_'))
            else {
                continue;
            };
            let (class_name, band_name) = rest.rsplit_once('_')?;
            let device_class = DeviceClass::from_name(class_name)?;
            let width_band = WidthBand::from_name(band_name)?;
            return Some((
                ShardKey {
                    objective,
                    device_class,
                    width_band,
                },
                false,
            ));
        }
        None
    }

    /// Returns `true` if this shard can serve a request described by
    /// `requested` (its objective matches and every non-wildcard
    /// component agrees).
    pub fn covers(&self, requested: &ShardKey) -> bool {
        self.objective == requested.objective
            && (self.device_class == DeviceClass::Any
                || self.device_class == requested.device_class)
            && (self.width_band == WidthBand::Any || self.width_band == requested.width_band)
    }

    /// The deterministic fallback chain for a *requested* key, most
    /// specific first. Routing takes the first present shard; for an
    /// unpinned request (device class already wildcard) the chain
    /// collapses to two distinct keys. The specificity of a match is
    /// classified by [`RouteLevel::of`].
    pub fn fallback_chain(&self) -> [ShardKey; 4] {
        [
            *self,
            ShardKey {
                width_band: WidthBand::Any,
                ..*self
            },
            ShardKey {
                device_class: DeviceClass::Any,
                ..*self
            },
            ShardKey::wildcard(self.objective),
        ]
    }

    /// A stable 64-bit tag mixing all three components — folded into
    /// cache keys (so shard identity partitions the result cache) and
    /// into per-shard training seeds (so sibling shards explore
    /// independently).
    pub fn tag(&self) -> u64 {
        // Exhaustive for the same reason as [`DeviceClass::tag`]: an
        // objective absent from a scan of `RewardKind::ALL` would have
        // aliased onto fidelity's tag, merging two shards' cache
        // partitions and training seeds.
        let objective: u64 = match self.objective {
            RewardKind::ExpectedFidelity => 1,
            RewardKind::CriticalDepth => 2,
            RewardKind::Combination => 3,
        };
        // Distinct multipliers keep the packed tag collision-free over
        // the small component spaces.
        objective * 64 + self.device_class.tag() * 8 + self.width_band.tag()
    }

    /// The slice of a benchmark suite this shard should train on:
    /// circuits inside its width band that its device class can hold.
    ///
    /// Falls back to band-only filtering (and finally to the full
    /// suite) rather than returning an empty slice — training on zero
    /// circuits is never useful.
    pub fn suite_slice(&self, suite: &[QuantumCircuit]) -> Vec<QuantumCircuit> {
        let max = self.device_class.max_qubits();
        let scoped: Vec<QuantumCircuit> = suite
            .iter()
            .filter(|qc| self.width_band.contains(qc.num_qubits()) && qc.num_qubits() <= max)
            .cloned()
            .collect();
        if !scoped.is_empty() {
            return scoped;
        }
        let banded: Vec<QuantumCircuit> = suite
            .iter()
            .filter(|qc| self.width_band.contains(qc.num_qubits()))
            .cloned()
            .collect();
        if !banded.is_empty() {
            banded
        } else {
            suite.to_vec()
        }
    }

    /// Trains this shard's policy on its [`ShardKey::suite_slice`] of
    /// `suite`: the one recipe behind every shard checkpoint. The
    /// objective-only wildcard trains with the master `seed`; any other
    /// shard mixes its [`ShardKey::tag`] in with [`task_seed`], so
    /// sibling shards explore independently.
    pub fn train(
        &self,
        suite: &[QuantumCircuit],
        timesteps: usize,
        seed: u64,
        step_penalty: f64,
    ) -> TrainedPredictor {
        let mut config = PredictorConfig::new(self.objective, timesteps);
        config.seed = if *self == ShardKey::wildcard(self.objective) {
            seed
        } else {
            task_seed(seed, self.tag())
        };
        config.step_penalty = step_penalty;
        qrc_predictor::train(self.suite_slice(suite), &config)
    }
}

impl std::fmt::Display for ShardKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// How specific a routing match was — which step of the fallback chain
/// answered the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteLevel {
    /// The exact `(objective, device class, width band)` shard.
    Exact,
    /// The shard's width band is the wildcard.
    BandWildcard,
    /// The shard's device class is the wildcard.
    DeviceWildcard,
    /// The objective-only wildcard shard (both components wild).
    ObjectiveOnly,
}

impl RouteLevel {
    /// Every level, most specific first (the fallback order).
    pub const ALL: [RouteLevel; 4] = [
        RouteLevel::Exact,
        RouteLevel::BandWildcard,
        RouteLevel::DeviceWildcard,
        RouteLevel::ObjectiveOnly,
    ];

    /// Classifies how specific a routing match was, comparing the
    /// matched shard against the requested key: an identical key is
    /// `Exact`; the full wildcard shard answering a more specific
    /// request is `ObjectiveOnly`; otherwise the single wildcarded
    /// component names the level.
    pub fn of(requested: &ShardKey, matched: &ShardKey) -> RouteLevel {
        debug_assert!(
            matched.covers(requested),
            "{matched} must cover {requested}"
        );
        if matched == requested {
            RouteLevel::Exact
        } else if matched.device_class == DeviceClass::Any && matched.width_band == WidthBand::Any {
            RouteLevel::ObjectiveOnly
        } else if matched.width_band == WidthBand::Any {
            RouteLevel::BandWildcard
        } else {
            RouteLevel::DeviceWildcard
        }
    }

    /// Stable name used in metrics and bench reports.
    pub const fn name(self) -> &'static str {
        match self {
            RouteLevel::Exact => "exact",
            RouteLevel::BandWildcard => "band_wildcard",
            RouteLevel::DeviceWildcard => "device_wildcard",
            RouteLevel::ObjectiveOnly => "objective_only",
        }
    }
}

/// The route one response took: the shard that answered and how
/// specific the match was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRoute {
    /// The shard that served the request.
    pub shard: ShardKey,
    /// Which fallback step matched.
    pub level: RouteLevel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for objective in RewardKind::ALL {
            for device_class in DeviceClass::all() {
                for width_band in [
                    WidthBand::Any,
                    WidthBand::Narrow,
                    WidthBand::Medium,
                    WidthBand::Wide,
                ] {
                    let key = ShardKey {
                        objective,
                        device_class,
                        width_band,
                    };
                    assert_eq!(ShardKey::parse(&key.name()), Ok(key), "{key}");
                    let (parsed, legacy) = ShardKey::from_file_name(&key.file_name()).unwrap();
                    assert_eq!(parsed, key);
                    assert!(!legacy);
                }
            }
        }
    }

    #[test]
    fn legacy_file_names_migrate_to_wildcards() {
        let (key, legacy) = ShardKey::from_file_name("predictor_critical_depth.json").unwrap();
        assert!(legacy);
        assert_eq!(key, ShardKey::wildcard(RewardKind::CriticalDepth));
        assert_eq!(ShardKey::from_file_name("predictor_bogus.json"), None);
        assert_eq!(ShardKey::from_file_name("notes.txt"), None);
        assert_eq!(
            ShardKey::from_file_name("predictor_fidelity_ibm_narrow.json.corrupt"),
            None
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for (spec, needle) in [
            ("fidelity/ibm", "objective/device-class/width-band"),
            ("speed/ibm/narrow", "unknown objective"),
            ("fidelity/acme/narrow", "unknown device class"),
            ("fidelity/ibm/tiny", "unknown width band"),
        ] {
            let err = ShardKey::parse(spec).unwrap_err();
            assert!(err.contains(needle), "`{spec}` → {err}");
        }
    }

    #[test]
    fn width_bands_partition_widths() {
        assert_eq!(WidthBand::of_width(2), WidthBand::Narrow);
        assert_eq!(WidthBand::of_width(4), WidthBand::Narrow);
        assert_eq!(WidthBand::of_width(5), WidthBand::Medium);
        assert_eq!(WidthBand::of_width(10), WidthBand::Medium);
        assert_eq!(WidthBand::of_width(11), WidthBand::Wide);
        assert_eq!(WidthBand::of_width(127), WidthBand::Wide);
        for width in 1..=20 {
            assert_eq!(
                WidthBand::BANDS
                    .iter()
                    .filter(|b| b.contains(width))
                    .count(),
                1,
                "width {width} must fall in exactly one concrete band"
            );
            assert!(WidthBand::Any.contains(width));
        }
    }

    #[test]
    fn fallback_chain_is_most_specific_first() {
        let requested =
            ShardKey::for_request(RewardKind::ExpectedFidelity, Some(DeviceId::IonqHarmony), 3);
        let chain = requested.fallback_chain();
        assert_eq!(chain[0].name(), "fidelity/ionq/narrow");
        assert_eq!(chain[1].name(), "fidelity/ionq/any");
        assert_eq!(chain[2].name(), "fidelity/any/narrow");
        assert_eq!(chain[3].name(), "fidelity/any/any");
        assert_eq!(RouteLevel::of(&requested, &chain[0]), RouteLevel::Exact);
        assert_eq!(
            RouteLevel::of(&requested, &chain[1]),
            RouteLevel::BandWildcard
        );
        assert_eq!(
            RouteLevel::of(&requested, &chain[2]),
            RouteLevel::DeviceWildcard
        );
        assert_eq!(
            RouteLevel::of(&requested, &chain[3]),
            RouteLevel::ObjectiveOnly
        );
        // Every chain entry covers the requested slice.
        for key in &chain {
            assert!(key.covers(&requested), "{key}");
        }
        // A different objective never covers it.
        assert!(!ShardKey::wildcard(RewardKind::CriticalDepth).covers(&requested));

        // For an unpinned request the chain collapses: a full-wildcard
        // match classifies as objective-only, not band-wildcard.
        let unpinned = ShardKey::for_request(RewardKind::ExpectedFidelity, None, 6);
        assert_eq!(
            RouteLevel::of(&unpinned, &ShardKey::wildcard(RewardKind::ExpectedFidelity)),
            RouteLevel::ObjectiveOnly
        );
        assert_eq!(RouteLevel::of(&unpinned, &unpinned), RouteLevel::Exact);
    }

    #[test]
    fn tags_are_collision_free() {
        let mut seen = std::collections::HashSet::new();
        for objective in RewardKind::ALL {
            for device_class in DeviceClass::all() {
                for width_band in [
                    WidthBand::Any,
                    WidthBand::Narrow,
                    WidthBand::Medium,
                    WidthBand::Wide,
                ] {
                    let key = ShardKey {
                        objective,
                        device_class,
                        width_band,
                    };
                    assert!(seen.insert(key.tag()), "duplicate tag for {key}");
                }
            }
        }
    }

    #[test]
    fn tags_pin_the_historical_numbering() {
        // Cache partitions and per-shard training seeds are derived
        // from these integers; the exhaustive-match rewrite must keep
        // the numbering the `ALL`-scan produced, or every persisted
        // cache entry and trained shard would silently re-key.
        assert_eq!(DeviceClass::Any.tag(), 0);
        assert_eq!(DeviceClass::Class(Platform::Ibm).tag(), 1);
        assert_eq!(DeviceClass::Class(Platform::Rigetti).tag(), 2);
        assert_eq!(DeviceClass::Class(Platform::Ionq).tag(), 3);
        assert_eq!(DeviceClass::Class(Platform::Oqc).tag(), 4);
        for (objective, tag) in [
            (RewardKind::ExpectedFidelity, 1),
            (RewardKind::CriticalDepth, 2),
            (RewardKind::Combination, 3),
        ] {
            assert_eq!(
                ShardKey::wildcard(objective).tag(),
                tag * 64,
                "{objective:?}"
            );
        }
        // And no class may alias the wildcard's partition.
        for device_class in DeviceClass::all() {
            if device_class != DeviceClass::Any {
                assert_ne!(device_class.tag(), DeviceClass::Any.tag(), "{device_class}");
            }
        }
    }

    #[test]
    fn dynamic_pins_route_by_platform_string() {
        use qrc_device::{DeviceRegistry, DeviceSource, DeviceSpec, TopologySpec};
        // A spec whose platform string names a known platform routes
        // to that class's specialists…
        let known = DeviceRegistry::register(
            DeviceSpec::synthetic(
                "shard_test_ring_12",
                Platform::Ibm,
                TopologySpec::Ring { qubits: 12 },
            ),
            DeviceSource::Runtime,
        )
        .unwrap();
        assert_eq!(
            DeviceClass::of_pin(Some(known)),
            DeviceClass::Class(Platform::Ibm)
        );
        // …while an unknown vendor string routes to the wildcard level.
        let mut spec = DeviceSpec::synthetic(
            "shard_test_acme_9",
            Platform::Ibm,
            TopologySpec::Ring { qubits: 9 },
        );
        spec.platform = "acme_q".into();
        let unknown = DeviceRegistry::register(spec, DeviceSource::Runtime).unwrap();
        assert_eq!(DeviceClass::of_pin(Some(unknown)), DeviceClass::Any);
    }

    #[test]
    fn device_class_scopes_by_platform() {
        assert_eq!(DeviceClass::of_pin(None), DeviceClass::Any);
        assert_eq!(
            DeviceClass::of_pin(Some(DeviceId::IbmqMontreal)),
            DeviceClass::Class(Platform::Ibm)
        );
        assert_eq!(DeviceClass::Class(Platform::Oqc).max_qubits(), 8);
        assert_eq!(DeviceClass::Class(Platform::Ionq).max_qubits(), 11);
        assert_eq!(DeviceClass::Class(Platform::Ibm).max_qubits(), 127);
        assert_eq!(DeviceClass::Any.max_qubits(), u32::MAX);
    }

    #[test]
    fn suite_slice_scopes_and_never_returns_empty() {
        let suite: Vec<QuantumCircuit> = (2..=12)
            .map(|w| {
                let mut qc = QuantumCircuit::new(w);
                qc.h(0);
                qc
            })
            .collect();
        let narrow = ShardKey {
            objective: RewardKind::ExpectedFidelity,
            device_class: DeviceClass::Any,
            width_band: WidthBand::Narrow,
        };
        let slice = narrow.suite_slice(&suite);
        assert!(!slice.is_empty());
        assert!(slice.iter().all(|qc| qc.num_qubits() <= 4));

        // The OQC class (8 qubits) trims the medium band at 8.
        let oqc_medium = ShardKey {
            objective: RewardKind::ExpectedFidelity,
            device_class: DeviceClass::Class(Platform::Oqc),
            width_band: WidthBand::Medium,
        };
        let slice = oqc_medium.suite_slice(&suite);
        assert!(!slice.is_empty());
        assert!(slice.iter().all(|qc| (5..=8).contains(&qc.num_qubits())));

        // A slice the class cannot hold at all falls back to the band.
        let oqc_wide = ShardKey {
            objective: RewardKind::ExpectedFidelity,
            device_class: DeviceClass::Class(Platform::Oqc),
            width_band: WidthBand::Wide,
        };
        let slice = oqc_wide.suite_slice(&suite);
        assert!(!slice.is_empty());
        assert!(slice.iter().all(|qc| qc.num_qubits() >= 11));

        // A band absent from the suite falls back to the whole suite.
        let tiny_suite = vec![suite[0].clone()];
        let wide = ShardKey {
            objective: RewardKind::ExpectedFidelity,
            device_class: DeviceClass::Any,
            width_band: WidthBand::Wide,
        };
        assert_eq!(wide.suite_slice(&tiny_suite).len(), 1);
    }
}
