//! Wire-schema parsing, canonical scenario keys, and request execution.
//!
//! A compute request names an *operational context* (which datacenter
//! demand trace and which grid, via `site` or `ba` + `demand_mw`, plus
//! `year`/`seed`), a strategy, and either one design point (`/evaluate`)
//! or a design space (`/explore`, `/optimal`). Parsing is strict: unknown
//! sites are 404, out-of-range values are 422, malformed shapes are 400.
//!
//! # Canonical keys
//!
//! [`ComputeRequest::canonical_key`] renders a request as a canonical
//! string — every float as the `{:016x}` hex of its IEEE-754 bits, every
//! enum as its `canonical_key()` wire name, defaults filled in — so two
//! requests that differ only in JSON formatting, field order, or spelled
//! defaults map to the same key. The key is the identity used for
//! response caching and in-flight coalescing; its hash (see
//! [`crate::hash`]) only ever picks a cache shard.
//!
//! # Determinism
//!
//! [`execute_with_manifest`] is a pure function of the request and the
//! explorer: it calls the same engine entry points a library caller would
//! and encodes with [`Json::encode`], so a served body is bitwise
//! identical to a direct in-process computation.

use crate::json::Json;
use crate::metrics::Endpoint;
use ce_core::provenance;
use ce_core::{
    CarbonExplorer, DesignPoint, DesignSpace, EvalScratch, EvaluatedDesign, Scenario, StrategyKind,
};
use ce_datacenter::Fleet;
use ce_grid::{BalancingAuthority, GridDataset};
use ce_manifest::Manifest;
use ce_timeseries::HourlySeries;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

/// A request the service refused, with the HTTP status to report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// HTTP status code (400, 404, or 422).
    pub status: u16,
    /// Human-readable reason, returned as `{"error": …}`.
    pub message: String,
}

impl RequestError {
    fn bad(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    fn unprocessable(message: impl Into<String>) -> Self {
        Self {
            status: 422,
            message: message.into(),
        }
    }

    fn not_found(message: impl Into<String>) -> Self {
        Self {
            status: 404,
            message: message.into(),
        }
    }
}

/// Validation limits for design spaces (guard rails against a single
/// request monopolizing a worker).
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum `steps` on any single axis.
    pub max_axis_steps: usize,
    /// Maximum total design points per `/explore` or `/optimal` request
    /// (after strategy restriction collapses inert axes).
    pub max_points: usize,
    /// Maximum `refine_rounds` on `/optimal`.
    pub max_refine_rounds: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_axis_steps: 512,
            max_points: 4096,
            max_refine_rounds: 8,
        }
    }
}

/// Where the demand trace comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandSource {
    /// A fleet site by state code (e.g. `"UT"`); demand is the site's
    /// synthesized trace and the grid is the site's balancing authority.
    Site(String),
    /// A flat demand at `demand_mw` on an explicitly chosen grid.
    Constant {
        /// The balancing authority to synthesize grid data for.
        ba: BalancingAuthority,
        /// Constant datacenter demand, MW.
        demand_mw: f64,
    },
}

/// The operational context a request evaluates against: demand source,
/// data year, and synthesis seed. One context = one [`CarbonExplorer`].
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// Demand/grid selection.
    pub source: DemandSource,
    /// Year of synthesized data.
    pub year: i32,
    /// Synthesis seed.
    pub seed: u64,
}

impl Context {
    /// The canonical string identifying this context (the explorer-cache
    /// key). Floats are rendered as IEEE-754 bit patterns.
    pub fn canonical_key(&self) -> String {
        let mut key = String::new();
        match &self.source {
            DemandSource::Site(state) => {
                let _ = write!(key, "site={state};");
            }
            DemandSource::Constant { ba, demand_mw } => {
                let _ = write!(key, "ba={};mw={:016x};", ba.code(), demand_mw.to_bits());
            }
        }
        let _ = write!(key, "year={};seed={};", self.year, self.seed);
        key
    }
}

/// Which compute endpoint a body was posted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeKind {
    /// `POST /evaluate`.
    Evaluate,
    /// `POST /explore`.
    Explore,
    /// `POST /optimal`.
    Optimal,
}

/// A fully validated compute request.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeRequest {
    /// Evaluate one design point.
    Evaluate {
        /// Operational context.
        ctx: Context,
        /// Strategy to evaluate under.
        strategy: StrategyKind,
        /// The design point.
        design: DesignPoint,
        /// Attach a provenance manifest to the response.
        manifest: bool,
    },
    /// Sweep a design space, returning every evaluation.
    Explore {
        /// Operational context.
        ctx: Context,
        /// Strategy to evaluate under.
        strategy: StrategyKind,
        /// The (unrestricted) design space.
        space: DesignSpace,
        /// Attach a provenance manifest to the response.
        manifest: bool,
    },
    /// Find the carbon-optimal design in a space.
    Optimal {
        /// Operational context.
        ctx: Context,
        /// Strategy to evaluate under.
        strategy: StrategyKind,
        /// The (unrestricted) design space.
        space: DesignSpace,
        /// Local grid-refinement rounds around the coarse optimum.
        refine_rounds: usize,
    },
}

impl ComputeRequest {
    /// Parses and validates a request body for `kind`.
    ///
    /// # Errors
    ///
    /// [`RequestError`] with status 400 (malformed shape), 404 (unknown
    /// site), or 422 (well-formed but out-of-range values).
    pub fn parse(kind: ComputeKind, body: &Json, limits: &Limits) -> Result<Self, RequestError> {
        if body.as_object().is_none() {
            return Err(RequestError::bad("request body must be a JSON object"));
        }
        let ctx = parse_context(body)?;
        let strategy = parse_strategy(body)?;
        match kind {
            ComputeKind::Evaluate => {
                let design = parse_design(body)?;
                let manifest = parse_manifest_flag(body)?;
                Ok(ComputeRequest::Evaluate {
                    ctx,
                    strategy,
                    design,
                    manifest,
                })
            }
            ComputeKind::Explore => {
                let space = parse_space(body, strategy, limits)?;
                let manifest = parse_manifest_flag(body)?;
                Ok(ComputeRequest::Explore {
                    ctx,
                    strategy,
                    space,
                    manifest,
                })
            }
            ComputeKind::Optimal => {
                let space = parse_space(body, strategy, limits)?;
                let refine_rounds = match body.get("refine_rounds") {
                    None => 0,
                    Some(v) => {
                        let n = as_index(v).ok_or_else(|| {
                            RequestError::bad("`refine_rounds` must be a non-negative integer")
                        })?;
                        if n > limits.max_refine_rounds {
                            return Err(RequestError::unprocessable(format!(
                                "`refine_rounds` exceeds the limit of {}",
                                limits.max_refine_rounds
                            )));
                        }
                        n
                    }
                };
                Ok(ComputeRequest::Optimal {
                    ctx,
                    strategy,
                    space,
                    refine_rounds,
                })
            }
        }
    }

    /// The operational context of this request.
    pub fn context(&self) -> &Context {
        match self {
            ComputeRequest::Evaluate { ctx, .. }
            | ComputeRequest::Explore { ctx, .. }
            | ComputeRequest::Optimal { ctx, .. } => ctx,
        }
    }

    /// The wire kind this request was posted as.
    pub fn kind(&self) -> ComputeKind {
        match self {
            ComputeRequest::Evaluate { .. } => ComputeKind::Evaluate,
            ComputeRequest::Explore { .. } => ComputeKind::Explore,
            ComputeRequest::Optimal { .. } => ComputeKind::Optimal,
        }
    }

    /// The metrics endpoint this request belongs to.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            ComputeRequest::Evaluate { .. } => Endpoint::Evaluate,
            ComputeRequest::Explore { .. } => Endpoint::Explore,
            ComputeRequest::Optimal { .. } => Endpoint::Optimal,
        }
    }

    /// For `/explore` requests, the number of effective design points the
    /// sweep will evaluate (after strategy restriction); `None` for other
    /// kinds. The server compares this against its streaming threshold to
    /// choose `content-length` vs `transfer-encoding: chunked` framing.
    pub fn explore_points(&self) -> Option<usize> {
        match self {
            ComputeRequest::Explore {
                strategy, space, ..
            } => Some(space.restricted_to(*strategy).len()),
            _ => None,
        }
    }

    /// The strategy this request evaluates under.
    pub fn strategy(&self) -> StrategyKind {
        match self {
            ComputeRequest::Evaluate { strategy, .. }
            | ComputeRequest::Explore { strategy, .. }
            | ComputeRequest::Optimal { strategy, .. } => *strategy,
        }
    }

    /// The canonical scenario key of this request (see the module docs).
    pub fn canonical_key(&self) -> String {
        let mut key = String::new();
        match self {
            ComputeRequest::Evaluate {
                ctx,
                strategy,
                design,
                manifest,
            } => {
                key.push_str("evaluate;");
                key.push_str(&ctx.canonical_key());
                let _ = write!(key, "strategy={};", strategy.canonical_key());
                push_bits(&mut key, "solar", design.solar_mw);
                push_bits(&mut key, "wind", design.wind_mw);
                push_bits(&mut key, "battery", design.battery_mwh);
                push_bits(&mut key, "extra", design.extra_capacity_fraction);
                if *manifest {
                    key.push_str("manifest=1;");
                }
            }
            ComputeRequest::Explore {
                ctx,
                strategy,
                space,
                manifest,
            } => {
                key.push_str("explore;");
                key.push_str(&ctx.canonical_key());
                let _ = write!(key, "strategy={};", strategy.canonical_key());
                push_space(&mut key, space);
                if *manifest {
                    key.push_str("manifest=1;");
                }
            }
            ComputeRequest::Optimal {
                ctx,
                strategy,
                space,
                refine_rounds,
            } => {
                key.push_str("optimal;");
                key.push_str(&ctx.canonical_key());
                let _ = write!(key, "strategy={};", strategy.canonical_key());
                push_space(&mut key, space);
                let _ = write!(key, "rounds={refine_rounds};");
            }
        }
        key
    }
}

fn push_bits(out: &mut String, name: &str, value: f64) {
    let _ = write!(out, "{name}={:016x};", value.to_bits());
}

fn push_space(out: &mut String, space: &DesignSpace) {
    for (name, (min, max, steps)) in [
        ("solar", space.solar),
        ("wind", space.wind),
        ("battery", space.battery),
        ("extra", space.extra_capacity),
    ] {
        let _ = write!(
            out,
            "{name}={:016x},{:016x},{steps};",
            min.to_bits(),
            max.to_bits()
        );
    }
}

/// 2^53 − 1, the largest integer `n` for which `n` and `n + 1` are both
/// exact `f64`s. Above it a JSON number may have been rounded to a
/// neighbour when it was parsed, so two different requests could share
/// one cache key.
const MAX_EXACT_INTEGER: f64 = 9_007_199_254_740_991.0;

/// Reads a JSON number as an exact integer in `0..=2^53 − 1`. The range
/// test also rejects NaN and both infinities, and a number in range has
/// `fract() >= 0`, so `fract() > 0` is exactly "not an integer".
fn as_index(v: &Json) -> Option<usize> {
    let n = v.as_f64()?;
    if !(0.0..=MAX_EXACT_INTEGER).contains(&n) || n.fract() > 0.0 {
        return None;
    }
    usize::try_from(n as u64).ok()
}

fn as_finite(v: &Json) -> Option<f64> {
    v.as_f64().filter(|n| n.is_finite())
}

/// Reads the optional `manifest` opt-in flag (absent means `false`).
fn parse_manifest_flag(body: &Json) -> Result<bool, RequestError> {
    match body.get("manifest") {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| RequestError::bad("`manifest` must be a boolean")),
    }
}

fn parse_context(body: &Json) -> Result<Context, RequestError> {
    let year = match body.get("year") {
        None => 2020,
        Some(v) => {
            let y = as_index(v)
                .ok_or_else(|| RequestError::bad("`year` must be a non-negative integer"))?;
            if !(1990..=2100).contains(&y) {
                return Err(RequestError::unprocessable("`year` must be in 1990..=2100"));
            }
            y as i32
        }
    };
    let seed = match body.get("seed") {
        None => 7,
        Some(v) => as_index(v)
            .ok_or_else(|| RequestError::bad("`seed` must be an integer in 0..=2^53 - 1"))?
            as u64,
    };
    let site = body.get("site");
    let ba = body.get("ba");
    let source = match (site, ba) {
        (Some(_), Some(_)) => {
            return Err(RequestError::bad("specify either `site` or `ba`, not both"));
        }
        (Some(site), None) => {
            let state = site
                .as_str()
                .ok_or_else(|| RequestError::bad("`site` must be a state-code string"))?;
            let fleet = Fleet::meta_us();
            if fleet.site(state).is_none() {
                let known: Vec<&str> = fleet.sites().iter().map(|s| s.state()).collect();
                return Err(RequestError::not_found(format!(
                    "unknown site `{state}`; known sites: {}",
                    known.join(", ")
                )));
            }
            DemandSource::Site(state.to_string())
        }
        (None, Some(ba)) => {
            let code = ba.as_str().ok_or_else(|| {
                RequestError::bad("`ba` must be a balancing-authority code string")
            })?;
            let ba = BalancingAuthority::ALL
                .into_iter()
                .find(|b| b.code() == code)
                .ok_or_else(|| {
                    let known: Vec<&str> =
                        BalancingAuthority::ALL.iter().map(|b| b.code()).collect();
                    RequestError::unprocessable(format!(
                        "unknown balancing authority `{code}`; known: {}",
                        known.join(", ")
                    ))
                })?;
            let demand_mw = body
                .get("demand_mw")
                .and_then(as_finite)
                .ok_or_else(|| RequestError::bad("`ba` requests need a finite `demand_mw`"))?;
            if demand_mw <= 0.0 || demand_mw > 1e6 {
                return Err(RequestError::unprocessable(
                    "`demand_mw` must be in (0, 1e6] MW",
                ));
            }
            DemandSource::Constant { ba, demand_mw }
        }
        (None, None) => {
            return Err(RequestError::bad(
                "one of `site` (state code) or `ba` (+ `demand_mw`) is required",
            ));
        }
    };
    Ok(Context { source, year, seed })
}

fn parse_strategy(body: &Json) -> Result<StrategyKind, RequestError> {
    let raw = body
        .get("strategy")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::bad("`strategy` is required and must be a string"))?;
    StrategyKind::from_canonical_key(raw).ok_or_else(|| {
        let known: Vec<&str> = StrategyKind::ALL
            .iter()
            .map(|s| s.canonical_key())
            .collect();
        RequestError::unprocessable(format!(
            "unknown strategy `{raw}`; known: {}",
            known.join(", ")
        ))
    })
}

fn design_field(design: &Json, name: &str, max: f64) -> Result<f64, RequestError> {
    let Some(v) = design.get(name) else {
        return Ok(0.0);
    };
    let n = as_finite(v).ok_or_else(|| {
        RequestError::bad(format!("design field `{name}` must be a finite number"))
    })?;
    if n < 0.0 || n > max {
        return Err(RequestError::unprocessable(format!(
            "design field `{name}` must be in [0, {max}]"
        )));
    }
    Ok(n)
}

fn parse_design(body: &Json) -> Result<DesignPoint, RequestError> {
    let design = body
        .get("design")
        .ok_or_else(|| RequestError::bad("`design` object is required"))?;
    if design.as_object().is_none() {
        return Err(RequestError::bad("`design` must be a JSON object"));
    }
    Ok(DesignPoint {
        solar_mw: design_field(design, "solar_mw", 1e7)?,
        wind_mw: design_field(design, "wind_mw", 1e7)?,
        battery_mwh: design_field(design, "battery_mwh", 1e8)?,
        extra_capacity_fraction: design_field(design, "extra_capacity_fraction", 10.0)?,
    })
}

fn parse_axis(
    space: &Json,
    name: &str,
    limits: &Limits,
) -> Result<(f64, f64, usize), RequestError> {
    let Some(v) = space.get(name) else {
        // An omitted axis is pinned at zero (one step), matching how
        // strategy restriction collapses inert axes.
        return Ok((0.0, 0.0, 1));
    };
    let arr = v
        .as_array()
        .filter(|a| a.len() == 3)
        .ok_or_else(|| RequestError::bad(format!("axis `{name}` must be `[min, max, steps]`")))?;
    let min = as_finite(&arr[0])
        .ok_or_else(|| RequestError::bad(format!("axis `{name}` min must be a finite number")))?;
    let max = as_finite(&arr[1])
        .ok_or_else(|| RequestError::bad(format!("axis `{name}` max must be a finite number")))?;
    let steps = as_index(&arr[2])
        .ok_or_else(|| RequestError::bad(format!("axis `{name}` steps must be an integer")))?;
    if min < 0.0 || max < min {
        return Err(RequestError::unprocessable(format!(
            "axis `{name}` needs 0 <= min <= max"
        )));
    }
    if steps == 0 || steps > limits.max_axis_steps {
        return Err(RequestError::unprocessable(format!(
            "axis `{name}` steps must be in 1..={}",
            limits.max_axis_steps
        )));
    }
    Ok((min, max, steps))
}

fn parse_space(
    body: &Json,
    strategy: StrategyKind,
    limits: &Limits,
) -> Result<DesignSpace, RequestError> {
    let space = body
        .get("space")
        .ok_or_else(|| RequestError::bad("`space` object is required"))?;
    if space.as_object().is_none() {
        return Err(RequestError::bad("`space` must be a JSON object"));
    }
    let parsed = DesignSpace {
        solar: parse_axis(space, "solar", limits)?,
        wind: parse_axis(space, "wind", limits)?,
        battery: parse_axis(space, "battery", limits)?,
        extra_capacity: parse_axis(space, "extra_capacity", limits)?,
    };
    let effective = parsed.restricted_to(strategy).len();
    if effective > limits.max_points {
        return Err(RequestError::unprocessable(format!(
            "space has {effective} effective points, over the limit of {}",
            limits.max_points
        )));
    }
    Ok(parsed)
}

/// Builds the [`CarbonExplorer`] for a context (grid synthesis + demand
/// trace — the expensive, cacheable part of serving a request).
///
/// # Errors
///
/// 404 for a site that disappeared between parse and build (cannot happen
/// through [`ComputeRequest::parse`], which validates sites eagerly).
pub fn build_explorer(ctx: &Context) -> Result<CarbonExplorer, RequestError> {
    match &ctx.source {
        DemandSource::Site(state) => {
            let fleet = Fleet::meta_us();
            let site = fleet
                .site(state)
                .ok_or_else(|| RequestError::not_found(format!("unknown site `{state}`")))?;
            let grid = GridDataset::synthesize(site.ba(), ctx.year, ctx.seed);
            Ok(CarbonExplorer::new(
                site.demand_trace(ctx.year, ctx.seed),
                grid,
            ))
        }
        DemandSource::Constant { ba, demand_mw } => {
            let grid = GridDataset::synthesize(*ba, ctx.year, ctx.seed);
            // Every grid series shares one clock, so the solar series sizes
            // the flat trace without computing the carbon intensity, which
            // `CarbonExplorer::new` computes anyway.
            let solar = grid.solar();
            let demand = HourlySeries::constant(solar.start(), solar.len(), *demand_mw);
            Ok(CarbonExplorer::new(demand, grid))
        }
    }
}

/// A small LRU of built [`CarbonExplorer`]s keyed by context canonical
/// key, shared by the worker pool. Contexts are few (a handful of sites ×
/// years) while designs are many, so a tiny cache removes the dominant
/// per-request cost for the common case.
pub struct ExplorerCache {
    inner: Mutex<Vec<(String, Arc<CarbonExplorer>)>>,
    capacity: usize,
    /// Lock-free entry gauge mirroring `inner.len()`, so `/stats` (served
    /// from inside the event loop) never touches the cache mutex.
    entries: std::sync::atomic::AtomicUsize,
}

impl ExplorerCache {
    /// Creates a cache holding at most `capacity` explorers (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            entries: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Returns the cached explorer for `ctx`, building (outside the lock)
    /// on a miss. Concurrent misses may build twice; both builds are
    /// deterministic and identical, so either result is correct.
    ///
    /// # Errors
    ///
    /// Propagates [`build_explorer`] failures.
    pub fn get_or_build(&self, ctx: &Context) -> Result<Arc<CarbonExplorer>, RequestError> {
        let key = ctx.canonical_key();
        {
            let mut cache = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(pos) = cache.iter().position(|(k, _)| *k == key) {
                // Move to the back: back = most recently used.
                let entry = cache.remove(pos);
                let explorer = Arc::clone(&entry.1);
                cache.push(entry);
                return Ok(explorer);
            }
        }
        let explorer = Arc::new(build_explorer(ctx)?);
        let mut cache = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if !cache.iter().any(|(k, _)| *k == key) {
            cache.push((key, Arc::clone(&explorer)));
            if cache.len() > self.capacity {
                cache.remove(0);
            }
            // ce:ordering(gauge shadow written under the cache mutex; the lock provides the ordering)
            self.entries
                .store(cache.len(), std::sync::atomic::Ordering::Relaxed);
        }
        Ok(explorer)
    }

    /// Number of cached explorers (a `/stats` gauge). Reads an atomic
    /// shadow of the locked length, so the event loop never contends on
    /// the cache mutex to render stats.
    pub fn entry_count(&self) -> usize {
        // ce:ordering(racy stats gauge; staleness is fine, no memory is published through it)
        self.entries.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A bounded registry of served manifests, content-addressed by result
/// hash: `GET /manifest/<result_hash>` answers from here. Workers insert
/// after computing a manifest-bearing response; the event loop looks up
/// inline. Insertion order is eviction order (FIFO) — a manifest is a
/// tiny immutable record, so recency tracking buys nothing.
pub struct ManifestStore {
    inner: Mutex<Vec<(Arc<str>, Arc<str>)>>,
    capacity: usize,
    /// Lock-free entry gauge mirroring `inner.len()` for `/stats`.
    entries: std::sync::atomic::AtomicUsize,
}

impl ManifestStore {
    /// Creates a store holding at most `capacity` manifests (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            entries: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Registers a manifest body under its result hash. Re-registering an
    /// existing hash is a no-op: content addressing means the body is
    /// already byte-identical.
    pub fn insert(&self, result_hash: &str, body: Arc<str>) {
        // ce:allow(blocking, reason = "one push under a lock readers hold for a bounded scan; only workers insert")
        let mut store = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if store.iter().any(|(hash, _)| hash.as_ref() == result_hash) {
            return;
        }
        store.push((Arc::from(result_hash), body));
        if store.len() > self.capacity {
            store.remove(0);
        }
        // ce:ordering(gauge shadow written under the registry mutex; the lock provides the ordering)
        self.entries
            .store(store.len(), std::sync::atomic::Ordering::Relaxed);
    }

    /// The manifest body registered under `result_hash`, if any.
    pub fn get(&self, result_hash: &str) -> Option<Arc<str>> {
        // ce:allow(blocking, reason = "bounded scan of a small vector; writers hold the lock for one push")
        let store = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        store
            .iter()
            .find(|(hash, _)| hash.as_ref() == result_hash)
            .map(|(_, body)| Arc::clone(body))
    }

    /// Number of registered manifests (a `/stats` gauge); reads the
    /// atomic shadow, never the lock.
    pub fn entry_count(&self) -> usize {
        // ce:ordering(racy stats gauge; staleness is fine, no memory is published through it)
        self.entries.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Renders one evaluation as the wire object: the strategy's canonical
/// key, the design point, and every [`EvaluatedDesign::canonical_fields`]
/// metric in its pinned order.
pub fn evaluation_json(eval: &EvaluatedDesign) -> Json {
    let design = Json::obj(vec![
        ("solar_mw", Json::Num(eval.design.solar_mw)),
        ("wind_mw", Json::Num(eval.design.wind_mw)),
        ("battery_mwh", Json::Num(eval.design.battery_mwh)),
        (
            "extra_capacity_fraction",
            Json::Num(eval.design.extra_capacity_fraction),
        ),
    ]);
    let mut fields = vec![
        ("strategy", Json::string(eval.strategy.canonical_key())),
        ("design", design),
    ];
    for (name, value) in eval.canonical_fields() {
        fields.push((name, Json::Num(value)));
    }
    Json::obj(fields)
}

/// The balancing authority a context's grid data is synthesized for —
/// the `ba` field stamped into provenance manifests.
fn ba_code(ctx: &Context) -> String {
    match &ctx.source {
        DemandSource::Site(state) => Fleet::meta_us()
            .site(state)
            .map(|site| site.ba().code().to_string())
            .unwrap_or_else(|| state.clone()),
        DemandSource::Constant { ba, .. } => ba.code().to_string(),
    }
}

/// The manifest `kind` string for a request's wire kind.
fn manifest_kind(kind: ComputeKind) -> &'static str {
    match kind {
        ComputeKind::Evaluate => "evaluate",
        ComputeKind::Explore => "explore",
        ComputeKind::Optimal => "optimal",
    }
}

/// Assembles the provenance manifest for a request whose evaluations are
/// in hand (the buffered paths). The input hash covers the request's
/// canonical key — the same string that is the cache/coalescing identity.
pub fn request_manifest(req: &ComputeRequest, evaluations: &[EvaluatedDesign]) -> Manifest {
    let ctx = req.context();
    provenance::build_manifest(
        manifest_kind(req.kind()),
        &ba_code(ctx),
        req.strategy().canonical_key(),
        &[ctx.year],
        &[ctx.seed],
        &req.canonical_key(),
        evaluations,
    )
}

/// Assembles the provenance manifest for a streamed `/explore` sweep from
/// the result digest a [`provenance::ResultHasher`] accumulated while the
/// groups went out. Produces bytes identical to [`request_manifest`] over
/// the same evaluations.
pub fn streamed_explore_manifest(req: &ComputeRequest, result_hash: String) -> Manifest {
    let ctx = req.context();
    provenance::manifest_with_result_hash(
        manifest_kind(req.kind()),
        &ba_code(ctx),
        req.strategy().canonical_key(),
        &[ctx.year],
        &[ctx.seed],
        &req.canonical_key(),
        result_hash,
    )
}

/// Renders a manifest as its wire object. Field order and spelling are
/// pinned to match [`Manifest::to_json`] byte-for-byte, so the inline
/// `manifest` block and the `GET /manifest/<hash>` body are the same
/// bytes.
pub fn manifest_json(manifest: &Manifest) -> Json {
    Json::obj(vec![
        ("schema", Json::Num(f64::from(manifest.schema))),
        ("kind", Json::string(manifest.kind.as_str())),
        ("ba", Json::string(manifest.ba.as_str())),
        ("strategy", Json::string(manifest.strategy.as_str())),
        (
            "years",
            Json::Arr(
                manifest
                    .years
                    .iter()
                    .map(|&y| Json::Num(f64::from(y)))
                    .collect(),
            ),
        ),
        (
            "seeds",
            Json::Arr(
                manifest
                    .seeds
                    .iter()
                    .map(|&s| Json::Num(s as f64))
                    .collect(),
            ),
        ),
        (
            "code_fingerprint",
            Json::string(manifest.code_fingerprint.as_str()),
        ),
        ("input_hash", Json::string(manifest.input_hash.as_str())),
        ("result_hash", Json::string(manifest.result_hash.as_str())),
    ])
}

/// The closing fragment of a streamed `/explore` body.
pub const EXPLORE_SUFFIX: &str = "]}";

/// The closing fragment of a manifest-bearing streamed `/explore` body:
/// closes the results array, then carries the `manifest` block the
/// buffered encoding would have placed after it.
pub fn explore_suffix_with_manifest(manifest: &Manifest) -> String {
    let mut suffix = String::from("],\"manifest\":");
    suffix.push_str(&manifest_json(manifest).encode());
    suffix.push('}');
    suffix
}

/// The opening fragment of a streamed `/explore` body: everything before
/// the first result. Built from the same [`Json`] encoders the buffered
/// path uses, so `explore_prefix + fragments… + `[`EXPLORE_SUFFIX`]`
/// concatenates to exactly the bytes [`execute_with_manifest`] would have
/// encoded.
pub fn explore_prefix(strategy: StrategyKind, count: usize) -> String {
    let mut prefix = String::from("{\"strategy\":");
    prefix.push_str(&Json::string(strategy.canonical_key()).encode());
    prefix.push_str(",\"count\":");
    prefix.push_str(&Json::Num(count as f64).encode());
    prefix.push_str(",\"results\":[");
    prefix
}

/// One supply group's worth of a streamed `/explore` body: the
/// evaluations encoded and comma-joined, with a leading comma when the
/// group is not the first (array elements are comma-separated, and the
/// previous fragment ended mid-array).
pub fn explore_group_fragment(evals: &[EvaluatedDesign], first: bool) -> String {
    let mut fragment = String::new();
    for (i, eval) in evals.iter().enumerate() {
        if !first || i > 0 {
            fragment.push(',');
        }
        fragment.push_str(&evaluation_json(eval).encode());
    }
    fragment
}

/// Executes a validated request against an explorer, also returning the
/// provenance manifest when the request opted in (`"manifest": true`).
/// Pure: same request + same explorer → byte-identical [`Json::encode`]
/// output, fresh or not. The manifest is both embedded in the response (a
/// trailing `manifest` field) and returned separately so the server can
/// register it for `GET /manifest/<result_hash>` lookups.
pub fn execute_with_manifest(
    req: &ComputeRequest,
    explorer: &CarbonExplorer,
    scratch: &mut EvalScratch,
) -> (Json, Option<Manifest>) {
    match req {
        ComputeRequest::Evaluate {
            strategy,
            design,
            manifest,
            ..
        } => {
            let eval = explorer.evaluate_with(*strategy, design, scratch);
            let mut json = evaluation_json(&eval);
            let built = manifest.then(|| request_manifest(req, std::slice::from_ref(&eval)));
            if let (Some(m), Json::Obj(fields)) = (&built, &mut json) {
                fields.push(("manifest".to_string(), manifest_json(m)));
            }
            (json, built)
        }
        ComputeRequest::Explore {
            strategy,
            space,
            manifest,
            ..
        } => {
            let results = explorer.explore(*strategy, space);
            let count = results.len();
            let built = manifest.then(|| request_manifest(req, &results));
            let mut fields = vec![
                ("strategy", Json::string(strategy.canonical_key())),
                ("count", Json::Num(count as f64)),
                (
                    "results",
                    Json::Arr(results.iter().map(evaluation_json).collect()),
                ),
            ];
            if let Some(m) = &built {
                fields.push(("manifest", manifest_json(m)));
            }
            (Json::obj(fields), built)
        }
        ComputeRequest::Optimal {
            strategy,
            space,
            refine_rounds,
            ..
        } => {
            let best = if *refine_rounds > 0 {
                explorer.optimal_refined(*strategy, space, *refine_rounds)
            } else {
                explorer.optimal(*strategy, space)
            };
            let json = match best {
                Some(best) => Json::obj(vec![
                    ("strategy", Json::string(strategy.canonical_key())),
                    ("found", Json::Bool(true)),
                    ("best", evaluation_json(&best)),
                ]),
                None => Json::obj(vec![
                    ("strategy", Json::string(strategy.canonical_key())),
                    ("found", Json::Bool(false)),
                ]),
            };
            (json, None)
        }
    }
}

/// The `GET /scenarios` body: the paper's supply scenarios and the four
/// strategies, each with its stable wire key and display label.
pub fn scenarios_json() -> Json {
    let scenarios = Scenario::ALL
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("key", Json::string(s.canonical_key())),
                ("label", Json::string(s.label())),
            ])
        })
        .collect();
    let strategies = StrategyKind::ALL
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("key", Json::string(s.canonical_key())),
                ("label", Json::string(s.label())),
                ("uses_battery", Json::Bool(s.uses_battery())),
                ("uses_cas", Json::Bool(s.uses_cas())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("scenarios", Json::Arr(scenarios)),
        ("strategies", Json::Arr(strategies)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_eval(body: &str) -> Result<ComputeRequest, RequestError> {
        ComputeRequest::parse(
            ComputeKind::Evaluate,
            &Json::parse(body).expect("valid JSON"),
            &Limits::default(),
        )
    }

    #[test]
    fn evaluate_parses_with_defaults() {
        let req = parse_eval(
            r#"{"site":"UT","strategy":"renewables_battery","design":{"solar_mw":100,"battery_mwh":50}}"#,
        )
        .expect("parses");
        let ComputeRequest::Evaluate {
            ctx,
            strategy,
            design,
            manifest,
        } = &req
        else {
            panic!("wrong variant");
        };
        assert_eq!(ctx.year, 2020);
        assert_eq!(ctx.seed, 7);
        assert_eq!(*strategy, StrategyKind::RenewablesBattery);
        assert_eq!(design.solar_mw, 100.0);
        assert_eq!(design.wind_mw, 0.0);
        assert_eq!(design.battery_mwh, 50.0);
        assert!(!manifest, "manifest defaults to off");
        assert_eq!(req.endpoint(), Endpoint::Evaluate);
    }

    #[test]
    fn canonical_key_ignores_field_order_and_spelled_defaults() {
        let a =
            parse_eval(r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100}}"#)
                .expect("parses");
        let b = parse_eval(
            r#"{"design":{"wind_mw":0,"solar_mw":100.0},"year":2020,"seed":7,"strategy":"renewables_only","site":"UT"}"#,
        )
        .expect("parses");
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn canonical_key_distinguishes_every_axis() {
        let base = r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100}}"#;
        let variants = [
            r#"{"site":"NE","strategy":"renewables_only","design":{"solar_mw":100}}"#,
            r#"{"site":"UT","strategy":"renewables_cas","design":{"solar_mw":100}}"#,
            r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":101}}"#,
            r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100},"seed":8}"#,
            r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100},"year":2021}"#,
        ];
        let base_key = parse_eval(base).expect("parses").canonical_key();
        for v in variants {
            assert_ne!(
                parse_eval(v).expect("parses").canonical_key(),
                base_key,
                "{v} collided"
            );
        }
    }

    #[test]
    fn rejections_carry_the_right_status() {
        let cases = [
            (r#"[1,2]"#, 400),
            (r#"{"strategy":"renewables_only","design":{}}"#, 400), // no site/ba
            (
                r#"{"site":"UT","ba":"PACE","strategy":"renewables_only","design":{}}"#,
                400,
            ),
            (
                r#"{"site":"ZZ","strategy":"renewables_only","design":{}}"#,
                404,
            ),
            (r#"{"site":"UT","strategy":"nope","design":{}}"#, 422),
            (r#"{"site":"UT","strategy":"renewables_only"}"#, 400), // no design
            (
                r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":-1}}"#,
                422,
            ),
            (
                r#"{"site":"UT","strategy":"renewables_only","design":{},"year":1200}"#,
                422,
            ),
            (
                r#"{"site":"UT","strategy":"renewables_only","design":{},"seed":1.5}"#,
                400,
            ),
            (
                r#"{"ba":"PACE","strategy":"renewables_only","design":{}}"#,
                400,
            ), // no demand_mw
            (
                r#"{"ba":"XXXX","demand_mw":10,"strategy":"renewables_only","design":{}}"#,
                422,
            ),
            (
                r#"{"ba":"PACE","demand_mw":0,"strategy":"renewables_only","design":{}}"#,
                422,
            ),
            // Integers an f64 cannot hold exactly, or that are not
            // integers at all, would otherwise be served as a neighbour.
            (
                r#"{"site":"UT","strategy":"renewables_only","design":{},"seed":9007199254740993}"#,
                400,
            ),
            (
                r#"{"site":"UT","strategy":"renewables_only","design":{},"seed":3.0000000001}"#,
                400,
            ),
            (
                r#"{"site":"UT","strategy":"renewables_only","design":{},"seed":18446744073709551616}"#,
                400,
            ),
            (
                r#"{"site":"UT","strategy":"renewables_only","design":{},"year":2020.0000000001}"#,
                400,
            ),
        ];
        for (body, status) in cases {
            let err = parse_eval(body).expect_err(body);
            assert_eq!(err.status, status, "{body} → {}", err.message);
        }
        let other_kinds = [
            (
                ComputeKind::Optimal,
                r#"{"site":"UT","strategy":"renewables_only","space":{"solar":[0,100,2]},"refine_rounds":1.5}"#,
                "refine_rounds",
            ),
            (
                ComputeKind::Explore,
                r#"{"site":"UT","strategy":"renewables_only","space":{"solar":[0,100,2.0000000001]}}"#,
                "steps",
            ),
        ];
        for (kind, body, field) in other_kinds {
            let json = Json::parse(body).expect("valid JSON");
            let err = ComputeRequest::parse(kind, &json, &Limits::default()).expect_err(body);
            assert_eq!(err.status, 400, "{body} → {}", err.message);
            assert!(err.message.contains(field), "{body} → {}", err.message);
        }
    }

    #[test]
    fn space_limits_apply_after_strategy_restriction() {
        let limits = Limits::default();
        let body = Json::parse(
            r#"{"site":"UT","strategy":"renewables_only",
                "space":{"solar":[0,100,64],"wind":[0,100,64],
                         "battery":[0,10,512],"extra_capacity":[0,1,512]}}"#,
        )
        .expect("valid JSON");
        // 64×64 = 4096 effective points: battery/extra axes collapse for
        // renewables_only, so this fits exactly.
        let req = ComputeRequest::parse(ComputeKind::Explore, &body, &limits).expect("fits");
        assert_eq!(req.endpoint(), Endpoint::Explore);
        // The same space under a battery strategy multiplies in the
        // battery axis and blows the budget.
        let body = Json::parse(
            r#"{"site":"UT","strategy":"renewables_battery",
                "space":{"solar":[0,100,64],"wind":[0,100,64],
                         "battery":[0,10,512],"extra_capacity":[0,1,512]}}"#,
        )
        .expect("valid JSON");
        let err = ComputeRequest::parse(ComputeKind::Explore, &body, &limits).expect_err("over");
        assert_eq!(err.status, 422);
    }

    #[test]
    fn axis_validation() {
        let limits = Limits::default();
        for (axis, status) in [
            (r#"{"solar":[0,100]}"#, 400),
            (r#"{"solar":[100,0,5]}"#, 422),
            (r#"{"solar":[0,100,0]}"#, 422),
            (r#"{"solar":[0,100,513]}"#, 422),
            (r#"{"solar":"wide"}"#, 400),
        ] {
            let body = Json::parse(&format!(
                r#"{{"site":"UT","strategy":"renewables_only","space":{axis}}}"#
            ))
            .expect("valid JSON");
            let err = ComputeRequest::parse(ComputeKind::Explore, &body, &limits).expect_err(axis);
            assert_eq!(err.status, status, "{axis}");
        }
    }

    #[test]
    fn optimal_refine_rounds_are_bounded() {
        let limits = Limits::default();
        let body = Json::parse(
            r#"{"site":"UT","strategy":"renewables_only","space":{"solar":[0,100,3]},"refine_rounds":99}"#,
        )
        .expect("valid JSON");
        let err = ComputeRequest::parse(ComputeKind::Optimal, &body, &limits).expect_err("over");
        assert_eq!(err.status, 422);
    }

    #[test]
    fn context_keys_separate_site_and_constant_sources() {
        let site = Context {
            source: DemandSource::Site("UT".to_string()),
            year: 2020,
            seed: 7,
        };
        let constant = Context {
            source: DemandSource::Constant {
                ba: BalancingAuthority::PACE,
                demand_mw: 25.0,
            },
            year: 2020,
            seed: 7,
        };
        assert_ne!(site.canonical_key(), constant.canonical_key());
        assert!(site.canonical_key().contains("site=UT"));
        assert!(constant.canonical_key().contains("ba=PACE"));
    }

    #[test]
    fn explorer_cache_hits_and_evicts() {
        let cache = ExplorerCache::new(1);
        let ut = Context {
            source: DemandSource::Constant {
                ba: BalancingAuthority::PACE,
                demand_mw: 5.0,
            },
            year: 2020,
            seed: 7,
        };
        let first = cache.get_or_build(&ut).expect("builds");
        let second = cache.get_or_build(&ut).expect("cached");
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit returns the same explorer"
        );
        assert_eq!(cache.entry_count(), 1);
        let other = Context {
            seed: 8,
            ..ut.clone()
        };
        let _ = cache.get_or_build(&other).expect("builds");
        assert_eq!(
            cache.entry_count(),
            1,
            "capacity 1 evicts the older context"
        );
        let rebuilt = cache.get_or_build(&ut).expect("rebuilds");
        assert!(!Arc::ptr_eq(&first, &rebuilt), "evicted context rebuilds");
    }

    #[test]
    fn execute_matches_direct_library_calls_bitwise() {
        let ctx = Context {
            source: DemandSource::Constant {
                ba: BalancingAuthority::PACE,
                demand_mw: 5.0,
            },
            year: 2020,
            seed: 7,
        };
        let explorer = build_explorer(&ctx).expect("builds");
        let design = DesignPoint {
            solar_mw: 40.0,
            wind_mw: 15.0,
            battery_mwh: 30.0,
            extra_capacity_fraction: 0.0,
        };
        let req = ComputeRequest::Evaluate {
            ctx,
            strategy: StrategyKind::RenewablesBattery,
            design,
            manifest: false,
        };
        let mut scratch = EvalScratch::default();
        let served = execute_with_manifest(&req, &explorer, &mut scratch)
            .0
            .encode();
        let direct = evaluation_json(&explorer.evaluate_with(
            StrategyKind::RenewablesBattery,
            &design,
            &mut EvalScratch::default(),
        ))
        .encode();
        assert_eq!(served, direct);
        // And the metric values round-trip bit-exactly through the wire.
        let parsed = Json::parse(&served).expect("parses");
        let eval = explorer.evaluate_with(
            StrategyKind::RenewablesBattery,
            &design,
            &mut EvalScratch::default(),
        );
        for (name, value) in eval.canonical_fields() {
            let wire = parsed.get(name).and_then(Json::as_f64).expect(name);
            assert_eq!(wire.to_bits(), value.to_bits(), "{name}");
        }
    }

    /// A `ba` + `demand_mw` context scores designs bit for bit like an
    /// explorer built straight from the library, with the flat trace
    /// sized by the grid's carbon intensity, in a leap and a common year.
    #[test]
    fn constant_demand_explorer_matches_a_direct_build() {
        let design = DesignPoint {
            solar_mw: 100.0,
            wind_mw: 50.0,
            battery_mwh: 40.0,
            extra_capacity_fraction: 0.2,
        };
        for year in [2020, 2021] {
            let ctx = Context {
                source: DemandSource::Constant {
                    ba: BalancingAuthority::PACE,
                    demand_mw: 20.0,
                },
                year,
                seed: 7,
            };
            let served = build_explorer(&ctx).expect("builds");
            let grid = GridDataset::synthesize(BalancingAuthority::PACE, year, 7);
            let intensity = grid.carbon_intensity();
            let demand = HourlySeries::constant(intensity.start(), intensity.len(), 20.0);
            let direct = CarbonExplorer::new(demand, grid);
            assert_eq!(served.demand(), direct.demand(), "{year}");
            for strategy in StrategyKind::ALL {
                let mut scratch = EvalScratch::default();
                let a = served.evaluate_with(strategy, &design, &mut scratch);
                let b = direct.evaluate_with(strategy, &design, &mut scratch);
                for ((name, x), (_, y)) in
                    a.canonical_fields().into_iter().zip(b.canonical_fields())
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "{year} {strategy:?} {name}");
                }
            }
        }
    }

    #[test]
    fn streamed_fragments_concatenate_to_the_buffered_encoding() {
        let ctx = Context {
            source: DemandSource::Constant {
                ba: BalancingAuthority::PACE,
                demand_mw: 5.0,
            },
            year: 2020,
            seed: 7,
        };
        let explorer = build_explorer(&ctx).expect("builds");
        let strategy = StrategyKind::RenewablesBattery;
        let space = DesignSpace {
            solar: (0.0, 100.0, 3),
            wind: (0.0, 100.0, 2),
            battery: (0.0, 50.0, 4),
            extra_capacity: (0.0, 0.0, 1),
        };
        let req = ComputeRequest::Explore {
            ctx,
            strategy,
            space: space.clone(),
            manifest: false,
        };
        let count = req.explore_points().expect("explore");
        assert_eq!(count, 3 * 2 * 4);
        let buffered = execute_with_manifest(&req, &explorer, &mut EvalScratch::default())
            .0
            .encode();

        let mut streamed = explore_prefix(strategy, count);
        let mut first = true;
        explorer.explore_groups(strategy, &space, |block| {
            streamed.push_str(&explore_group_fragment(block, first));
            first = false;
        });
        streamed.push_str(EXPLORE_SUFFIX);
        assert_eq!(streamed, buffered, "fragment concatenation differs");
    }

    #[test]
    fn manifest_flag_parses_and_keys_distinctly() {
        let plain =
            parse_eval(r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100}}"#)
                .expect("parses");
        let flagged = parse_eval(
            r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100},"manifest":true}"#,
        )
        .expect("parses");
        let spelled_off = parse_eval(
            r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100},"manifest":false}"#,
        )
        .expect("parses");
        assert!(matches!(
            flagged,
            ComputeRequest::Evaluate { manifest: true, .. }
        ));
        assert!(matches!(
            plain,
            ComputeRequest::Evaluate {
                manifest: false,
                ..
            }
        ));
        assert_ne!(
            plain.canonical_key(),
            flagged.canonical_key(),
            "a manifest-bearing response has different bytes, so it needs its own key"
        );
        assert_eq!(
            plain.canonical_key(),
            spelled_off.canonical_key(),
            "a spelled-out `manifest: false` is the default"
        );
        let err = parse_eval(
            r#"{"site":"UT","strategy":"renewables_only","design":{},"manifest":"yes"}"#,
        )
        .expect_err("non-boolean manifest");
        assert_eq!(err.status, 400);
    }

    #[test]
    fn manifest_wire_encoding_matches_the_crate_canonical_json() {
        // 2^53 - 1, the largest seed a request accepts, shows the f64 path
        // in `manifest_json` exact at the bound.
        for (body, seed) in [
            (
                r#"{"site":"UT","strategy":"renewables_battery","design":{"solar_mw":100,"battery_mwh":50},"manifest":true}"#,
                7,
            ),
            (
                r#"{"site":"UT","strategy":"renewables_only","design":{"solar_mw":100},"seed":9007199254740991,"manifest":true}"#,
                9_007_199_254_740_991,
            ),
        ] {
            let req = parse_eval(body).expect("parses");
            assert_eq!(req.context().seed, seed);
            let explorer = build_explorer(req.context()).expect("builds");
            let (_, manifest) = execute_with_manifest(&req, &explorer, &mut EvalScratch::default());
            let manifest = manifest.expect("manifest requested");
            assert_eq!(manifest.seeds, vec![seed]);
            assert_eq!(
                manifest_json(&manifest).encode(),
                manifest.to_json(),
                "served manifest bytes must equal ce-manifest's canonical JSON"
            );
        }
    }

    #[test]
    fn evaluate_manifest_verifies_against_recomputation() {
        let req = parse_eval(
            r#"{"site":"UT","strategy":"renewables_battery","design":{"solar_mw":100,"battery_mwh":50},"manifest":true}"#,
        )
        .expect("parses");
        let explorer = build_explorer(req.context()).expect("builds");
        let (json, manifest) = execute_with_manifest(&req, &explorer, &mut EvalScratch::default());
        let manifest = manifest.expect("manifest requested");
        assert_eq!(manifest.kind, "evaluate");
        assert_eq!(manifest.ba, "PACE", "UT's grid is PACE");
        assert_eq!(manifest.years, vec![2020]);
        assert_eq!(manifest.seeds, vec![7]);
        // The embedded block carries the same hashes.
        let block = json.get("manifest").expect("embedded manifest block");
        assert_eq!(
            block.get("result_hash").and_then(Json::as_str),
            Some(manifest.result_hash.as_str())
        );
        // Recomputing the evaluation from scratch reproduces both hashes.
        let ComputeRequest::Evaluate {
            strategy, design, ..
        } = &req
        else {
            panic!("wrong variant");
        };
        let fresh = explorer.evaluate_with(*strategy, design, &mut EvalScratch::default());
        assert_eq!(
            ce_manifest::verify(&manifest, |_| provenance::recomputed(
                &req.canonical_key(),
                std::slice::from_ref(&fresh)
            )),
            Ok(())
        );
    }

    #[test]
    fn manifest_streamed_fragments_concatenate_to_the_buffered_encoding() {
        let ctx = Context {
            source: DemandSource::Constant {
                ba: BalancingAuthority::PACE,
                demand_mw: 5.0,
            },
            year: 2020,
            seed: 7,
        };
        let explorer = build_explorer(&ctx).expect("builds");
        let strategy = StrategyKind::RenewablesBattery;
        let space = DesignSpace {
            solar: (0.0, 100.0, 3),
            wind: (0.0, 100.0, 2),
            battery: (0.0, 50.0, 4),
            extra_capacity: (0.0, 0.0, 1),
        };
        let req = ComputeRequest::Explore {
            ctx,
            strategy,
            space: space.clone(),
            manifest: true,
        };
        let count = req.explore_points().expect("explore");
        let (buffered, buffered_manifest) =
            execute_with_manifest(&req, &explorer, &mut EvalScratch::default());
        let buffered = buffered.encode();
        let buffered_manifest = buffered_manifest.expect("manifest requested");

        // The streamed path hashes group-by-group alongside the fragments.
        let mut streamed = explore_prefix(strategy, count);
        let mut first = true;
        let mut hasher = provenance::ResultHasher::new();
        explorer.explore_groups(strategy, &space, |block| {
            hasher.absorb(block);
            streamed.push_str(&explore_group_fragment(block, first));
            first = false;
        });
        let manifest = streamed_explore_manifest(&req, hasher.finish_hex());
        assert_eq!(manifest, buffered_manifest, "streamed manifest differs");
        streamed.push_str(&explore_suffix_with_manifest(&manifest));
        assert_eq!(streamed, buffered, "fragment concatenation differs");
    }

    #[test]
    fn manifest_store_is_bounded_and_content_addressed() {
        let store = ManifestStore::new(2);
        store.insert("aaaa", Arc::from("{\"a\":1}"));
        store.insert("bbbb", Arc::from("{\"b\":2}"));
        assert_eq!(store.entry_count(), 2);
        assert_eq!(store.get("aaaa").as_deref(), Some("{\"a\":1}"));
        // Re-registering the same hash never replaces the body.
        store.insert("aaaa", Arc::from("{\"a\":999}"));
        assert_eq!(store.get("aaaa").as_deref(), Some("{\"a\":1}"));
        assert_eq!(store.entry_count(), 2);
        // A third distinct hash evicts the oldest.
        store.insert("cccc", Arc::from("{\"c\":3}"));
        assert_eq!(store.entry_count(), 2);
        assert!(store.get("aaaa").is_none(), "oldest entry evicted");
        assert!(store.get("cccc").is_some());
    }

    #[test]
    fn scenarios_json_lists_canonical_keys() {
        let json = scenarios_json();
        let scenarios = json.get("scenarios").and_then(Json::as_array).expect("arr");
        assert_eq!(scenarios.len(), Scenario::ALL.len());
        assert_eq!(
            scenarios[0].get("key").and_then(Json::as_str),
            Some("grid_mix")
        );
        let strategies = json
            .get("strategies")
            .and_then(Json::as_array)
            .expect("arr");
        assert_eq!(strategies.len(), StrategyKind::ALL.len());
        for s in strategies {
            let key = s.get("key").and_then(Json::as_str).expect("key");
            assert!(StrategyKind::from_canonical_key(key).is_some(), "{key}");
        }
    }
}
