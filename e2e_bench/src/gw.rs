//! The gateway workloads, `gw_light` and `gw_household_day`: an
//! in-process `nilm_serve::Gateway` under open-loop traffic from
//! [`crate::openloop`], every response checked byte for byte against a
//! body built locally with `camal::stream::serve` and
//! `protocol::localize_response`.

use camal::registry::ModelKey;
use camal::stream::{serve, HouseholdSeries, HouseholdTimeline, StreamConfig};
use camal::CamalModel;
use nilm_data::prelude::*;
use nilm_data::preprocess::resample;
use nilm_json::JsonValue;
use nilm_serve::http::{HttpLimits, RequestParser};
use nilm_serve::protocol::{
    localize_request, localize_response, parse_localize, Detail, HouseholdRow,
};
use nilm_serve::{Gateway, GatewayConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use crate::common::*;
use crate::host::{nproc, winner_table};
use crate::openloop::{
    localize_bytes, reported_ms, rung_passes, top_passing_rung, Client, OpenLoop, Payload,
    RungResult,
};
use crate::report::{Metrics, Outcome};
use crate::stats::{mean, median};
use crate::Run;

/// The shape of one gateway workload.
pub struct GwSpec {
    /// Workload name.
    pub name: &'static str,
    /// Offered rates of the ladder, ascending, requests per second.
    pub rungs: &'static [f64],
    /// The rung latency is reported at.
    pub nominal: f64,
    /// Limit a rung's latency tail must meet, milliseconds.
    pub limit_ms: f64,
    /// Response detail requested.
    pub detail: Detail,
    /// Distinct requests in the payload pool.
    pub pool: usize,
    /// Most requests one batcher pass is warmed for.
    pub warm_merge: usize,
    /// Segments of an untraced run. Each starts a fresh gateway (new
    /// threads, so a new placement on the cores) after a fresh set-up
    /// (autotuner races included), so neither one placement nor one
    /// unlucky race sets the figures of a whole run.
    pub segments: usize,
}

/// Tiny single-member model, 1 window per request, summary detail: the
/// front end dominates.
pub const LIGHT: GwSpec = GwSpec {
    name: "gw_light",
    rungs: &[1000.0, 2000.0, 3000.0],
    nominal: 2000.0,
    limit_ms: 2.0,
    detail: Detail::Summary,
    pool: 64,
    warm_merge: 64,
    segments: 8,
};

/// Paper-shaped three-appliance zoo, one household-day per request, full
/// detail: inference dominates.
pub const HOUSEHOLD_DAY: GwSpec = GwSpec {
    name: "gw_household_day",
    rungs: &[10.0, 15.0, 20.0],
    nominal: 15.0,
    limit_ms: 100.0,
    detail: Detail::Full,
    pool: 16,
    warm_merge: 6,
    segments: 3,
};

const LIGHT_WINDOW: usize = 32;
/// Share of the measured time the nominal rung gets; the other rungs
/// split the rest.
const NOMINAL_SHARE: f64 = 0.7;

fn is_light(spec: &GwSpec) -> bool {
    spec.name == LIGHT.name
}

fn keys(spec: &GwSpec) -> Vec<ModelKey> {
    if is_light(spec) {
        vec![refit_key(ApplianceKind::Kettle)]
    } else {
        ZOO.iter().map(|&k| refit_key(k)).collect()
    }
}

fn window(spec: &GwSpec) -> usize {
    if is_light(spec) {
        LIGHT_WINDOW
    } else {
        ZOO_WINDOW
    }
}

fn models(spec: &GwSpec, seed: u64) -> Vec<(ModelKey, CamalModel)> {
    if is_light(spec) {
        vec![(refit_key(ApplianceKind::Kettle), nilm_bench::bench_fleet_model(LIGHT_WINDOW, seed))]
    } else {
        zoo_models(seed)
    }
}

/// One household per request: a 32-sample slice of a simulated day for
/// `gw_light`, a whole simulated day (1,440 samples) otherwise.
fn households(spec: &GwSpec, seed: u64) -> Vec<HouseholdSeries> {
    if is_light(spec) {
        let days = household_feeds(2, 1, seed);
        (0..spec.pool)
            .map(|j| {
                let src = &days[j % days.len()];
                let start = (j / days.len()) * LIGHT_WINDOW;
                let values = src.series.values[start..start + LIGHT_WINDOW].to_vec();
                HouseholdSeries {
                    id: format!("{}-w{j}", src.id),
                    series: TimeSeries::new(values, src.series.step_s),
                }
            })
            .collect()
    } else {
        household_feeds(spec.pool, 1, seed)
    }
}

/// The response timelines a direct `stream::serve` computes, per
/// household, one per key.
fn reference_timelines(
    spec: &GwSpec,
    models: &mut [(ModelKey, CamalModel)],
    households: &[HouseholdSeries],
) -> Vec<Vec<HouseholdTimeline>> {
    let mut per_key: Vec<Vec<HouseholdTimeline>> = Vec::new();
    for (key, model) in models.iter_mut() {
        let tmpl = template(key.dataset);
        let avg = tmpl.case(key.appliance).map_or(1000.0, |c| c.avg_power_w);
        let cfg = StreamConfig {
            window: window(spec),
            step_s: tmpl.step_s,
            max_ffill_s: 3 * tmpl.step_s,
            batch: BATCH,
            appliance: Some(key.appliance),
            avg_power_w: avg,
        };
        per_key.push(serve(model, households, &cfg));
    }
    (0..households.len()).map(|h| per_key.iter().map(|tls| tls[h].clone()).collect()).collect()
}

fn response_body(
    keys: &[ModelKey],
    household: &HouseholdSeries,
    timelines: &[HouseholdTimeline],
    detail: Detail,
) -> Vec<u8> {
    let row =
        HouseholdRow { id: &household.id, timelines: timelines.iter().collect(), degraded: None };
    localize_response(keys, &[row], detail).to_compact().into_bytes()
}

struct Setup {
    gateway: Gateway,
    households: Vec<HouseholdSeries>,
    bodies: Vec<Vec<u8>>,
    setup_s: f64,
    /// Batch sizes the warm-up raced, and how long that took.
    warm_sizes: Vec<usize>,
    warm_s: f64,
}

/// Every batch size (windows per `localize_batch` call) a coalesced
/// gateway pass over up to `spec.warm_merge` requests can meet: a pass
/// scores the windows of all its requests in chunks of [`BATCH`], a
/// request holds at most one window per `window` samples, and all models
/// of a zoo share their shapes. The set does not depend on which windows
/// a seed's missing readings leave valid: racing only the sizes a seed's
/// pool meets made `gw_household_day`'s set-up time follow the seed, from
/// 1.2 s to 3.9 s.
fn coalesced_batch_sizes(spec: &GwSpec, households: &[HouseholdSeries]) -> Vec<usize> {
    let step_s = gateway_fleet_config(1).step_s;
    let most = households
        .iter()
        .map(|h| resample(&h.series, step_s).len() / window(spec))
        .max()
        .unwrap_or(1);
    (1..=BATCH.min(spec.warm_merge * most)).collect()
}

/// Runs `localize_batch` once at each of `sizes` windows; seconds taken.
fn warm_batch_sizes(
    model: &mut CamalModel,
    households: &[HouseholdSeries],
    window: usize,
    sizes: &[usize],
) -> f64 {
    let t = Instant::now();
    for &n in sizes {
        std::hint::black_box(model.localize_batch(&input_batch(households, window, n)));
    }
    t.elapsed().as_secs_f64()
}

/// What a user pays before the first request: data generation, model
/// build, gateway start and warm-up, autotuner races included (the
/// winner cache is cleared first). The warm-up races every batch shape
/// the measured traffic is expected to meet: a shape first met while
/// measuring races inside a request, running each kernel nine times, and
/// the backlog that builds coalesces into further new shapes.
fn setup(spec: &GwSpec, seed: u64) -> Result<Setup, String> {
    nilm_tensor::dispatch::clear_choices();
    let start = Instant::now();
    let keys = keys(spec);
    let households = households(spec, seed);
    let gateway = Gateway::start(registry_of(models(spec, seed)), GatewayConfig::default())
        .map_err(|e| format!("gateway start: {e}"))?;
    let bodies: Vec<Vec<u8>> = households
        .iter()
        .map(|h| {
            localize_request(&keys, std::slice::from_ref(h), spec.detail).to_compact().into_bytes()
        })
        .collect();
    let warm_sizes = coalesced_batch_sizes(spec, &households);
    let mut model = models(spec, seed).swap_remove(0).1;
    let warm_s = warm_batch_sizes(&mut model, &households, window(spec), &warm_sizes);
    let mut client = Client::connect(gateway.addr()).map_err(|e| format!("connect: {e}"))?;
    for (i, body) in bodies.iter().enumerate() {
        let resp = client
            .exchange(&localize_bytes(body, 0xF000_0000 + i as u64 + 1))
            .map_err(|e| format!("warm-up request: {e}"))?;
        if resp.status != 200 {
            return Err(format!("warm-up request answered {}", resp.status));
        }
    }
    Ok(Setup {
        gateway,
        households,
        bodies,
        setup_s: start.elapsed().as_secs_f64(),
        warm_sizes,
        warm_s,
    })
}

fn rung_json(r: &RungResult, limit_ms: f64) -> JsonValue {
    JsonValue::object([
        ("rate", JsonValue::Number(r.schedule.rate)),
        ("requests", JsonValue::Number(r.attempted() as f64)),
        ("failed", JsonValue::Number(r.failed as f64)),
        ("mismatched", JsonValue::Number(r.mismatched as f64)),
        ("p50_ms", JsonValue::Number(reported_ms(r.latency_q(0.5)))),
        ("p75_ms", JsonValue::Number(reported_ms(r.latency_q(0.75)))),
        ("p90_ms", JsonValue::Number(reported_ms(r.tail_ms()))),
        ("p99_ms", JsonValue::Number(reported_ms(r.latency_q(0.99)))),
        ("send_lag_p99_ms", JsonValue::Number(r.lag_p99_ms())),
        ("cpu_ms_per_req", JsonValue::Number(r.cpu_ms_per_ok())),
        ("max_in_flight", JsonValue::Number(r.max_in_flight as f64)),
        ("backlog", JsonValue::Number(r.backlog())),
        ("passed", JsonValue::Bool(rung_passes(r, limit_ms))),
    ])
}

/// One pass over the ladder.
struct Ladder {
    /// Every rung, in ladder order.
    rungs: Vec<RungResult>,
    /// Index of the nominal rung.
    nominal: usize,
}

/// Runs the whole ladder, ascending, in `seconds`.
fn run_ladder(
    spec: &GwSpec,
    gen: &mut OpenLoop,
    pool: &[Payload],
    seconds: f64,
    tag: u64,
    after_nominal: &mut dyn FnMut(&RungResult),
) -> Ladder {
    let others = (spec.rungs.len() - 1).max(1) as f64;
    let mut ladder = Ladder { rungs: Vec::new(), nominal: 0 };
    for (k, &rate) in spec.rungs.iter().enumerate() {
        let is_nominal = rate == spec.nominal;
        let share = if is_nominal { NOMINAL_SHARE } else { (1.0 - NOMINAL_SHARE) / others };
        let r = gen.run(rate, seconds * share, pool, (tag << 48) | ((k as u64 + 1) << 32));
        if is_nominal {
            ladder.nominal = k;
            after_nominal(&r);
        }
        ladder.rungs.push(r);
    }
    ladder
}

/// Goodput: good replies per second at the highest rung of the passing
/// prefix of the ladder; 0 when the lowest rung failed.
fn ladder_goodput(spec: &GwSpec, rungs: &[RungResult]) -> f64 {
    let marks: Vec<(f64, bool)> =
        rungs.iter().map(|r| (r.schedule.rate, rung_passes(r, spec.limit_ms))).collect();
    top_passing_rung(&marks).map_or(0.0, |i| rungs[i].ok_per_s())
}

/// The generator fell behind when its sends ran later than half the
/// latency limit at p99; such a rung measured the client, not the server.
fn generator_valid(spec: &GwSpec, r: &RungResult) -> bool {
    r.lag_p99_ms() <= spec.limit_ms / 2.0
}

/// Set up until enough set-ups ran for this segment; keeps the last one.
fn segment_setup(
    spec: &GwSpec,
    seed: u64,
    setups: &mut Vec<f64>,
    winners: &mut Vec<Vec<String>>,
) -> Result<Setup, String> {
    let mut times = Vec::new();
    let mut live: Option<Setup> = None;
    while !segment_setups_done(&times) {
        if let Some(previous) = live.take() {
            previous.gateway.shutdown();
        }
        let s = setup(spec, seed)?;
        times.push(s.setup_s);
        live = Some(s);
    }
    setups.extend(times);
    winners.push(winner_table());
    Ok(live.expect("at least one set-up"))
}

/// A run of a gateway workload: `spec.segments` segments, each a fresh
/// set-up (and autotune) followed by the whole ladder; rungs of one rate
/// are pooled across segments.
pub fn run(spec: &GwSpec, run: &Run) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut winners: Vec<Vec<String>> = Vec::new();
    let mut s = segment_setup(spec, run.seed, &mut setups, &mut winners)?;
    let keys = keys(spec);
    // The reference zoo is dropped before any traffic, so the measured
    // heap holds only the gateway's models.
    let reference = reference_timelines(spec, &mut models(spec, run.seed), &s.households);
    let pool: Vec<Payload> = std::mem::take(&mut s.bodies)
        .into_iter()
        .zip(s.households.iter().zip(&reference))
        .map(|(body, (h, tls))| Payload {
            body,
            expected: response_body(&keys, h, tls, spec.detail),
        })
        .collect();
    let conns = nproc();
    let mut details: Vec<(&'static str, JsonValue)> = vec![
        ("connections", JsonValue::Number(conns as f64)),
        ("limit_ms", JsonValue::Number(spec.limit_ms)),
        ("nominal_rps", JsonValue::Number(spec.nominal)),
    ];
    let mut outcome = if run.trace {
        traced(spec, run, s, &keys, &pool, &reference, &mut details)?
    } else {
        let mut live = Some(s);
        let mut rungs: Vec<RungResult> = Vec::new();
        let mut nominal = 0;
        let mut races_while_measuring = 0;
        for segment in 0..spec.segments {
            let s = match live.take() {
                Some(s) => s,
                None => segment_setup(spec, run.seed, &mut setups, &mut winners)?,
            };
            let addr = s.gateway.addr();
            let mut gen = OpenLoop::connect(addr, conns).map_err(|e| format!("connect: {e}"))?;
            let secs = run.seconds / spec.segments as f64;
            let tuned = nilm_tensor::dispatch::tuned_entries().len();
            let seg = run_ladder(spec, &mut gen, &pool, secs, segment as u64 + 1, &mut |_| {});
            races_while_measuring += nilm_tensor::dispatch::tuned_entries().len() - tuned;
            drop(gen);
            s.gateway.shutdown();
            nominal = seg.nominal;
            if rungs.is_empty() {
                rungs = seg.rungs;
            } else {
                rungs.iter_mut().zip(seg.rungs).for_each(|(all, r)| all.absorb(r));
            }
        }
        let nom = &rungs[nominal];
        let attempted: usize = rungs.iter().map(RungResult::attempted).sum();
        let failed: usize = rungs.iter().map(|r| r.failed).sum();
        let mismatched: usize = rungs.iter().map(|r| r.mismatched).sum();
        let mut metrics = Metrics::default();
        metrics.set("setup_s", median(&setups), "s");
        metrics.set("latency_p50_ms", nom.latency_q(0.5), "ms");
        metrics.set("latency_p75_ms", nom.latency_q(0.75), "ms");
        metrics.set("latency_p90_ms", nom.tail_ms(), "ms");
        metrics.set("latency_p99_ms", nom.latency_q(0.99), "ms");
        metrics.set("goodput_rps", ladder_goodput(spec, &rungs), "1/s");
        metrics.set("serve.cpu_ms_per_req", nom.cpu_ms_per_ok(), "ms");
        let valid = rungs.iter().all(|r| generator_valid(spec, r));
        metrics.set("latency_samples", nom.attempted() as f64, "count");
        details.push(("nominal_samples", JsonValue::Number(nom.attempted() as f64)));
        details.push((
            "failed_pct",
            JsonValue::Number(100.0 * failed as f64 / attempted.max(1) as f64),
        ));
        details.push(("generator_valid", JsonValue::Bool(valid)));
        metrics.set("generator_valid", f64::from(u8::from(valid)), "flag");
        details.push((
            "autotune_races_while_measuring",
            JsonValue::Number(races_while_measuring as f64),
        ));
        details.push((
            "rungs",
            JsonValue::Array(rungs.iter().map(|r| rung_json(r, spec.limit_ms)).collect()),
        ));
        // `gw_light`'s warm-up races every batch size its traffic can
        // coalesce into, so a race while measuring there is a stall the
        // program caused, which its gated latency (the p50) would not
        // show unless it delayed half of the requests: the run fails its
        // check.
        let stalls_ok = !is_light(spec) || races_while_measuring == 0;
        Outcome {
            correct: mismatched == 0 && stalls_ok,
            attempted,
            failed,
            metrics,
            details: Vec::new(),
            winners: winner_table(),
        }
    };
    details.push((
        "setup_s_reps",
        JsonValue::Array(setups.iter().map(|&s| JsonValue::Number(s)).collect()),
    ));
    details.push((
        "autotune_winners_differ_between_setups",
        JsonValue::Bool(winners.windows(2).any(|w| w[0] != w[1])),
    ));
    outcome.details = details;
    Ok(outcome)
}

fn get_json(addr: SocketAddr, path: &str) -> Result<JsonValue, String> {
    let resp = Client::connect(addr)
        .and_then(|mut c| c.get(path))
        .map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path} answered {}", resp.status));
    }
    nilm_json::parse(&String::from_utf8_lossy(&resp.body)).map_err(|e| format!("GET {path}: {e}"))
}

fn num(doc: &JsonValue, path: &[&str]) -> f64 {
    let mut v = doc;
    for p in path {
        match v.get(p) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// A stage's mean (ms) between two `/metrics` snapshots, from the counts
/// and means of the cumulative histograms.
fn stage_mean_ms(m0: &JsonValue, m1: &JsonValue, stage: &str) -> f64 {
    let (c0, c1) = (num(m0, &["stages", stage, "count"]), num(m1, &["stages", stage, "count"]));
    let (s0, s1) =
        (c0 * num(m0, &["stages", stage, "mean_ms"]), c1 * num(m1, &["stages", stage, "mean_ms"]));
    if c1 > c0 {
        (s1 - s0) / (c1 - c0)
    } else {
        0.0
    }
}

fn stage_sum_ms(m0: &JsonValue, m1: &JsonValue, stage: &str) -> f64 {
    let c =
        |m: &JsonValue| num(m, &["stages", stage, "count"]) * num(m, &["stages", stage, "mean_ms"]);
    c(m1) - c(m0)
}

/// Self time per span name, averaged over the sampled traces, plus the
/// mean span count per trace. A span's self time is its duration minus
/// the part of its interval its children cover (children on parallel
/// threads overlap, so their durations are not summed).
fn trace_self_times(addr: SocketAddr, ids: &[u64]) -> (BTreeMap<String, f64>, f64, usize) {
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut spans_total = 0usize;
    let mut traces = 0usize;
    for &id in ids {
        let path = format!("/debug/trace?id={}", nilm_obs::trace::TraceId(id).to_hex());
        let Ok(doc) = get_json(addr, &path) else { continue };
        let Some(spans) = doc.get("spans").and_then(JsonValue::as_array) else { continue };
        let rows: Vec<TraceSpan> = spans
            .iter()
            .map(|s| TraceSpan {
                id: num(s, &["span"]) as u64,
                parent: num(s, &["parent"]) as u64,
                name: s.get("name").and_then(JsonValue::as_str).unwrap_or("").to_string(),
                start_us: num(s, &["start_us"]),
                dur_us: num(s, &["dur_us"]),
            })
            .collect();
        for (name, own) in self_times(&rows) {
            *totals.entry(name).or_default() += own;
        }
        spans_total += rows.len();
        traces += 1;
    }
    let n = traces.max(1) as f64;
    (totals.into_iter().map(|(k, v)| (k, v / n)).collect(), spans_total as f64 / n, traces)
}

/// One span of a `/debug/trace` tree.
struct TraceSpan {
    id: u64,
    parent: u64,
    name: String,
    start_us: f64,
    dur_us: f64,
}

/// Each span's name and self time, in microseconds.
fn self_times(spans: &[TraceSpan]) -> Vec<(String, f64)> {
    spans
        .iter()
        .map(|s| {
            let end = s.start_us + s.dur_us;
            let mut kids: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == s.id && c.id != s.id)
                .map(|c| (c.start_us.max(s.start_us), (c.start_us + c.dur_us).min(end)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.name.clone(), (s.dur_us - covered).max(0.0))
        })
        .collect()
}

/// Span names whose self time the ledger reports.
pub const SPAN_NAMES: [(&str, &str); 9] = [
    ("request", "trace.self_us.request"),
    ("parse", "trace.self_us.parse"),
    ("queue_wait", "trace.self_us.queue_wait"),
    ("coalesce", "trace.self_us.coalesce"),
    ("preprocess", "trace.self_us.preprocess"),
    ("infer", "trace.self_us.infer"),
    ("kernel", "trace.self_us.kernel"),
    ("stitch", "trace.self_us.stitch"),
    ("write", "trace.self_us.write"),
];

/// The traced run: the ladder untraced, then on a fresh gateway the
/// ladder traced, then direct probes of each layer on the workload's own
/// bytes.
#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &GwSpec,
    run: &Run,
    s: Setup,
    keys: &[ModelKey],
    pool: &[Payload],
    reference: &[Vec<HouseholdTimeline>],
    details: &mut Vec<(&'static str, JsonValue)>,
) -> Result<Outcome, String> {
    let mut metrics = Metrics::default();
    let metrics = &mut metrics;
    let conns = nproc();
    let ladder_s = run.seconds * 0.35;
    // The warm-up again, every shape now cached: the difference is the
    // races' cost.
    let mut model = models(spec, run.seed).swap_remove(0).1;
    let rerun_s = warm_batch_sizes(&mut model, &s.households, window(spec), &s.warm_sizes);
    metrics.set("tensor.autotune_s", (s.warm_s - rerun_s).max(0.0), "s");

    // Closed loop, one request in flight: the handoff chain alone.
    let rtt_n = if is_light(spec) { 400 } else { 20 };
    let mut client = Client::connect(s.gateway.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut rtts = Vec::with_capacity(rtt_n);
    for i in 0..rtt_n {
        let bytes = localize_bytes(&pool[i % pool.len()].body, 0xE000_0000 + i as u64 + 1);
        let t = Instant::now();
        let ok = client.exchange(&bytes).map(|r| r.status == 200).unwrap_or(false);
        if ok {
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(client);
    metrics.set("serve.rtt_closed_us", median(&rtts), "us");

    let addr = s.gateway.addr();
    let mut gen = OpenLoop::connect(addr, conns).map_err(|e| format!("connect: {e}"))?;
    let Ladder { rungs: plain, nominal } =
        run_ladder(spec, &mut gen, pool, ladder_s, 1, &mut |_| {});
    drop(gen);
    s.gateway.shutdown();

    // Fresh gateway, tracing on: its histograms hold only this phase.
    nilm_obs::trace::set_enabled(true);
    nilm_obs::trace::clear();
    let gateway = Gateway::start(registry_of(models(spec, run.seed)), GatewayConfig::default())
        .map_err(|e| format!("gateway start: {e}"))?;
    let addr = gateway.addr();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for (i, p) in pool.iter().enumerate() {
        let _ = client.exchange(&localize_bytes(&p.body, 0xD000_0000 + i as u64 + 1));
    }
    drop(client);
    let m0 = get_json(addr, "/metrics")?;
    let k0 = kernel_snapshot();
    let sample = if is_light(spec) { 30 } else { 3 };
    let mut sampled = (BTreeMap::new(), 0.0, 0usize);
    let mut gen = OpenLoop::connect(addr, conns).map_err(|e| format!("connect: {e}"))?;
    let traced_rungs = run_ladder(spec, &mut gen, pool, ladder_s, 2, &mut |r| {
        let ok_ids: Vec<u64> = r
            .trace_ids
            .iter()
            .zip(&r.latency_ms)
            .filter(|(_, l)| l.is_finite())
            .map(|(id, _)| *id)
            .collect();
        sampled = trace_self_times(addr, &ok_ids[ok_ids.len().saturating_sub(sample)..]);
    })
    .rungs;
    drop(gen);
    let winners = winner_table();
    let k1 = kernel_snapshot();
    let m1 = get_json(addr, "/metrics")?;
    gateway.shutdown();
    nilm_obs::trace::set_enabled(false);

    // Serving stages, from the traced gateway's histograms.
    let stage_names = ["parse", "queue_wait", "coalesce", "preprocess", "infer", "stitch", "write"];
    let stage_means: BTreeMap<&str, f64> =
        stage_names.iter().map(|&n| (n, stage_mean_ms(&m0, &m1, n))).collect();
    for (name, mean_key, p99_key) in [
        ("parse", "serve.stage.parse_us_mean", "serve.stage.parse_us_p99"),
        ("queue_wait", "serve.stage.queue_wait_us_mean", "serve.stage.queue_wait_us_p99"),
        ("coalesce", "serve.stage.coalesce_us_mean", "serve.stage.coalesce_us_p99"),
        ("write", "serve.stage.write_us_mean", "serve.stage.write_us_p99"),
    ] {
        metrics.set(mean_key, stage_means[name] * 1e3, "us");
        metrics.set(p99_key, num(&m1, &["stages", name, "p99_ms"]) * 1e3, "us");
    }
    let served: Vec<f64> = traced_rungs
        .iter()
        .flat_map(|r| r.service_ms.iter().copied())
        .filter(|v| v.is_finite())
        .collect();
    let wall_us = mean(&served) * 1e3;
    let stages_us: f64 = stage_means.values().sum::<f64>() * 1e3;
    let stages_ok = stages_us <= wall_us * 1.05;
    metrics.set("serve.request_wall_us", wall_us, "us");
    metrics.set("serve.unaccounted_us", wall_us - stages_us, "us");
    metrics.set("sumcheck.stages_ok", f64::from(u8::from(stages_ok)), "flag");
    let hist = m1.get("batch_requests_histogram").and_then(JsonValue::as_object);
    let hist0 = m0.get("batch_requests_histogram").and_then(JsonValue::as_object);
    let (mut passes, mut reqs) = (0.0, 0.0);
    if let Some(h) = hist {
        for (k, v) in h {
            let before = hist0.and_then(|h0| h0.get(k)).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let n = v.as_f64().unwrap_or(0.0) - before;
            passes += n;
            reqs += n * k.parse::<f64>().unwrap_or(0.0);
        }
    }
    metrics.set("serve.requests_per_pass", reqs / passes.max(1.0), "ratio");
    let localize = |m: &JsonValue| num(m, &["requests_by_route", "localize"]);
    let requests = (localize(&m1) - localize(&m0)).max(1.0);
    metrics.set(
        "serve.epoll_wakeups_per_req",
        (num(&m1, &["epoll_wakeups"]) - num(&m0, &["epoll_wakeups"])) / requests,
        "ratio",
    );
    metrics.set("serve.partial_writes", num(&m1, &["partial_writes"]), "count");
    metrics.set("serve.shed_503", num(&m1, &["shed_total"]), "count");
    metrics.set("serve.queue_depth_peak", num(&m1, &["queue_peak"]), "count");

    // Kernels, per request of the traced phase.
    let kd = kernel_delta(&k0, &k1);
    let infer_ms = stage_sum_ms(&m0, &m1, "infer");
    kernel_metrics(metrics, &kd, requests, infer_ms);

    // Tracing cost and the sampled span trees.
    let (plain_p50, traced_p50) =
        (plain[nominal].latency_q(0.5), traced_rungs[nominal].latency_q(0.5));
    metrics.set("obs.trace_overhead_pct", (traced_p50 / plain_p50.max(1e-9) - 1.0) * 100.0, "%");
    let (g_plain, g_traced) = (ladder_goodput(spec, &plain), ladder_goodput(spec, &traced_rungs));
    metrics.set("obs.trace_goodput_delta_pct", (g_traced / g_plain.max(1e-9) - 1.0) * 100.0, "%");
    let (self_us, spans_per_request, traces) = sampled;
    metrics.set("obs.spans_per_request", spans_per_request, "count");
    for (span, metric) in SPAN_NAMES {
        metrics.set(metric, self_us.get(span).copied().unwrap_or(0.0), "us");
    }
    metrics.set("serve.cpu_ms_per_req", plain[nominal].cpu_ms_per_ok(), "ms");
    metrics.set("gen.send_lag_p99_ms", plain[nominal].lag_p99_ms(), "ms");
    metrics.set("gen.max_in_flight", plain[nominal].max_in_flight as f64, "count");

    // Direct probes on the workload's own bytes.
    let request_bytes = localize_bytes(&pool[0].body, 1);
    let parsed_ok = RequestParser::new(HttpLimits::default())
        .feed(&request_bytes)
        .map(|(_, r)| r.is_some())
        .unwrap_or(false);
    let reps = if is_light(spec) { 2000 } else { 50 };
    metrics.set(
        "serve.http.parse_us",
        time_us(reps, || {
            let mut p = RequestParser::new(HttpLimits::default());
            std::hint::black_box(p.feed(std::hint::black_box(&request_bytes)).is_ok());
        }),
        "us",
    );
    metrics.set(
        "serve.protocol.decode_us",
        time_us(reps, || {
            std::hint::black_box(parse_localize(std::hint::black_box(&pool[0].body)).is_ok());
        }),
        "us",
    );
    metrics.set(
        "serve.protocol.encode_us",
        time_us(reps, || {
            std::hint::black_box(response_body(keys, &s.households[0], &reference[0], spec.detail));
        }),
        "us",
    );
    let mut zoo = models(spec, run.seed);
    let batch = input_batch(&s.households, window(spec), BATCH);
    let (detect, localize) =
        model_probe(&mut zoo[0].1, &batch, if is_light(spec) { 200 } else { 10 });
    metrics.set("camal.detect_us_per_window", detect, "us");
    metrics.set("camal.localize_us_per_window", localize, "us");
    let mut registry = registry_of(zoo);
    let fleet_passes = if is_light(spec) { 40 } else { 4 };
    let fleet_ok = crate::fleet::probe(metrics, &mut registry, keys, &s.households, fleet_passes)?;
    drop(registry);
    if !is_light(spec) {
        // No workload trains (see NOTES.md); the training layers are
        // measured here, last, as the probe clears the autotuner cache.
        crate::train::layer_probe(run, metrics)?;
    }

    let attempted: usize = plain.iter().chain(&traced_rungs).map(RungResult::attempted).sum();
    let failed: usize = plain.iter().chain(&traced_rungs).map(|r| r.failed).sum();
    let mismatched: usize = plain.iter().chain(&traced_rungs).map(|r| r.mismatched).sum();
    let coverage_ok = metrics.get("sumcheck.kernel_coverage_ok") == Some(1.0);
    details.push(("sampled_traces", JsonValue::Number(traces as f64)));
    details.push((
        "traced_rungs",
        JsonValue::Array(traced_rungs.iter().map(|r| rung_json(r, spec.limit_ms)).collect()),
    ));
    details.push((
        "plain_rungs",
        JsonValue::Array(plain.iter().map(|r| rung_json(r, spec.limit_ms)).collect()),
    ));
    Ok(Outcome {
        correct: mismatched == 0 && parsed_ok && stages_ok && coverage_ok && fleet_ok,
        attempted,
        failed,
        metrics: std::mem::take(metrics),
        details: Vec::new(),
        winners,
    })
}

/// `tensor.*` from a kernel delta: per operation (`ops` requests, passes
/// or training runs), and the coverage sum check against `infer_ms`, the
/// time of the stage the kernels run inside.
fn kernel_metrics(metrics: &mut Metrics, kd: &KernelDelta, ops: f64, infer_ms: f64) {
    let ops = ops.max(1.0);
    metrics.set("tensor.conv_fwd.ms", kd.conv_fwd_ms / ops, "ms");
    metrics.set("tensor.conv_fwd.calls", kd.conv_fwd_calls as f64 / ops, "count");
    metrics.set(
        "tensor.conv_fwd.gflops",
        kd.conv_fwd_flop / (kd.conv_fwd_ms * 1e6).max(1e-9),
        "GFLOP/s",
    );
    let total = kd.total_ms.max(1e-9);
    for (backend, metric) in [
        ("naive", "tensor.share.naive"),
        ("gemm", "tensor.share.gemm"),
        ("simd", "tensor.share.simd"),
    ] {
        metrics.set(metric, kd.by_backend.get(backend).copied().unwrap_or(0.0) / total, "ratio");
    }
    let coverage = kd.total_ms / infer_ms.max(1e-9);
    metrics.set("tensor.kernel_coverage", coverage, "ratio");
    let ok = kd.total_ms > 0.0 && coverage <= 1.05;
    metrics.set("sumcheck.kernel_coverage_ok", f64::from(u8::from(ok)), "flag");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_rung_is_on_each_ladder_and_ladders_ascend() {
        for spec in [&LIGHT, &HOUSEHOLD_DAY] {
            assert!(spec.rungs.contains(&spec.nominal), "{}", spec.name);
            assert!(spec.rungs.windows(2).all(|w| w[0] < w[1]), "{}", spec.name);
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let span = |id, parent, name: &str, start_us, dur_us| TraceSpan {
            id,
            parent,
            name: name.to_string(),
            start_us,
            dur_us,
        };
        // Two overlapping children cover 10..40 of the parent's 0..100;
        // a grandchild does not count against the parent.
        let spans = [
            span(1, 0, "infer", 0.0, 100.0),
            span(2, 1, "kernel", 10.0, 20.0),
            span(3, 1, "kernel", 20.0, 20.0),
            span(4, 2, "inner", 12.0, 5.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], ("infer".to_string(), 70.0));
        assert_eq!(own[1], ("kernel".to_string(), 15.0));
        assert_eq!(own[2], ("kernel".to_string(), 20.0));
    }

    #[test]
    fn stage_means_come_from_histogram_deltas() {
        let m0 = nilm_json::parse(r#"{"stages":{"infer":{"count":2,"mean_ms":1.0}}}"#).unwrap();
        let m1 = nilm_json::parse(r#"{"stages":{"infer":{"count":6,"mean_ms":2.0}}}"#).unwrap();
        // (6·2 − 2·1) / (6 − 2)
        assert_eq!(stage_mean_ms(&m0, &m1, "infer"), 2.5);
        assert_eq!(stage_sum_ms(&m0, &m1, "infer"), 10.0);
        assert_eq!(stage_mean_ms(&m0, &m1, "parse"), 0.0);
    }
}
