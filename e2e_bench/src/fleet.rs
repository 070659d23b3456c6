//! The fleet layer (`camal::fleet::serve_fleet`) probed directly in the
//! traced runs: the workload's households scored as one fleet with one
//! shard per core, every pass checked against a one-shard pass.

use camal::fleet::{serve_fleet, FleetResult, FleetSummary};
use camal::registry::{ModelKey, ModelRegistry};
use camal::stream::{HouseholdSeries, HouseholdTimeline};
use std::time::Instant;

use crate::common::gateway_fleet_config;
use crate::host::nproc;
use crate::report::Metrics;

/// Sums of the per-pass `FleetSummary` counters, reported per pass.
#[derive(Default)]
struct PassLedger {
    passes: usize,
    preprocess_s: f64,
    infer_s: f64,
    stitch_s: f64,
    elapsed_s: f64,
    wall_s: f64,
    shard_seconds: f64,
    windows_scored: usize,
    batch_slots: usize,
    shard_retries: usize,
    households_degraded: usize,
}

impl PassLedger {
    /// Adds one pass that took `wall_s` around the `serve_fleet` call.
    fn add(&mut self, s: &FleetSummary, wall_s: f64, batch: usize) {
        self.passes += 1;
        self.preprocess_s += s.preprocess_s;
        self.infer_s += s.infer_s;
        self.stitch_s += s.stitch_s;
        self.elapsed_s += s.elapsed_s;
        self.wall_s += wall_s;
        self.shard_seconds += s.elapsed_s * s.shards.max(1) as f64;
        self.windows_scored += s.feed_windows_scored;
        self.batch_slots += s.batches * batch;
        self.shard_retries += s.shard_retries;
        self.households_degraded += s.households_degraded;
    }

    /// `fleet.*`: stage CPU-seconds per pass, staging (wall outside the
    /// engine's own clock), shard efficiency (stage CPU-s over elapsed ×
    /// shards), batch fill (windows scored over batch slots) and the
    /// recovery counters.
    fn report(&self, metrics: &mut Metrics) {
        let n = self.passes.max(1) as f64;
        metrics.set("fleet.preprocess_s", self.preprocess_s / n, "s");
        metrics.set("fleet.infer_s", self.infer_s / n, "s");
        metrics.set("fleet.stitch_s", self.stitch_s / n, "s");
        metrics.set("fleet.staging_s", (self.wall_s - self.elapsed_s) / n, "s");
        let busy = self.preprocess_s + self.infer_s + self.stitch_s;
        metrics.set("fleet.shard_efficiency", busy / self.shard_seconds.max(1e-9), "ratio");
        metrics.set(
            "fleet.batch_fill",
            self.windows_scored as f64 / self.batch_slots.max(1) as f64,
            "ratio",
        );
        metrics.set("fleet.shard_retries", self.shard_retries as f64, "count");
        metrics.set("fleet.households_degraded", self.households_degraded as f64, "count");
    }
}

fn same_floats(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_timeline(a: &HouseholdTimeline, b: &HouseholdTimeline) -> bool {
    a.id == b.id
        && a.step_s == b.step_s
        && a.raw_status == b.raw_status
        && a.status == b.status
        && same_floats(&a.power_w, &b.power_w)
        && same_floats(&a.detection_proba, &b.detection_proba)
        && a.scored_starts == b.scored_starts
        && (a.windows_total, a.windows_scored, a.windows_detected)
            == (b.windows_total, b.windows_scored, b.windows_detected)
}

/// Every household's timelines equal the reference's, bit for bit, and
/// none is degraded.
fn same_result(out: &FleetResult, reference: &FleetResult) -> bool {
    out.households.len() == reference.households.len()
        && out.households.iter().zip(&reference.households).all(|(a, b)| {
            a.id == b.id
                && a.degraded.is_none()
                && b.degraded.is_none()
                && a.timelines.len() == b.timelines.len()
                && a.timelines.iter().zip(&b.timelines).all(|(x, y)| same_timeline(x, y))
        })
}

/// `fleet.*` from `passes` direct `serve_fleet` calls over `households`
/// with one shard per core (shard parallelism and the per-shard model
/// snapshot and rebuild included). Returns whether every pass equalled a
/// one-shard pass made first, bit for bit, with no household degraded.
pub fn probe(
    metrics: &mut Metrics,
    registry: &mut ModelRegistry,
    keys: &[ModelKey],
    households: &[HouseholdSeries],
    passes: usize,
) -> Result<bool, String> {
    let reference = serve_fleet(registry, keys, households, &gateway_fleet_config(1))
        .map_err(|e| format!("one-shard pass: {e}"))?;
    let cfg = gateway_fleet_config(nproc());
    let mut ledger = PassLedger::default();
    let mut matched = true;
    for _ in 0..passes.max(1) {
        let t = Instant::now();
        let out = serve_fleet(registry, keys, households, &cfg)
            .map_err(|e| format!("sharded pass: {e}"))?;
        ledger.add(&out.summary, t.elapsed().as_secs_f64(), cfg.batch);
        matched &= same_result(&out, &reference);
    }
    ledger.report(metrics);
    Ok(matched)
}
