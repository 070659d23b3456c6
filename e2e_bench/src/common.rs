//! Inputs, model zoos and layer probes shared by the workloads.

use camal::config::DEFAULT_KERNELS;
use camal::ensemble::EnsembleMember;
use camal::fleet::FleetConfig;
use camal::registry::{ModelKey, ModelRegistry};
use camal::stream::HouseholdSeries;
use camal::{CamalConfig, CamalModel};
use nilm_data::prelude::*;
use nilm_data::preprocess::INPUT_SCALE;
use nilm_models::BackboneSpec;
use nilm_obs::kernel::{KernelKey, KernelStat};
use nilm_tensor::tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// The three-appliance REFIT zoo of the household-day and fleet workloads.
pub const ZOO: [ApplianceKind; 3] =
    [ApplianceKind::Kettle, ApplianceKind::Microwave, ApplianceKind::Dishwasher];

/// Window of the paper-shaped zoo models.
pub const ZOO_WINDOW: usize = 256;

/// Windows per GEMM batch, the gateway's default.
pub const BATCH: usize = 64;

/// Whether a segment ran enough set-ups: one, and more while they are
/// cheap (until 5, or 0.3 s in total), so the median `setup_s` of a fast
/// set-up is not a few noisy samples of a few milliseconds.
pub fn segment_setups_done(times: &[f64]) -> bool {
    !times.is_empty() && (times.len() >= 5 || times.iter().sum::<f64>() >= 0.3)
}

/// Model key of a REFIT appliance.
pub fn refit_key(kind: ApplianceKind) -> ModelKey {
    ModelKey::new(DatasetId::Refit, kind)
}

/// An untrained, seeded, paper-shaped CamAL ensemble: five ResNets with
/// kernels {5, 7, 9, 15, 25} at `width_div` 8, recorded at window 256.
/// Trained weights do not change inference cost.
pub fn paper_shaped_model(seed: u64) -> CamalModel {
    let cfg = CamalConfig { n_ensemble: 5, trials: 1, width_div: 8, ..Default::default() };
    let mut rng = nilm_tensor::init::rng(seed);
    let members = DEFAULT_KERNELS
        .iter()
        .map(|&kernel| {
            let spec = BackboneSpec::ResNet { kernel, width_div: cfg.width_div };
            EnsembleMember {
                net: nilm_models::build_from_spec(&mut rng, spec),
                spec,
                val_loss: 0.1,
            }
        })
        .collect();
    let mut model = CamalModel::from_members(cfg, members);
    model.set_window(ZOO_WINDOW);
    model
}

/// The zoo as `(key, model)` pairs; the same seed gives the same weights.
pub fn zoo_models(seed: u64) -> Vec<(ModelKey, CamalModel)> {
    ZOO.iter()
        .enumerate()
        .map(|(i, &kind)| (refit_key(kind), paper_shaped_model(seed.wrapping_mul(31) + i as u64)))
        .collect()
}

/// A registry holding `models`.
pub fn registry_of(models: Vec<(ModelKey, CamalModel)>) -> ModelRegistry {
    let mut registry = ModelRegistry::unbounded();
    for (key, model) in models {
        registry.insert(key, model);
    }
    registry
}

/// Simulated REFIT household feeds: `houses` households of `days` days at
/// 60 s, with the simulator's missing readings.
pub fn household_feeds(houses: usize, days: usize, seed: u64) -> Vec<HouseholdSeries> {
    generate_fleet_scenario(&[DatasetId::Refit], houses, days, seed)
        .iter()
        .map(|fh| HouseholdSeries { id: fh.label(), series: fh.house.aggregate.clone() })
        .collect()
}

/// The fleet configuration the gateway's batcher uses for REFIT models.
pub fn gateway_fleet_config(threads: usize) -> FleetConfig {
    FleetConfig { batch: BATCH, threads, ..FleetConfig::at_step(60) }
}

/// A `[count, 1, window]` input batch cut from `feeds`, scaled the way
/// the serving path scales its windows (missing readings as 0).
pub fn input_batch(feeds: &[HouseholdSeries], window: usize, count: usize) -> Tensor {
    let flat: Vec<f32> = feeds
        .iter()
        .flat_map(|h| h.series.values.iter())
        .map(|&v| if v.is_finite() { v * INPUT_SCALE } else { 0.0 })
        .cycle()
        .take(count * window)
        .collect();
    Tensor::from_vec(flat, &[count, 1, window])
}

/// Snapshot of the cumulative kernel table.
pub type KernelSnapshot = BTreeMap<KernelKey, KernelStat>;

/// Current kernel table.
pub fn kernel_snapshot() -> KernelSnapshot {
    nilm_obs::kernel::stats().into_iter().collect()
}

/// Kernel work between two snapshots.
#[derive(Clone, Debug, Default)]
pub struct KernelDelta {
    /// All kernel time, milliseconds.
    pub total_ms: f64,
    /// Kernel time by backend, milliseconds.
    pub by_backend: BTreeMap<&'static str, f64>,
    /// `conv_fwd` calls.
    pub conv_fwd_calls: u64,
    /// `conv_fwd` time, milliseconds.
    pub conv_fwd_ms: f64,
    /// `conv_fwd` floating-point operations, counted from the shapes as
    /// 2·m·n·k per call.
    pub conv_fwd_flop: f64,
}

/// What ran between `before` and `after`.
pub fn kernel_delta(before: &KernelSnapshot, after: &KernelSnapshot) -> KernelDelta {
    let mut d = KernelDelta::default();
    for (key, stat) in after {
        let prev = before.get(key).copied().unwrap_or_default();
        let calls = stat.calls - prev.calls;
        let ms = (stat.total_ns - prev.total_ns) as f64 / 1e6;
        d.total_ms += ms;
        *d.by_backend.entry(key.backend).or_default() += ms;
        if key.op == "conv_fwd" {
            d.conv_fwd_calls += calls;
            d.conv_fwd_ms += ms;
            d.conv_fwd_flop += calls as f64 * 2.0 * (key.m * key.n * key.k) as f64;
        }
    }
    d
}

/// Median wall time of `f` over `reps` calls, in microseconds.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `CamalModel::detect_proba` and `localize_batch` on one full batch:
/// microseconds per window for each. Their difference is the CAM plus
/// attention cost.
pub fn model_probe(model: &mut CamalModel, batch: &Tensor, reps: usize) -> (f64, f64) {
    let n = batch.dims3().0 as f64;
    let detect = time_us(reps, || {
        std::hint::black_box(model.detect_proba(std::hint::black_box(batch)));
    });
    let localize = time_us(reps, || {
        std::hint::black_box(model.localize_batch(std::hint::black_box(batch)));
    });
    (detect / n, localize / n)
}
