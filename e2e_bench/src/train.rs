//! The training layers, measured at the end of `gw_household_day`'s
//! traced run: Algorithm 1 (`CamalModel::train`, `CamalConfig::small`, one worker
//! per core) on a simulated REFIT kettle case, `evaluate` on its held-out
//! test houses, and one member's training step timed on one batch.

use camal::{CamalConfig, CamalModel};
use nilm_data::prelude::*;
use nilm_models::BackboneSpec;
use nilm_tensor::layer::Mode;
use nilm_tensor::loss::cross_entropy;
use nilm_tensor::optim::Adam;
use nilm_tensor::tensor::Tensor;
use std::time::Instant;

use crate::host::nproc;
use crate::report::Metrics;
use crate::stats::median;
use crate::Run;

/// Submetered houses simulated.
const HOUSES: usize = 12;
/// Days per house.
const DAYS: usize = 8;
/// Positive and negative training windows each.
const TRAIN_PER_CLASS: usize = 64;
/// Test windows evaluated.
const TEST_WINDOWS: usize = 192;
/// Training window.
const WINDOW: usize = 128;

/// Exactly `per_class` positive and `per_class` negative windows of `set`,
/// the first of each in order, so the cost of training does not depend on
/// how many activations a seed's houses happen to have.
fn fixed_balance(set: &WindowSet, per_class: usize) -> Result<WindowSet, String> {
    let take = |label: u8| -> Vec<_> {
        set.windows.iter().filter(|w| w.weak_label == label).take(per_class).cloned().collect()
    };
    let (pos, neg) = (take(1), take(0));
    if pos.len() < per_class || neg.len() < per_class {
        return Err(format!(
            "training split has {} positive and {} negative windows; {per_class} of each needed",
            pos.len(),
            neg.len()
        ));
    }
    Ok(WindowSet::new(pos.into_iter().chain(neg).collect()))
}

/// The simulated kettle case: data generation and preprocessing into
/// weakly labelled windows, then a one-epoch warm-up of Algorithm 1 that
/// races every kernel shape training meets (the winner cache is cleared
/// first). The warm-up trains its candidates one at a time: races timed
/// while a second candidate trains on the other core pick slower kernels.
fn case(run: &Run, cfg: &CamalConfig) -> Result<CaseData, String> {
    nilm_tensor::dispatch::clear_choices();
    let scale = ScaleOverride {
        submetered_houses: Some(HOUSES),
        days_per_house: Some(DAYS),
        ..Default::default()
    };
    let ds = generate_dataset(&refit(), scale, run.seed);
    let split = SplitConfig { seed: run.seed, ..SplitConfig::default() };
    let mut case = prepare_case(&ds, ApplianceKind::Kettle, WINDOW, &split);
    case.train = fixed_balance(&case.train, TRAIN_PER_CLASS)?;
    case.test.windows.truncate(TEST_WINDOWS);
    if case.test.is_empty() || case.val.is_empty() {
        return Err(format!("seed {} gave an empty split", run.seed));
    }
    let mut warm_cfg = cfg.clone();
    warm_cfg.train.epochs = 1;
    CamalModel::train(&warm_cfg, &case.train, &case.val, 1);
    Ok(case)
}

/// One member's forward, backward and optimizer step on one training
/// batch, milliseconds each (medians).
fn step_probe(cfg: &CamalConfig, case: &CaseData) -> (f64, f64, f64) {
    let spec = BackboneSpec::ResNet { kernel: cfg.kernels[0], width_div: cfg.width_div };
    let mut net = nilm_models::build_from_spec(&mut nilm_tensor::init::rng(1), spec);
    let mut opt = Adam::new(cfg.train.lr);
    let idx: Vec<usize> = (0..cfg.train.batch_size.min(case.train.len())).collect();
    let mut x = Tensor::zeros(&[0]);
    let mut labels = Vec::new();
    case.train.batch_inputs_into(&idx, &mut x);
    case.train.batch_weak_labels_into(&idx, &mut labels);
    let (mut fwd, mut bwd, mut opt_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..20 {
        net.zero_grad();
        let t = Instant::now();
        let logits = net.forward(&x, Mode::Train);
        fwd.push(t.elapsed().as_secs_f64() * 1e3);
        let (_, grad) = cross_entropy(&logits, &labels);
        let t = Instant::now();
        std::hint::black_box(net.backward(&grad));
        bwd.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        opt.step(net.as_mut());
        opt_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&fwd), median(&bwd), median(&opt_ms))
}

/// `train.*`: one run of Algorithm 1 with one worker per core and its
/// `evaluate`, then the per-batch step probe. It clears the autotuner
/// cache, so it runs after everything else of a traced run.
pub fn layer_probe(run: &Run, metrics: &mut Metrics) -> Result<(), String> {
    let cfg = CamalConfig::small();
    let case = case(run, &cfg)?;
    let threads = nproc();
    let mut model = CamalModel::train(&cfg, &case.train, &case.val, threads);
    let avg_power = refit().case(ApplianceKind::Kettle).map_or(2000.0, |c| c.avg_power_w);
    let report = model.evaluate(&case.test, avg_power, 16);
    let stats = &model.train_stats;
    let candidates = stats.candidates.max(1);
    let cpu_s = stats.candidate_secs_total;
    metrics.set("train.candidate_s", cpu_s / candidates as f64, "s");
    metrics.set(
        "train.parallel_efficiency",
        cpu_s / (stats.total_secs * threads as f64).max(1e-9),
        "ratio",
    );
    metrics.set("train.loc_f1", report.localization.f1, "ratio");
    metrics.set("train.det_f1", report.detection.f1, "ratio");
    let (fwd, bwd, opt) = step_probe(&cfg, &case);
    metrics.set("train.forward_ms_per_batch", fwd, "ms");
    metrics.set("train.backward_ms_per_batch", bwd, "ms");
    metrics.set("train.optim_ms_per_batch", opt, "ms");
    Ok(())
}
