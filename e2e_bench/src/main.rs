//! End-to-end and per-layer benchmark of the CamAL stack.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload gw_light --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads (see `NOTES.md` for why each exists): `gw_light` and
//! `gw_household_day`. `--trace 0` measures
//! the end-to-end metrics with tracing off; `--trace 1` is the separate
//! traced run that prints the per-layer ledger. The last line of standard
//! output is the result object; the line before it is the run's host and
//! autotuner metadata.

mod common;
mod fleet;
mod gw;
mod host;
mod openloop;
mod report;
mod stats;
mod train;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

use nilm_json::JsonValue;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("ok_pct", "%"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not run
/// reports 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("serve.rtt_closed_us", "us"),
    ("serve.cpu_ms_per_req", "ms"),
    ("serve.stage.parse_us_mean", "us"),
    ("serve.stage.parse_us_p99", "us"),
    ("serve.stage.queue_wait_us_mean", "us"),
    ("serve.stage.queue_wait_us_p99", "us"),
    ("serve.stage.coalesce_us_mean", "us"),
    ("serve.stage.coalesce_us_p99", "us"),
    ("serve.stage.write_us_mean", "us"),
    ("serve.stage.write_us_p99", "us"),
    ("serve.request_wall_us", "us"),
    ("serve.unaccounted_us", "us"),
    ("serve.requests_per_pass", "ratio"),
    ("serve.epoll_wakeups_per_req", "ratio"),
    ("serve.partial_writes", "count"),
    ("serve.shed_503", "count"),
    ("serve.queue_depth_peak", "count"),
    ("serve.http.parse_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("fleet.preprocess_s", "s"),
    ("fleet.infer_s", "s"),
    ("fleet.stitch_s", "s"),
    ("fleet.staging_s", "s"),
    ("fleet.shard_efficiency", "ratio"),
    ("fleet.batch_fill", "ratio"),
    ("fleet.shard_retries", "count"),
    ("fleet.households_degraded", "count"),
    ("camal.detect_us_per_window", "us"),
    ("camal.localize_us_per_window", "us"),
    ("train.candidate_s", "s"),
    ("train.parallel_efficiency", "ratio"),
    ("train.forward_ms_per_batch", "ms"),
    ("train.backward_ms_per_batch", "ms"),
    ("train.optim_ms_per_batch", "ms"),
    ("train.loc_f1", "ratio"),
    ("train.det_f1", "ratio"),
    ("tensor.conv_fwd.ms", "ms"),
    ("tensor.conv_fwd.calls", "count"),
    ("tensor.conv_fwd.gflops", "GFLOP/s"),
    ("tensor.share.naive", "ratio"),
    ("tensor.share.gemm", "ratio"),
    ("tensor.share.simd", "ratio"),
    ("tensor.kernel_coverage", "ratio"),
    ("tensor.autotune_s", "s"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.trace_goodput_delta_pct", "%"),
    ("obs.spans_per_request", "count"),
    ("trace.self_us.request", "us"),
    ("trace.self_us.parse", "us"),
    ("trace.self_us.queue_wait", "us"),
    ("trace.self_us.coalesce", "us"),
    ("trace.self_us.preprocess", "us"),
    ("trace.self_us.infer", "us"),
    ("trace.self_us.kernel", "us"),
    ("trace.self_us.stitch", "us"),
    ("trace.self_us.write", "us"),
    ("sumcheck.stages_ok", "flag"),
    ("sumcheck.kernel_coverage_ok", "flag"),
    ("gen.send_lag_p99_ms", "ms"),
    ("gen.max_in_flight", "count"),
    ("peak_rss_mb", "MB"),
];

/// The workloads, in `BENCHMARK.json`'s order.
pub const WORKLOADS: [&str; 2] = ["gw_light", "gw_household_day"];

/// Hard cap on one run, under the 180 s a run may take.
const WALL_CAP: Duration = Duration::from_secs(170);

/// One invocation's arguments.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed {value}"))?)
            }
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(40.0);
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(Run { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    };
    // A run that would outlive its limit is a benchmark bug:
    // stop it without a result instead of hanging.
    std::thread::spawn(|| {
        std::thread::sleep(WALL_CAP);
        eprintln!("e2e_bench: run exceeded {WALL_CAP:?}; aborting");
        std::process::exit(3);
    });
    nilm_obs::trace::set_enabled(false);
    let spec = if run.workload == gw::LIGHT.name { &gw::LIGHT } else { &gw::HOUSEHOLD_DAY };
    let (start, steal0) = (Instant::now(), host::host_steal_s());
    let result = gw::run(spec, &run);
    // The share of the vCPUs' time the host gave to other tenants: a
    // run with a high share measured a busy host.
    let steal_pct = 100.0 * (host::host_steal_s() - steal0)
        / (start.elapsed().as_secs_f64() * host::nproc() as f64);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e_bench: {}: {e}", run.workload);
            std::process::exit(1);
        }
    };
    outcome.metrics.set("peak_heap_mb", host::peak_heap_mb(), "MB");
    outcome.metrics.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    let failed_pct = 100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metrics.set("failed_pct", failed_pct, "%");
    outcome.metrics.set("ok_pct", 100.0 - failed_pct, "%");
    outcome.details.push(("host_steal_pct", JsonValue::Number(steal_pct)));

    let meta = host::run_metadata(&run.workload, run.seed, run.trace, &outcome.winners);
    let details = JsonValue::Object(
        outcome.details.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
    );
    println!(
        "workload {} seed {} seconds {} trace {}: correct={} attempted={} failed={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    outcome.metrics.print();
    outcome.metrics.complete(if run.trace { &PER_LAYER } else { &END_TO_END });
    println!("{}", JsonValue::object([("meta", meta), ("details", details)]).to_compact());
    println!("{}", report::result_line(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let r = parse_args(&args("--workload gw_household_day --seed 7 --seconds 20 --trace 1"))
            .unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds, r.trace),
            ("gw_household_day", 7, 20.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload gw_light --trace 2")).is_err());
        assert!(parse_args(&args("--workload gw_light --seconds 0")).is_err());
        assert!(parse_args(&args("--workload gw_light --bogus 1")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }

    /// `BENCHMARK.json` and this binary name the same workloads and
    /// metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = nilm_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(JsonValue::as_str).unwrap().to_string();
                    let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("").to_string();
                    (name, unit)
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>());
    }
}
