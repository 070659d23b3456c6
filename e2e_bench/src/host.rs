//! Host and run metadata printed with every result, plus the process
//! measurements every workload reports (peak RSS, the autotuner's winner
//! table).

use nilm_json::JsonValue;
use nilm_tensor::dispatch::tuned_entries;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their peak. The
/// peak of live bytes repeats from run to run; the resident set does not,
/// as it depends on how the allocator's per-thread arenas happened to
/// fragment, and the vendored thread pool starts new threads per call.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates two statistics counters on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Peak live heap of this process in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB (peak resident set size).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time every thread of this process has used so far, live or
/// ended, in seconds: user plus system time from `/proc/self/stat`, in
/// the kernel's 10 ms clock ticks. Time the host stole from the vCPUs is
/// not in it.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields from the 3rd on follow the parenthesised command name;
    // utime and stime are the 14th and 15th.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace().skip(11).take(2).filter_map(|v| v.parse::<f64>().ok()).sum::<f64>()
        / 100.0
}

/// CPU time the calling thread has used so far, in seconds, from
/// `/proc/thread-self/schedstat` (nanoseconds on a CPU).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()))
        .map_or(0.0, |ns| ns / 1e9)
}

/// Time the host has stolen from this machine's vCPUs so far, summed over
/// them, in seconds (the `steal` column of `/proc/stat`, 10 ms ticks).
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7).and_then(|v| v.parse::<f64>().ok()))
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The autotuner's per-shape winners, one `op MxNxK tT -> backend` line each.
pub fn winner_table() -> Vec<String> {
    tuned_entries()
        .into_iter()
        .map(|(k, b)| format!("{} {}x{}x{} t{} -> {}", k.op, k.m, k.n, k.k, k.threads, b.as_str()))
        .collect()
}

fn isa_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                out.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            out.push("neon");
        }
    }
    out
}

/// The commit the checkout was made from, when `.git` is present.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn strings(v: &[String]) -> JsonValue {
    JsonValue::Array(v.iter().map(|s| JsonValue::String(s.clone())).collect())
}

/// Compares `table` with the one the previous run of `workload` with the
/// same `trace` setting in this checkout recorded, then stores it for the
/// next run. `None` on the first run.
pub fn winners_changed_since_last_run(
    workload: &str,
    trace: bool,
    table: &[String],
) -> Option<bool> {
    let dir = Path::new(".bench_state");
    let path = dir.join(format!("{workload}.trace{}.winners", u8::from(trace)));
    let previous = std::fs::read_to_string(&path).ok();
    let text = table.join("\n");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(&path, &text);
    }
    previous.map(|p| p != text)
}

/// Everything about the host and the run that a reader needs to compare
/// two results: cores, ISA, SIMD, thread and `NILM_*` settings, seed,
/// commit, build profile and the autotuner's winners.
pub fn run_metadata(workload: &str, seed: u64, trace: bool, winners: &[String]) -> JsonValue {
    let nilm_env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("NILM_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let since_last = winners_changed_since_last_run(workload, trace, winners);
    JsonValue::object([
        ("workload", JsonValue::String(workload.into())),
        ("seed", JsonValue::Number(seed as f64)),
        ("trace", JsonValue::Bool(trace)),
        ("nproc", JsonValue::Number(nproc() as f64)),
        ("arch", JsonValue::String(std::env::consts::ARCH.into())),
        (
            "isa",
            JsonValue::Array(
                isa_features().into_iter().map(|f| JsonValue::String(f.into())).collect(),
            ),
        ),
        ("simd_available", JsonValue::Bool(nilm_tensor::simd::simd_available())),
        (
            "rayon_num_threads",
            JsonValue::String(
                std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
            ),
        ),
        ("rayon_pool", JsonValue::Number(rayon::current_num_threads() as f64)),
        ("nilm_env", strings(&nilm_env)),
        ("commit", JsonValue::String(commit())),
        (
            "profile",
            JsonValue::String(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        ("autotune_winners", strings(winners)),
        ("winners_differ_from_last_run", since_last.map_or(JsonValue::Null, JsonValue::Bool)),
    ])
}
