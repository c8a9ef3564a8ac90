//! The machine under the numbers: peak memory, a STREAM-triad bandwidth
//! probe, an FMA throughput probe, and the run manifest.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN` where
/// procfs is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Single-core STREAM triad `a = b + s·c` over arrays far larger than the
/// caches, in GB/s (three 4-byte streams per element). Best of a few passes.
pub fn triad_gbps() -> f64 {
    const N: usize = 1 << 22;
    let b = vec![1.5f32; N];
    let c = vec![0.25f32; N];
    let mut a = vec![0.0f32; N];
    let mut best = f64::MAX;
    for pass in 0..6 {
        let s = black_box(1.0 + pass as f32);
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3 * 4 * N) as f64 / best / 1e9
}

/// Independent FMA chains: enough to cover the FMA latency on every width.
const FMA_CHAINS: usize = 128;

fn fma_loop(iters: usize, acc: &mut [f32; FMA_CHAINS]) {
    let (m, k) = (black_box(0.999_f32), black_box(1e-3_f32));
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(m, k);
        }
    }
}

/// [`fma_loop`] compiled for AVX-512.
///
/// # Safety
/// The CPU must support AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn fma_loop_avx512(iters: usize, acc: &mut [f32; FMA_CHAINS]) {
    fma_loop(iters, acc)
}

/// [`fma_loop`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_loop_avx2(iters: usize, acc: &mut [f32; FMA_CHAINS]) {
    fma_loop(iters, acc)
}

/// Single-core f32 FMA throughput in GFLOP/s at the widest vector unit this
/// CPU offers (two FLOPs per fused multiply-add). Best of a few passes.
pub fn fma_gflops() -> f64 {
    const ITERS: usize = 200_000;
    let mut acc = [1.0f32; FMA_CHAINS];
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        run_fma(ITERS, &mut acc);
        black_box(&mut acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (2 * ITERS * FMA_CHAINS) as f64 / best / 1e9
}

fn run_fma(iters: usize, acc: &mut [f32; FMA_CHAINS]) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma") {
            // SAFETY: the CPU supports every feature the function enables.
            return unsafe { fma_loop_avx512(iters, acc) };
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the CPU supports every feature the function enables.
            return unsafe { fma_loop_avx2(iters, acc) };
        }
    }
    fma_loop(iters, acc)
}

/// Cumulative `(steal, total)` CPU ticks of the machine from `/proc/stat`;
/// zeros where procfs is missing.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The commit the working tree was checked out at, read from `.git` in the
/// current directory; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&Path::new(".git").join(r)).unwrap_or_else(|| format!("{r} (packed)")),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_finite_rates() {
        for v in [triad_gbps(), fma_gflops()] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
