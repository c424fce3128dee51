//! Order statistics over latency samples and the `/proc` readers behind the
//! CPU and memory metrics.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics guide, section 1).
pub const TAIL_GUARD: usize = 10;

/// Ascending copy of `values`.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// 1-based nearest-rank position of percentile `p` (in `0.0..=1.0`) among
/// `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many samples lie strictly beyond the nearest-rank position of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// [`percentile`], but `None` when fewer than [`TAIL_GUARD`] samples lie
/// beyond the requested position — the tail is then too thin to repeat.
pub fn guarded_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (samples_beyond(sorted.len(), p) >= TAIL_GUARD).then(|| percentile(sorted, p))
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile_of(values: Vec<f64>, p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values.to_vec(), 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `numerator / denominator`, 0 when the denominator is 0 (a layer that did
/// no work on this workload).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    /// `clock_gettime(2)` of the C library `std` already links. `/proc`
    /// reports CPU time in 10 ms ticks, too coarse for the open loop, whose
    /// whole measured phase uses a few hundred milliseconds of CPU.
    fn clock_gettime(clock_id: i32, time: *mut Timespec) -> i32;
}

fn cpu_clock(clock_id: i32) -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, exclusively borrowed `timespec` with the
    // layout the C library expects on 64-bit Linux, and both clock ids are
    // defined there; the call writes nothing else.
    let status = unsafe { clock_gettime(clock_id, &mut time) };
    assert_eq!(status, 0, "the CPU-time clocks exist on Linux");
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

/// User + system CPU seconds of this process so far, threads that already
/// exited included.
pub fn cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds of the calling thread so far.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`) in MB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the harness's only random source, so schedules depend on
/// `--seed` and nothing else.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5), 50.0);
        assert_eq!(percentile(&sample, 0.95), 95.0);
        assert_eq!(percentile(&sample, 1.0), 100.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let thin: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(samples_beyond(thin.len(), 0.95), 9);
        assert_eq!(guarded_percentile(&thin, 0.95), None);
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(samples_beyond(enough.len(), 0.95), 10);
        assert_eq!(guarded_percentile(&enough, 0.95), Some(190.0));
        // The median of the thin sample is still supported.
        assert_eq!(guarded_percentile(&thin, 0.5), Some(100.0));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(status_mb("VmHWM") > 0.0);
        assert!(status_mb("VmRSS") > 0.0);
        let (process, thread) = (cpu_seconds(), thread_cpu_seconds());
        let mut spin = 0u64;
        for i in 0..20_000_000u64 {
            spin = std::hint::black_box(spin.wrapping_add(i));
        }
        assert!(cpu_seconds() > process);
        assert!(thread_cpu_seconds() > thread);
        assert!(cpu_seconds() >= thread_cpu_seconds());
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        let mut c = SplitMix64::new(10);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        let draw = a.next_f64();
        assert!((0.0..1.0).contains(&draw));
    }
}
