//! What the host reports about this process and machine. Every reader
//! returns `None` where the source is missing, so a metric is left out
//! rather than invented.

use std::fs;

/// User + system CPU seconds of the whole process so far, all threads,
/// from `CLOCK_PROCESS_CPUTIME_ID` (nanosecond resolution; the tick
/// counts of `/proc/self/stat` are 10 ms wide, which is 2 % of a
/// repetition here).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid and exclusively borrowed for the call; on
    // 64-bit Linux that struct is two 64-bit signed integers, as declared
    // above, and `clockid_t` is a C int.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> Option<f64> {
    None
}

/// Reset the kernel's peak-RSS mark to the current resident set (Linux
/// 4.0+: `5` written to `clear_refs`), so that the peak read afterwards is
/// the peak of what ran in between. `false` where that is not possible;
/// the peak then covers the whole process so far.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// What glibc's allocator does with freed memory. In both states a block
/// of 32 MiB or more is mapped on its own and unmapped when freed, which
/// is where glibc's self-adjusting threshold settles once a program has
/// freed such a block; held fixed here, so that the 539 MB file image of
/// `rt_write` costs its 131,602 page faults in every repetition and not in
/// two out of three, depending on which thread's arena it lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heap {
    /// The free top of a heap is given back beyond 64 MiB (glibc's settled
    /// trim threshold) and an empty heap is unmapped, so a repetition
    /// faults most of its arrays in again: 35,000 to 840,000 page faults,
    /// at a cost that on a shared virtual machine differs by a factor of
    /// two between identical repetitions (README, "Steadiness"). Set-up
    /// time and peak memory are measured this way.
    Cold,
    /// Nothing is given back, so that after a few repetitions the next
    /// finds the pages of its smaller blocks resident. Host times are
    /// measured this way.
    Warm,
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    // <malloc.h>
    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_TOP_PAD: i32 = -2;
    pub const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
    }
}

/// Switch the allocator; going `Cold` also gives back what is free now.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn set_heap(heap: Heap) {
    use glibc::*;
    const KIB: i32 = 1024;
    const MIB: i32 = 1024 * KIB;
    // (trim threshold, padding of each extension of the heap)
    let (trim, pad) = match heap {
        Heap::Cold => (64 * MIB, 128 * KIB),
        Heap::Warm => (i32::MAX, 16 * MIB),
    };
    // SAFETY: `mallopt` takes two C ints, `malloc_trim` a `size_t`; neither
    // has other preconditions and both take the allocator's own lock.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 * MIB);
        mallopt(M_TRIM_THRESHOLD, trim);
        mallopt(M_TOP_PAD, pad);
        if heap == Heap::Cold {
            malloc_trim(0);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn set_heap(_heap: Heap) {}

/// Size of the largest cache cpu0 sees, in bytes.
pub fn last_level_cache_bytes() -> Option<u64> {
    let mut best = None;
    for entry in fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let path = entry.ok()?.path().join("size");
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let bytes = if let Some(k) = text.strip_suffix('K') {
            k.parse::<u64>().ok().map(|k| k << 10)
        } else if let Some(m) = text.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m << 20)
        } else {
            text.parse().ok()
        };
        best = best.max(bytes);
    }
    best
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let Some(a) = cpu_seconds() else { return };
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = cpu_seconds().expect("clock stays available");
        assert!(b > a, "{a} -> {b} after spinning ({x})");
    }
}
