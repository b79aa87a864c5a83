//! Best-effort CPU affinity for shard workers.
//!
//! Behind [`ShardConfig::pin_cores`](crate::shard::ShardConfig::pin_cores)
//! each shard worker pins itself to core `shard_index % cores`, which
//! keeps a shard's ring, stats line, and working set resident in one
//! core's cache on multicore hosts. Pinning is strictly best effort: a
//! failed or unsupported pin is ignored (the worker just runs unpinned),
//! so the engine behaves identically on constrained hosts — only the
//! cache locality differs.
//!
//! The crate forbids unsafe code by default; this module is one of its
//! two audited exceptions, a direct `sched_setaffinity(2)` wrapper (the
//! vendored dependency set carries no libc binding). The other is the
//! single guarded call of the AVX-512 coin evaluator in `rng`.
#![allow(unsafe_code)]

/// Pins the calling thread to `core` (Linux only). Returns `true` on
/// success, `false` when the pin failed or the platform is unsupported.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(core: usize) -> bool {
    // A fixed 1024-bit mask matches glibc's cpu_set_t.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut set = [0u64; WORDS];
    let bit = core % (WORDS * 64);
    set[bit / 64] |= 1u64 << (bit % 64);
    // SAFETY: `set` is a valid, live buffer of `WORDS * 8` bytes; pid 0
    // means "the calling thread"; sched_setaffinity only reads the mask.
    (unsafe { sched_setaffinity(0, WORDS * 8, set.as_ptr()) }) == 0
}

/// Pinning is unsupported off Linux; reports failure without side
/// effects.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

/// Number of logical cores visible to the process (≥ 1).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_to_core_zero_succeeds_on_linux() {
        // Core 0 always exists; the pin applies to this test thread only.
        assert!(pin_current_thread(0));
    }
}
