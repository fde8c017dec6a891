//! Spreading single-threaded repetitions over the CPUs this process may
//! use.
//!
//! On a shared host, one CPU can run far slower than another for minutes
//! while a neighbour loads it. A single-threaded repetition loop that the
//! scheduler leaves on the slow CPU then measures the neighbour, not the
//! program. Pinning repetition `i` to allowed CPU `i mod n` samples every
//! CPU evenly, so the lowest percentile of repetition times reflects the
//! least disturbed one.

/// CPUs the calling thread may run on, in ascending order; empty when the
/// platform does not report them.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        linux::allowed_cpus()
    }
    #[cfg(not(target_os = "linux"))]
    {
        Vec::new()
    }
}

/// Lets the calling thread run on `cpus` only; returns whether that
/// worked.
pub fn pin_to(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        linux::pin_to(cpus)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

#[cfg(target_os = "linux")]
mod linux {
    /// A CPU set as glibc lays it out: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
        if !ok {
            return Vec::new();
        }
        (0..set.len() * 64)
            .filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    pub fn pin_to(cpus: &[usize]) -> bool {
        let mut set: CpuSet = [0; 16];
        for &cpu in cpus {
            let Some(word) = set.get_mut(cpu / 64) else {
                return false;
            };
            *word |= 1 << (cpu % 64);
        }
        // SAFETY: `set` is a live, initialised buffer of exactly the size
        // passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}
