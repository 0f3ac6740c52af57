//! Pins `dfs-serial` to one CPU.
//!
//! A one-worker exploration is a chain of park/unpark handoffs between
//! the driver and the body threads. With the threads on one CPU a
//! handoff is a context switch; once the scheduler spreads them over two
//! CPUs each handoff wakes an idle one, and on a shared VM that wake
//! costs ten times more for as long as the hypervisor keeps the idle
//! vCPU descheduled. Sizing saw MsQueue-MP's 4949 executions take
//! 0.12-0.25 s or 1.25-1.97 s back to back from that alone (8 of 60 runs
//! slow, unpinned; 0 of 60 pinned). The workload measures the checker,
//! not the neighbours, so it fixes the placement.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 bits.
const WORDS: usize = 16;

/// Restricts the calling thread — and every thread it spawns from now
/// on — to the highest CPU it may run on. Returns that CPU, or `None` if
/// the kernel refused (the run then proceeds unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, holding
    // one CPU taken from the thread's current mask.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}
