//! Process-level resource readings from `/proc` and CPU pinning (Linux
//! only; the reactor under test is epoll-based, so the benchmark
//! already is).

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI; the
/// workspace ships no libc to ask `sysconf`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, all
/// threads included (live and already joined).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields")
    };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// The CPUs this thread may run on, from the `Cpus_allowed_list` line
/// of its `/proc` status (`0-1`, `0,2-3`, …).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or_default();
    list.trim()
        .split(',')
        .filter_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            Some(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Pins the calling thread, and every thread started from it later, to
/// the highest-numbered CPU it is allowed (interrupts favour CPU 0).
/// Returns that CPU, or `None` if the kernel refused; the run then goes
/// on unpinned.
///
/// Every workload is a closed loop with one request in flight, so its
/// two parties alternate and one CPU loses them nothing. What it takes
/// away is the cross-CPU wake-up on every hand-off: in a virtual
/// machine that is an interrupt to a halted vCPU which the host must
/// first schedule, and when the host is busy `fleet_sim_tcp` (eight
/// hand-offs in 0.2 ms) reads 40–50 % slower for minutes on end, the
/// same code pinned reading the same as ever.
#[allow(unsafe_code)]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        /// `sched_setaffinity(2)` from the C library `std` links.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes that
    // the kernel only reads; pid 0 names the calling thread.
    let ret = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (ret == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_threads_inherit_it() {
        // On a thread of its own: the test harness's threads stay free.
        std::thread::spawn(|| {
            assert!(!allowed_cpus().is_empty());
            let cpu = pin_to_one_cpu().expect("pin");
            assert_eq!(allowed_cpus(), [cpu]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, [cpu]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn readings_are_positive_and_cpu_time_advances() {
        let before = process_cpu_s();
        let start = std::time::Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_s() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
