//! What the operating system says about this process, from `/proc`.

use std::fs;

/// Kernel clock ticks per second. `USER_HZ` is 100 on every Linux
/// architecture the toolchain targets; reading it properly needs `sysconf`,
/// which needs a crate the container does not have.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of a `/proc/.../stat` file, in milliseconds.
fn cpu_ms_of(stat_path: &str) -> f64 {
    let stat = fs::read_to_string(stat_path).unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 1000.0 / TICKS_PER_S
}

/// CPU time of the whole process (all threads), user plus system, ms.
pub fn process_cpu_ms() -> f64 {
    cpu_ms_of("/proc/self/stat")
}

/// CPU time of the calling thread, ms: nanosecond-exact from `schedstat`
/// where the kernel keeps it, else from the tick counters.
pub fn thread_cpu_ms() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .filter(|&ns| ns > 0.0)
        .map_or_else(|| cpu_ms_of("/proc/thread-self/stat"), |ns| ns / 1e6)
}

/// CPU time of all live threads, ms, nanosecond-exact where `schedstat`
/// exists. Threads that have exited are not in it, so it is only good
/// around a section in which none exits (the burst probes); the measured
/// window uses [`process_cpu_ms`].
pub fn live_threads_cpu_ms() -> f64 {
    let ns: f64 = fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum();
    if ns > 0.0 {
        ns / 1e6
    } else {
        process_cpu_ms()
    }
}

/// Peak resident set size (`VmHWM`) of the process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_ms();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ms() >= before + 20.0);
        assert!(thread_cpu_ms() > 0.0);
        assert!(peak_rss_mb() > 1.0);
        assert!(nproc() >= 1);
    }
}
