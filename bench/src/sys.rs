//! Process-level readings from `/proc`: CPU time and peak resident set.

use std::time::{Duration, Instant};

/// Kernel clock ticks per second as `/proc/self/stat` reports them
/// (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').expect("stat has a comm field").1;
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (ticks() + ticks()) / USER_HZ
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free heap pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Makes [`peak_rss_mb`] read the peak of what follows rather than of
/// set-up: hands the allocator's free pages back to the kernel (what
/// three set-ups leave cached in the arenas depends on thread timing)
/// and restarts the kernel's peak-RSS watermark at the live set. Best
/// effort: without glibc nothing is trimmed, and where
/// `/proc/self/clear_refs` is not writable the watermark stays the
/// process-lifetime peak.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and is thread-safe (it locks
    // each arena); it only releases pages the allocator holds no live
    // allocation in.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// A stopwatch that can be paused around harness-only work (output
/// verification), so set-up time counts the program's work alone.
#[derive(Debug, Default)]
pub struct Stopwatch {
    total: Duration,
    running: Option<Instant>,
}

impl Stopwatch {
    pub fn started() -> Self {
        Stopwatch {
            total: Duration::ZERO,
            running: Some(Instant::now()),
        }
    }

    pub fn pause(&mut self) {
        if let Some(since) = self.running.take() {
            self.total += since.elapsed();
        }
    }

    pub fn resume(&mut self) {
        self.running.get_or_insert_with(Instant::now);
    }

    /// Runs `work` with the watch paused.
    pub fn excluding<T>(&mut self, work: impl FnOnce() -> T) -> T {
        self.pause();
        let out = work();
        self.resume();
        out
    }

    pub fn elapsed(&self) -> Duration {
        self.total + self.running.map_or(Duration::ZERO, |since| since.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn paused_time_is_not_counted() {
        let mut w = Stopwatch::started();
        w.excluding(|| std::thread::sleep(Duration::from_millis(30)));
        assert!(w.elapsed() < Duration::from_millis(25));
        w.pause();
        let frozen = w.elapsed();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(w.elapsed(), frozen);
    }
}
