//! Peak resident memory of this process, and the watchdog that keeps a
//! workload from ever OOM-killing the box.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A workload whose peak resident set passes this aborts and counts as
/// failed (the box has 16 GB; full `exp_e6_pipeline` gets OOM-killed on it).
pub const RSS_LIMIT_MB: f64 = 4096.0;

/// Exit code of a run the watchdog stopped.
pub const EXIT_RSS_LIMIT: i32 = 3;

/// `VmHWM` of this process in MB; `0.0` where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Polls [`peak_rss_mb`] on a background thread until dropped.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the watchdog for `workload`.
    pub fn start(workload: &str) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let workload = workload.to_owned();
        let thread = std::thread::spawn(move || {
            // Relaxed: the flag publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                let peak = peak_rss_mb();
                if peak > RSS_LIMIT_MB {
                    eprintln!(
                        "benchmark: workload '{workload}' aborted: peak resident memory \
                         {peak:.0} MB passed the {RSS_LIMIT_MB:.0} MB limit; the run counts as failed"
                    );
                    std::process::exit(EXIT_RSS_LIMIT);
                }
                std::thread::park_timeout(std::time::Duration::from_millis(100));
            }
        });
        Watchdog {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            // A panic in the poller has nothing to report beyond itself.
            let _ = thread.join();
        }
    }
}
