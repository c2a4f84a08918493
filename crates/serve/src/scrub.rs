//! The background scrubber: a thread that periodically sweeps every
//! protected variant's weight storage, repairing correctable errors in
//! place and escalating uncorrectable ones to a rebuild + hot swap
//! (via [`ModelRegistry::scrub_variant`]).
//!
//! The same pass is callable inline
//! ([`Engine::scrub_now`](crate::Engine::scrub_now)) so tests and
//! operators can force a sweep without waiting out the period.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry::ModelRegistry;
use crate::stats::ServeStats;

/// What one sweep over every protected variant found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubSummary {
    /// Protected variants swept.
    pub variants: usize,
    /// Single-bit errors repaired in place, summed over variants.
    pub corrected: usize,
    /// Detected-uncorrectable words, summed over variants.
    pub uncorrectable: usize,
    /// Variants rebuilt from their FP32 checkpoint and hot-swapped.
    pub rebuilds: usize,
    /// Wall-clock duration of the sweep, in microseconds.
    pub elapsed_us: u64,
}

/// One sweep over every protected variant, updating the engine
/// counters (`scrub_passes`, `last_scrub_us`, `rebuilds`).
pub(crate) fn scrub_pass(registry: &ModelRegistry, stats: &ServeStats) -> ScrubSummary {
    let start = Instant::now();
    let mut summary = ScrubSummary::default();
    for id in registry.ids() {
        if let Some(outcome) = registry.scrub_variant(&id) {
            summary.variants += 1;
            summary.corrected += outcome.corrected;
            summary.uncorrectable += outcome.uncorrectable;
            if outcome.rebuilt {
                summary.rebuilds += 1;
                stats.on_rebuild();
            }
        }
    }
    summary.elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    stats.on_scrub_pass(summary.elapsed_us);
    summary
}

/// The periodic scrubber thread. Created by the engine when
/// [`EngineConfig::scrub_period`](crate::EngineConfig::scrub_period) is
/// set; stopped (and joined) on engine shutdown.
#[derive(Debug)]
pub struct Scrubber {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Scrubber {
    /// Spawn the scrubber, sweeping every `period`.
    pub(crate) fn start(
        registry: Arc<ModelRegistry>,
        stats: Arc<ServeStats>,
        period: Duration,
    ) -> Scrubber {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("af-serve:scrub".to_string())
                .spawn(move || {
                    let (lock, cvar) = &*stop;
                    let mut stopped = lock.lock().expect("scrubber poisoned");
                    loop {
                        let (guard, timeout) = cvar
                            .wait_timeout(stopped, period)
                            .expect("scrubber poisoned");
                        stopped = guard;
                        if *stopped {
                            return;
                        }
                        if timeout.timed_out() {
                            // Sweep without holding the stop lock, so
                            // shutdown never waits on a scrub.
                            drop(stopped);
                            scrub_pass(&registry, &stats);
                            stopped = lock.lock().expect("scrubber poisoned");
                        }
                    }
                })
                .expect("spawn scrubber")
        };
        Scrubber {
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the thread to stop and join it. Idempotent.
    pub(crate) fn stop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("scrubber poisoned") = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.stop();
    }
}
