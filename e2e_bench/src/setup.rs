//! Repeated set-up: `setup_s` is the median wall of several complete
//! set-ups in one run, and `resident_mb` the growth of the resident set
//! across the first of them, which is the memory the loaded model holds.

use crate::stats;
use crate::trace::Tracer;
use nm_core::error::Result;
use std::time::Instant;

/// Complete set-ups per run.
pub const SETUP_REPS: usize = 11;

/// The outcome of [`repeat`]: the first set-up's product, kept for the
/// measured phase, and the two set-up metrics.
pub struct SetUps<T> {
    pub kept: T,
    pub setup_s: f64,
    pub resident_mb: f64,
}

/// Run `set_up` [`SETUP_REPS`] times, each as its own trace group. The
/// first product is kept; the rest are dropped as soon as they are made.
pub fn repeat<T>(
    tracer: &mut Tracer,
    next_group: &mut u64,
    mut set_up: impl FnMut(&mut Tracer, u64) -> Result<T>,
) -> Result<SetUps<T>> {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let before = settled_rss_kib();
    let start = Instant::now();
    let kept = set_up(tracer, *next_group)?;
    walls.push(start.elapsed().as_secs_f64());
    let grown_kib = settled_rss_kib().saturating_sub(before);
    *next_group += 1;
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        drop(set_up(tracer, *next_group)?);
        walls.push(start.elapsed().as_secs_f64());
        *next_group += 1;
    }
    Ok(SetUps {
        kept,
        setup_s: stats::median(&walls),
        resident_mb: grown_kib as f64 / 1024.0,
    })
}

extern "C" {
    /// glibc: return free heap memory to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// The resident set once freed heap memory has been handed back, so the
/// reading counts live allocations rather than what earlier garbage left
/// resident.
fn settled_rss_kib() -> u64 {
    // SAFETY: malloc_trim takes no pointers and only releases free pages
    // of the allocator's own heap; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    vm_rss_kib()
}

/// The process's resident set (`VmRSS`), in KiB.
pub fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status")
}
