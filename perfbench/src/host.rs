//! Host cost read from outside the library: `getrusage(RUSAGE_SELF)` for CPU
//! time and context switches of this process (all of its threads, including
//! the simulator's proc threads after they exit), and the kernel's
//! high-water mark of its resident memory.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out (every field after the two
/// timevals is a `long`).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// User + system CPU seconds and context switches (voluntary +
/// involuntary) of the process so far.
fn usage() -> (f64, u64) {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly laid out, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    (
        secs(&ru.ru_utime) + secs(&ru.ru_stime),
        (ru.ru_nvcsw + ru.ru_nivcsw) as u64,
    )
}

/// Peak resident set of this process so far, in MiB: `VmHWM` of
/// `/proc/self/status`. Not `ru_maxrss`, which also holds the resident size
/// of the parent image the process was forked from (cargo's, when started
/// through `cargo run`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Host cost of one measured region.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
    pub wall_s: f64,
    pub ctx_switches: u64,
}

impl Cost {
    pub fn add(&mut self, other: &Cost) {
        self.cpu_s += other.cpu_s;
        self.wall_s += other.wall_s;
        self.ctx_switches += other.ctx_switches;
    }
}

/// Run `f` and return its result with the host cost it took.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (cpu0, ctx0) = usage();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu1, ctx1) = usage();
    let cost = Cost {
        cpu_s: cpu1 - cpu0,
        wall_s,
        ctx_switches: ctx1 - ctx0,
    };
    (out, cost)
}
