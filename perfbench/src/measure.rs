//! Host-side clocks: wall time, process CPU time, context switches and
//! peak resident memory, plus the small statistics the report needs.

use std::time::Instant;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `RUSAGE_SELF`: every thread of the process, including threads that
/// have already exited (the simulator's OS threads end with their world).
const RUSAGE_SELF: i32 = 0;

/// Process-wide CPU time and context-switch counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU time, ns.
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

/// Read the process's resource usage.
pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout
    // of 64-bit Linux; `getrusage` writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid pointer"
    );
    let us = (ru.utime_sec + ru.stime_sec) * 1_000_000 + ru.utime_usec + ru.stime_usec;
    Usage {
        cpu_ns: u64::try_from(us).expect("CPU time is non-negative") * 1_000,
        ctx_switches: u64::try_from(ru.nvcsw + ru.nivcsw).expect("counts are non-negative"),
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Wall time, CPU time and context switches accumulated over the calls
/// made through [`Meter::time`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Meter {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub ctx_switches: u64,
}

impl Meter {
    /// Run `f`, adding its wall time, CPU time and context switches.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let u0 = usage();
        let t0 = Instant::now();
        let r = f();
        self.wall_ns += t0.elapsed().as_nanos() as u64;
        let u1 = usage();
        self.cpu_ns += u1.cpu_ns - u0.cpu_ns;
        self.ctx_switches += u1.ctx_switches - u0.ctx_switches;
        r
    }

    pub fn add(&mut self, other: &Meter) {
        self.wall_ns += other.wall_ns;
        self.cpu_ns += other.cpu_ns;
        self.ctx_switches += other.ctx_switches;
    }
}

/// Quantile `q` of `v`, interpolating linearly between the two nearest
/// samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(s.len() - 1);
    s[lo] + (s[hi] - s[lo]) * frac
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// splitmix64: the benchmark's input generator, a pure function of its
/// argument.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
