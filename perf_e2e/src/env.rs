//! The run's stamp: machine, toolchain, revision, and the host contention
//! the run saw (steal time) next to the CPU time it used; and the clock the
//! gated figures are timed with.

use std::fs;
use std::path::Path;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// Steal seconds summed over all CPUs since boot (`/proc/stat`), or 0 where
/// the file is unreadable.
pub fn steal_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else { return 0.0 };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else { return 0.0 };
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok()).map_or(0.0, |t| t / USER_HZ)
}

/// User + system CPU seconds of this process (`/proc/self/stat`).
pub fn cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds of the whole process, every thread live or exited, at
/// nanosecond resolution. On a kernel with paravirtual steal accounting
/// (`CONFIG_PARAVIRT_TIME_ACCOUNTING`) the time the hypervisor stole is
/// left out, so the figure does not grow with the host's contention the
/// way wall time does.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (64-bit `time_t` and
    // `long`, as on every 64-bit Linux target); the call writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall time and process CPU time, read together.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

/// Wall and process CPU seconds between two [`Stamp`]s.
#[derive(Clone, Copy, Default)]
pub struct Elapsed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp { wall: Instant::now(), cpu: process_cpu_s() }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn elapsed(&self) -> Elapsed {
        Elapsed { wall_s: self.wall.elapsed().as_secs_f64(), cpu_s: process_cpu_s() - self.cpu }
    }
}

impl std::ops::AddAssign for Elapsed {
    fn add_assign(&mut self, other: Elapsed) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// Resets the process's peak-RSS mark so the next [`peak_rss_mb`] covers
/// only what follows. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn rustc() -> &'static str {
    env!("PERF_E2E_RUSTC")
}

/// The checked-out commit, read from `.git` in the working directory;
/// "unknown" when the tree is not a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
