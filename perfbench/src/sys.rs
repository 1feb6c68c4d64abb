//! Host facts and CPU placement (Linux).

use std::process::{Command, Stdio};

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

/// CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0).collect()
}

fn cpu_mask(cpus: &[usize]) -> [u64; MASK_WORDS] {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        assert!(cpu < MASK_WORDS * 64, "cpu {cpu} is beyond the affinity mask");
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

/// Restrict thread `tid` (0: the calling thread) — and every thread it
/// spawns afterwards — to `cpus`. Returns whether the kernel accepted it.
fn set_thread_affinity(tid: i32, cpus: &[usize]) -> bool {
    let mask = cpu_mask(cpus);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Restrict every thread of this process to `cpus`. A thread that exits
/// meanwhile is skipped; a refusal for a live thread panics.
fn set_process_affinity(cpus: &[usize]) {
    let tasks = std::fs::read_dir("/proc/self/task").expect("listing this process's threads");
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse::<i32>().ok()) else {
            continue;
        };
        if !set_thread_affinity(tid, cpus) && task.path().exists() {
            panic!("pinning thread {tid} to cpus {cpus:?} was refused");
        }
    }
}

/// CPU placement of an open-loop workload. While the client timestamps
/// a steady phase it keeps a CPU of its own and the program runs on the
/// first; a burst, which the client only waits on, gives the program
/// every CPU, so it runs its default (parallel) kernel path there.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Every CPU this process may use.
    pub cpus: Vec<usize>,
    /// The client's own CPU, when there are two or more.
    pub client: Option<usize>,
}

impl Placement {
    /// Choose from the allowed CPUs: the client gets the last one.
    pub fn choose() -> Placement {
        let cpus = allowed_cpus();
        let client = (cpus.len() >= 2).then(|| cpus[cpus.len() - 1]);
        Placement { cpus, client }
    }

    /// Program and client share every CPU (closed loop).
    pub fn shared() -> Placement {
        Placement { cpus: allowed_cpus(), client: None }
    }

    /// Every thread, the calling one too, on every CPU (set-up).
    pub fn release(&self) {
        set_process_affinity(&self.cpus);
    }

    /// The program on the first CPU, the calling thread (the client) on
    /// its own.
    pub fn steady(&self) {
        if let Some(c) = self.client {
            set_process_affinity(&self.cpus[..1]);
            assert!(set_thread_affinity(0, &[c]), "pinning to cpu {c} was refused");
        }
    }

    /// The program on every CPU, the calling thread (the client) on its
    /// own.
    pub fn burst(&self) {
        if let Some(c) = self.client {
            set_process_affinity(&self.cpus);
            assert!(set_thread_affinity(0, &[c]), "pinning to cpu {c} was refused");
        }
    }
}

/// CPU time this process has consumed, all threads, in seconds. The
/// kernel leaves out time a hypervisor stole from the virtual CPU.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "reading the process CPU clock failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-CPU `(busy, steal, total)` jiffies from `/proc/stat`, indexed by CPU.
pub fn cpu_times() -> Vec<(u64, u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .map(|l| {
            let v: Vec<u64> = l.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
            let at = |i: usize| v.get(i).copied().unwrap_or(0);
            let total: u64 = v.iter().take(8).sum();
            (total - at(3) - at(4) - at(7), at(7), total)
        })
        .collect()
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
        .map_or_else(|| "unknown".into(), |m| m.trim().to_string())
}

/// Commit of the checkout, when it is a git repository.
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
