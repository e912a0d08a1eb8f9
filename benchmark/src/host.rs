//! What the benchmark reads from the host: the fingerprint stamped on
//! every report, peak memory, and the process's CPU time.

use std::process::Command;

use serde::{Serialize, Value};

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where a report was measured. `compare` warns when two differ.
///
/// `cpus` are the CPUs the process may use and `pinned_cpu` the one a
/// measurement confines itself to (`null` where the kernel refuses the
/// affinity call and placement is the scheduler's choice, run by run).
pub fn fingerprint() -> Value {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load_1min = read_trimmed("/proc/loadavg")
        .and_then(|l| l.split(' ').next().and_then(|f| f.parse::<f64>().ok()))
        .unwrap_or(-1.0);
    let cpus = allowed_cpus();
    // tried on a thread of its own, so that asking changes nothing
    let pinned_cpu = std::thread::scope(|scope| {
        scope
            .spawn(pin_to_one_cpu)
            .join()
            .expect("affinity probe panicked")
    });
    Value::Object(vec![
        ("nproc".to_string(), nproc.to_value()),
        (
            "kernel".to_string(),
            read_trimmed("/proc/sys/kernel/osrelease")
                .unwrap_or_else(unknown)
                .to_value(),
        ),
        (
            "rustc".to_string(),
            command_line("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .to_value(),
        ),
        (
            "git_commit".to_string(),
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .to_value(),
        ),
        ("load_1min".to_string(), load_1min.to_value()),
        (
            "cpus".to_string(),
            Value::Array(cpus.iter().map(|c| c.to_value()).collect()),
        ),
        (
            "pinned_cpu".to_string(),
            pinned_cpu.map_or(Value::Null, |c| c.to_value()),
        ),
    ])
}

/// The fingerprint fields whose difference makes two reports hard to
/// compare (the load average always differs and is only shown).
pub const COMPARABLE_FIELDS: [&str; 6] = [
    "nproc",
    "kernel",
    "rustc",
    "git_commit",
    "cpus",
    "pinned_cpu",
];

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    // fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name, in clock ticks of 1/100 s
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let ticks: u64 = after_name
        .split(' ')
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Words of the kernel's CPU mask this benchmark passes (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    // from the C library that std already links
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order; empty if
/// the kernel will not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the
    // `size_of_val(&mask)` bytes the call is told it may fill; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread, and every thread started under it
/// afterwards, to `cpus`. Returns whether the kernel accepted it.
fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of the `size_of_val(&mask)` bytes
    // the call reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Puts the calling thread, and so every thread started under it from
/// here on, on one CPU: the last the process may use. Returns that CPU,
/// or `None` if the kernel refused and the thread runs where it did.
///
/// Left to the scheduler, a run reads whichever placement it happened to
/// get. On the 2-CPU virtual machine this was sized on, the two threads
/// of a native pass are kept on one CPU in some runs (3.0-4.3 M
/// operations/s) and spread over both in others (1.8-2.3 M: every
/// balancer cache line then crosses cores), for minutes at a time; a
/// serve client and its server thread either share a core (a 7 us round
/// trip) or wake each other across cores (45-70 us). On one CPU a
/// measurement is the program's own work plus context switches, every
/// run.
pub fn pin_to_one_cpu() -> Option<usize> {
    let last = *allowed_cpus().last()?;
    (pin_current_thread(&[last]) && allowed_cpus() == [last]).then_some(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_readings_are_present_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(cpu_seconds() > before);
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let pinned = std::thread::spawn(|| (pin_to_one_cpu(), allowed_cpus()))
            .join()
            .unwrap();
        assert_eq!(pinned, (cpus.last().copied(), vec![*cpus.last().unwrap()]));
        // the pin stayed on that thread
        assert_eq!(allowed_cpus(), cpus);
        let f = fingerprint();
        for key in COMPARABLE_FIELDS {
            assert!(f.get(key).is_some(), "{key}");
        }
    }
}
