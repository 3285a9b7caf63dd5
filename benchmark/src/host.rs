//! What the host tells us: core count, kernel, per-thread CPU time and
//! the resident-set high-water mark, all read from `/proc`; and which
//! CPUs the driver and the program run on.

use std::path::Path;

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100.
const TICKS_PER_SEC: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a repository (the driver's checkout is not one).
pub fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None => head.to_owned(),
    }
}

/// Words in a CPU set: room for 1 024 CPUs, as in glibc's `cpu_set_t`.
const CPU_WORDS: usize = 16;
type CpuSet = [u64; CPU_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread to `cpus`; `false` if the kernel refused.
fn run_on(cpus: &CpuSet) -> bool {
    // SAFETY: `cpus` is a live array of exactly the length passed.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), cpus.as_ptr()) == 0 }
}

/// Run `spawn`, which starts the program's threads, and keep them off
/// the driver's CPU: the calling thread gives up the last CPU it is
/// allowed for the time of the call, so every thread spawned in it
/// inherits the other CPUs, and then moves to that last CPU alone. A
/// spinning driver the scheduler is free to place shares a CPU with the
/// program's workers in some runs and not in others, and on the 2-CPU
/// recording host that alone moved `chat_busy`'s p99 between 3.7 and
/// 5.6 ms. With one CPU allowed, or where the kernel refuses, nothing
/// moves.
pub fn spawn_apart<T>(spawn: impl FnOnce() -> T) -> T {
    // What the driver thread was allowed before it first confined itself.
    static ALLOWED: std::sync::OnceLock<Option<CpuSet>> = std::sync::OnceLock::new();
    let allowed = *ALLOWED.get_or_init(|| {
        let mut set = [0; CPU_WORDS];
        // SAFETY: `set` is a live array of exactly the length passed.
        let read = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) };
        (read >= 0).then_some(set)
    });
    let Some((allowed, word)) =
        allowed.and_then(|set| Some((set, set.iter().rposition(|&bits| bits != 0)?)))
    else {
        return spawn();
    };
    let last = 1u64 << (63 - allowed[word].leading_zeros());
    let (mut others, mut own) = (allowed, [0; CPU_WORDS]);
    others[word] &= !last;
    own[word] = last;
    if others.iter().all(|&bits| bits == 0) || !run_on(&others) {
        return spawn();
    }
    let out = spawn();
    run_on(&own);
    out
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// One thread's accumulated user+system CPU time.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCpu {
    pub tid: u64,
    pub name: String,
    pub cpu_s: f64,
}

/// Parse one `/proc/<pid>/task/<tid>/stat` line into (comm, utime+stime
/// ticks). The comm may itself contain spaces and parentheses, so the
/// fields are counted from the last `)`.
fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?.to_owned();
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    // After the comm: state is field 3, utime field 14, stime field 15.
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((name, utime + stime))
}

/// CPU time of every live thread of this process.
pub fn thread_cpu() -> Vec<ThreadCpu> {
    let mut out = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread can exit between the listing and the read.
        let Ok(line) = std::fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        if let Some((name, ticks)) = parse_stat(&line) {
            out.push(ThreadCpu {
                tid,
                name,
                cpu_s: ticks as f64 / TICKS_PER_SEC,
            });
        }
    }
    out
}

/// CPU seconds spent between two [`thread_cpu`] snapshots, per thread
/// alive at the second one (a thread born in between counts in full).
pub fn cpu_between(before: &[ThreadCpu], after: &[ThreadCpu]) -> Vec<ThreadCpu> {
    after
        .iter()
        .map(|a| {
            let base = before
                .iter()
                .find(|b| b.tid == a.tid)
                .map_or(0.0, |b| b.cpu_s);
            ThreadCpu {
                tid: a.tid,
                name: a.name.clone(),
                cpu_s: (a.cpu_s - base).max(0.0),
            }
        })
        .collect()
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_lines_parse_even_with_odd_thread_names() {
        let line =
            "12 (eactors) worker-1) S 1 12 12 0 -1 4194304 10 0 0 0 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(
            parse_stat(line),
            Some(("eactors) worker-1".to_owned(), 300))
        );
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn this_process_is_visible() {
        let tid = current_tid();
        assert!(tid > 0);
        assert!(thread_cpu().iter().any(|t| t.tid == tid));
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }

    /// The CPUs the calling thread may run on, from `/proc`.
    fn allowed_cpus() -> Vec<usize> {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap();
        list.trim()
            .split(',')
            .flat_map(|range| {
                let (lo, hi) = range.split_once('-').unwrap_or((range, range));
                lo.parse::<usize>().unwrap()..=hi.parse().unwrap()
            })
            .collect()
    }

    #[test]
    fn spawned_threads_stay_off_the_drivers_cpu() {
        let before = allowed_cpus();
        for _ in 0..2 {
            let theirs = spawn_apart(|| std::thread::spawn(allowed_cpus).join().unwrap());
            let mine = allowed_cpus();
            if before.len() < 2 {
                assert_eq!((&mine, &theirs), (&before, &before));
                return;
            }
            assert_eq!(mine, [*before.last().unwrap()]);
            assert_eq!(theirs, before[..before.len() - 1]);
        }
    }

    #[test]
    fn cpu_deltas_subtract_per_thread() {
        let t = |tid, cpu_s| ThreadCpu {
            tid,
            name: "t".into(),
            cpu_s,
        };
        let d = cpu_between(&[t(1, 1.0), t(2, 5.0)], &[t(1, 1.5), t(3, 0.25)]);
        assert_eq!(d, vec![t(1, 0.5), t(3, 0.25)]);
    }
}
