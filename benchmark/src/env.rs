//! Where and on what a result was recorded, and the two process gauges the
//! end-to-end metrics read (`/proc` only — no libc).

use std::fs;
use std::path::Path;

use crate::json::Json;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` of `repo` without spawning git
/// ("unknown" in an exported tree).
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let head = match fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head; // detached
    };
    if let Ok(loose) = fs::read_to_string(git.join(name)) {
        return loose.trim().to_string();
    }
    // After `git gc` the branch lives in packed-refs.
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| packed_ref(&packed, name))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit `name` points at in a `packed-refs` file ("<sha> <ref>" lines
/// among comments and "^<sha>" peel lines).
fn packed_ref(packed: &str, name: &str) -> Option<String> {
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, r)| *r == name)
        .map(|(sha, _)| sha.to_string())
}

pub fn stamp(repo: &Path) -> Json {
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env!("LEDGER_RUSTC_VERSION"))),
        ("git_commit", Json::str(git_commit(repo))),
        ("os", Json::str(std::env::consts::OS)),
    ])
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn rss_peak_mb() -> Result<f64, String> {
    const PATH: &str = "/proc/self/status";
    let text = fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
    text.lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("{PATH}: no VmHWM line"))
}

/// Nanoseconds the calling thread has spent on a CPU (first field of its
/// `schedstat`). Single-threaded workloads divide its growth by wall time
/// to get the cores they kept busy. An error where the kernel keeps no
/// schedstat: a silent 0 would read as "no CPU used".
pub fn thread_cpu_ns() -> Result<u64, String> {
    const PATH: &str = "/proc/thread-self/schedstat";
    let text = fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{PATH}: no CPU-time field in '{}'", text.trim()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_refs_resolve_a_branch_and_nothing_else() {
        let packed = "# pack-refs with: peeled fully-peeled sorted \n\
                      1111111111111111111111111111111111111111 refs/heads/main\n\
                      2222222222222222222222222222222222222222 refs/tags/v1\n\
                      ^3333333333333333333333333333333333333333\n";
        assert_eq!(
            packed_ref(packed, "refs/heads/main").as_deref(),
            Some("1111111111111111111111111111111111111111")
        );
        assert_eq!(packed_ref(packed, "refs/heads/other"), None);
    }

    #[test]
    fn the_process_gauges_read_on_this_kernel() {
        assert!(rss_peak_mb().expect("VmHWM") > 0.0);
        let before = thread_cpu_ns().expect("schedstat");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns().expect("schedstat") > before);
    }
}
