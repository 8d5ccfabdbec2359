//! The environment record printed with every result.

use std::path::Path;

/// Facts about the machine and build that every result depends on.
pub fn record(store_dir: &Path, checkout: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        concat!(
            "{{\"kind\":\"pdebench-env\",\"nproc\":{},\"kernel\":\"{}\",\"store_fs\":\"{}\",",
            "\"flush_policy\":\"fdatasync per journal commit; fsync per snapshot\",",
            "\"build_profile\":\"release\",\"commit\":\"{}\",",
            "\"latency_note\":\"serve latencies are this machine's, not a storage device's\"}}"
        ),
        nproc,
        kernel,
        filesystem_of(store_dir),
        commit(checkout),
    )
}

/// The filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best = ("unknown".to_owned(), 0usize);
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_), Some(point), Some(fs)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if dir.starts_with(point) && point.len() >= best.1 {
            best = (fs.to_owned(), point.len());
        }
    }
    best.0
}

/// The git commit when the checkout is a repository, else a fingerprint
/// of the sources the benchmark builds (`tree:<fnv1a>`).
fn commit(checkout: &Path) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(checkout)
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_owned();
        }
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect(&checkout.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree:{h:016x}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect(&e.path(), out);
        }
    }
}
