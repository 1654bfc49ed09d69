//! The run record printed with every result: what code ran, where, and
//! under which settings, so numbers from different hosts can be told
//! apart.

use std::path::Path;
use std::process::Command;

use crate::workloads::Kind;

/// One-line JSON record of the run.
pub fn record(
    kind: Kind,
    seed: u64,
    clients: usize,
    seconds: u64,
    trace: bool,
    scratch: &Path,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let policy = kind
        .fsync_policy()
        .map_or("none (in-memory ring WAL)".to_string(), |p| {
            format!("{p:?}")
        });
    let fields = [
        ("workload", quote(kind.name())),
        ("seed", seed.to_string()),
        ("clients", clients.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("git_rev", quote(&git_rev())),
        ("source_digest", quote(&source_digest())),
        ("nproc", nproc.to_string()),
        ("cpu", quote(&cpu_model())),
        ("rustc", quote(&command_line("rustc", &["--version"]))),
        ("fsync_policy", quote(&policy)),
        ("wal_dir_fs", quote(&filesystem_of(scratch))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal of `s` (control characters become spaces).
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's stdout, or why there is none.
fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string(),
        Ok(_) => "unavailable".to_string(),
        Err(e) => format!("unavailable: {e}"),
    }
}

/// HEAD of the checkout the benchmark runs in. Only a `.git` right here
/// counts: git would otherwise report an enclosing repository.
fn git_rev() -> String {
    let rev = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unavailable".to_string()
    };
    if rev.starts_with("unavailable") {
        "unavailable (not a git checkout; see source_digest)".to_string()
    } else {
        rev
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in /proc/self/mounts).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt)
                .then(|| (mnt.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// FNV-1a over the benchmarked sources (path and contents, in path
/// order): identifies the code when the checkout carries no git metadata.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.extend(["Cargo.lock", "perfbench/Cargo.toml"].map(Into::into));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        eat(f.to_string_lossy().as_bytes());
        eat(&bytes);
    }
    format!("fnv1a64:{h:016x} over {} files", files.len())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
