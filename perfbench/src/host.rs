//! The host fingerprint every result record carries, so a slower runner
//! can be told apart from a regression, and the process's peak memory.

use std::fs;
use std::path::Path;
use std::process::Command;

use hl_serve::Json;

/// Runs `program args…` to completion and returns its trimmed standard
/// output, or `None` when it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over bytes, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

/// Starting value for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Every file under `dir` (recursively), sorted by path.
fn files_under(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// A hash of the program's sources (`crates/`, `Cargo.lock`) — the
/// commit's identity when the checkout is not a git repository.
fn source_hash() -> String {
    let mut files = Vec::new();
    files_under(Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut hash = FNV_OFFSET;
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            hash = fnv1a(hash, f.to_string_lossy().as_bytes());
            hash = fnv1a(hash, &bytes);
        }
    }
    format!("{hash:016x}")
}

/// Host and build identity: CPU counts, compiler, commit.
pub fn fingerprint() -> Json {
    let nproc = command_output("nproc", &[])
        .and_then(|s| s.parse::<f64>().ok())
        .map_or(Json::Null, Json::Num);
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let text = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    Json::Obj(vec![
        ("nproc".into(), nproc),
        (
            "available_parallelism".into(),
            Json::Num(parallelism as f64),
        ),
        ("rustc".into(), text(command_output("rustc", &["-V"]))),
        (
            "commit".into(),
            // Only this checkout's own repository; never a parent's.
            text(
                Path::new(".git")
                    .exists()
                    .then(|| command_output("git", &["rev-parse", "HEAD"]))
                    .flatten(),
            ),
        ),
        ("source_hash".into(), Json::str(source_hash())),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
