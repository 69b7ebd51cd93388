//! What the benchmark asks of the host: scratch space, memory and CPU
//! accounting, core count.

use std::path::{Path, PathBuf};

/// The per-process scratch directory every on-disk store of a run lives
/// under; removed when dropped, also on a failed run's unwind.
#[derive(Debug)]
pub struct ScratchDir {
    root: PathBuf,
}

impl ScratchDir {
    /// `<base>/scratch/<pid>` (see [`base_dir`]).
    pub fn create() -> std::io::Result<Self> {
        let root = base_dir()
            .join("scratch")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Everything a run writes goes under here: `$APC_BENCH_DIR` (set by
/// `run.sh` to the benchmark's own `target/`) or `benchmark/target`
/// under the working directory — inside the checkout either way.
fn base_dir() -> PathBuf {
    std::env::var_os("APC_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/target"))
}

/// Where result and trace files go: `<base>/<kind>/`, created on demand.
pub fn output_dir(kind: &str) -> std::io::Result<PathBuf> {
    let dir = base_dir().join(kind);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn proc_field(path: &Path, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| rest.trim().to_owned())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    proc_field(Path::new("/proc/self/status"), "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the kernel's high-water mark of this process's resident set
/// (`echo 5 > /proc/self/clear_refs`), so the next [`peak_rss_mb`] is
/// the peak since now. False where the kernel or a sandbox refuses.
///
/// First hands the allocator's free memory back (`malloc_trim`, glibc
/// only). Without that a process settles, for all its cycles, at
/// whatever its 16 arenas happened to retain after set-up — 170 to
/// 216 MB for `sync_adaptive` from one process to the next, 237 to
/// 310 MB for `store_replay` — and the reading says more about arena
/// luck than about the program. With it: 157–160 MB and 236.6–237.7 MB.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes the arena locks itself and
        // may be called at any time from any thread.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User + system CPU seconds this process has used, all threads, from
/// `/proc/self/stat` (clock ticks of 10 ms, the Linux `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after it.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
