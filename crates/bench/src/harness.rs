//! Shared experiment-harness utilities.
//!
//! The centerpiece is [`Prepared`] (now hosted by `apc-core`, re-exported
//! here): pipeline input plus a persistent rank session, so a figure's
//! parameter sweep replays many configurations over **one** set of rank
//! threads instead of re-spawning them per configuration
//! ([`Prepared::run_sweep`]). The input can be pre-generated in memory or
//! — with `APC_DATASET=<dir>` pointing at an `apc-store` dataset written
//! by `apc_cm1::write_dataset` — read lazily from disk through
//! [`Prepared::from_store`].

// apc-lint: allow-file(unwrap-in-lib): bench harness — panicking on a bad run or I/O error is the failure mode we want
use std::path::PathBuf;

use apc_cm1::StoredTimeSeries;
use apc_core::ExecPolicy;

pub use apc_core::{spaced_subset, Prepared};

/// Experiment scale. `quick` (default) shrinks iteration counts and sweep
/// resolution so the whole figure suite completes in minutes on one core;
/// `APC_SCALE=full` reproduces the paper's exact settings (10 iterations
/// for component experiments, 30 for adaptation, 5%-step sweeps).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Rank counts to evaluate (the paper: 64 and 400). When a stored
    /// dataset is bound via `APC_DATASET`, this collapses to the stored
    /// decomposition's rank count.
    pub rank_counts: Vec<usize>,
    /// Iterations for component experiments (paper: 10).
    pub component_iters: usize,
    /// Iterations for adaptation experiments (paper: 30).
    pub adapt_iters: usize,
    /// Reduction percentages for sweep figures.
    pub sweep: Vec<f64>,
    /// Dataset seed.
    pub seed: u64,
    /// Intra-rank execution policy applied to every pipeline run (see
    /// [`exec_from_env`]). Changes wall-clock time only; virtual-time
    /// figures are byte-identical under every policy.
    pub exec: ExecPolicy,
    /// `APC_DATASET`: directory of a stored `apc-store` dataset to replay
    /// instead of regenerating the synthetic simulation in memory. Written
    /// with `cargo run -p apc-bench --bin write_dataset`.
    pub dataset: Option<PathBuf>,
}

impl Scale {
    pub fn quick() -> Self {
        Self {
            rank_counts: vec![64, 400],
            component_iters: 4,
            adapt_iters: 12,
            sweep: vec![0.0, 20.0, 40.0, 60.0, 70.0, 80.0, 90.0, 95.0, 100.0],
            seed: 42,
            exec: ExecPolicy::Serial,
            dataset: None,
        }
    }

    pub fn full() -> Self {
        Self {
            sweep: (0..=20).map(|i| i as f64 * 5.0).collect(),
            component_iters: 10,
            adapt_iters: 30,
            ..Self::quick()
        }
    }

    /// Reads `APC_SCALE` (`full` or anything else ⇒ quick), `APC_THREADS`
    /// (see [`exec_from_env`]) and `APC_DATASET` (see [`dataset_from_env`];
    /// binding a stored dataset pins `rank_counts` and `seed` to the
    /// store's metadata so every figure replays the stored decomposition).
    pub fn from_env() -> Self {
        let mut scale = match std::env::var("APC_SCALE").as_deref() {
            Ok("full") => Self::full(),
            _ => Self::quick(),
        };
        scale.exec = exec_from_env();
        if let Some((dir, stored)) = dataset_from_env() {
            eprintln!(
                "[prep] APC_DATASET: replaying {} ({} ranks, {} stored iterations, codec {})",
                dir.display(),
                stored.decomp().nranks(),
                stored.iterations().len(),
                stored.codec().name(),
            );
            scale.rank_counts = vec![stored.decomp().nranks()];
            scale.seed = stored.seed();
            scale.dataset = Some(dir);
        }
        scale
    }
}

/// Reads `APC_DATASET`: unset ⇒ `None`; otherwise the directory must hold
/// a readable `apc-store` dataset (a typo'd path or corrupt store panics —
/// silently regenerating in memory would invalidate a replay measurement
/// without anyone noticing).
pub fn dataset_from_env() -> Option<(PathBuf, StoredTimeSeries)> {
    let dir = PathBuf::from(std::env::var_os("APC_DATASET")?);
    let stored = apc_cm1::open_dataset(&dir)
        .unwrap_or_else(|e| panic!("APC_DATASET={}: {e}", dir.display()));
    Some((dir, stored))
}

/// Reads `APC_THREADS`: unset, `0`, or `1` ⇒ serial (the seed behavior);
/// `auto` ⇒ one worker per core; `n` ⇒ `Threads(n)`. The experiment driver
/// still clamps to `ranks × threads ≤ cores`, so `auto` is always safe.
/// Anything else panics — a typo that silently fell back to serial would
/// invalidate a measurement without anyone noticing.
pub fn exec_from_env() -> ExecPolicy {
    exec_from_str(std::env::var("APC_THREADS").ok().as_deref())
}

/// [`exec_from_env`]'s parser, split out for testing.
pub fn exec_from_str(var: Option<&str>) -> ExecPolicy {
    let Some(raw) = var else {
        return ExecPolicy::Serial;
    };
    let s = raw.trim();
    if s == "auto" {
        return ExecPolicy::auto();
    }
    match s.parse::<usize>() {
        Ok(0) | Ok(1) => ExecPolicy::Serial,
        Ok(n) => ExecPolicy::Threads(n),
        Err(_) => panic!(
            "APC_THREADS must be a thread count or \"auto\", got {raw:?} — \
             refusing to silently fall back to serial"
        ),
    }
}

/// Output directory for CSVs and images: `target/experiments/`.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Write rows as CSV under [`out_dir`]; returns the file path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = out_dir().join(name);
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    std::fs::write(&path, body).expect("write csv");
    path
}

/// Print the CSV `header` and `rows` a figure passes to [`write_csv`] as an
/// ASCII table (see [`render_table`]).
pub fn print_table(title: &str, header: &str, rows: &[String]) {
    print!("{}", render_table(title, header, rows));
}

/// Lay out CSV lines as a titled table: cells split on `,`, printed
/// verbatim and right-aligned to their column's widest cell.
pub fn render_table(title: &str, header: &str, rows: &[String]) -> String {
    let lines: Vec<Vec<&str>> = std::iter::once(header)
        .chain(rows.iter().map(String::as_str))
        .map(|line| line.split(',').collect())
        .collect();
    let mut widths = Vec::new();
    for cells in &lines {
        widths.resize(widths.len().max(cells.len()), 0);
        for (w, cell) in widths.iter_mut().zip(cells) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = format!("\n== {title} ==\n");
    for cells in &lines {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&widths) {
            line.push_str(&format!("{cell:>w$}  "));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Average / min / max of a series.
pub fn stats(series: impl IntoIterator<Item = f64>) -> (f64, f64, f64) {
    let v: Vec<f64> = series.into_iter().collect();
    if v.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let sum: f64 = v.iter().sum();
    let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (sum / v.len() as f64, min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_from_str_accepts_counts_and_auto() {
        assert_eq!(exec_from_str(None), ExecPolicy::Serial);
        assert_eq!(exec_from_str(Some("0")), ExecPolicy::Serial);
        assert_eq!(exec_from_str(Some("1")), ExecPolicy::Serial);
        assert_eq!(exec_from_str(Some("8")), ExecPolicy::Threads(8));
        assert_eq!(exec_from_str(Some(" 4 ")), ExecPolicy::Threads(4));
        assert!(matches!(
            exec_from_str(Some("auto")),
            ExecPolicy::Serial | ExecPolicy::Threads(_)
        ));
    }

    #[test]
    fn render_table_aligns_the_csv_cells_it_was_given() {
        let rows = ["64,NONE,12.3456".to_owned(), "400,SHUFFLE,0.5".to_owned()];
        let table = render_table("Fig X", "nranks,strategy,t", &rows);
        // A blank separator, the title, the header and one line per row;
        // each column pads to its widest cell, and no cell is re-rounded.
        let expected = [
            "",
            "== Fig X ==",
            "nranks  strategy        t",
            "    64      NONE  12.3456",
            "   400   SHUFFLE      0.5",
        ];
        assert_eq!(table, expected.join("\n") + "\n");
    }

    #[test]
    #[should_panic(expected = "APC_THREADS must be a thread count")]
    fn exec_from_str_rejects_garbage_loudly() {
        let _ = exec_from_str(Some("eight"));
    }
}
