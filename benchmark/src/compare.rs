//! Comparing result files: `run.sh --check` (two sets of the same code
//! must agree within the benchmark's own bounds, and exactly on every
//! count) and `run.sh --spread` (run-to-run spread over seeds, as the
//! benchmark contract measures it).

use std::collections::BTreeMap;
use std::path::Path;

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::report::Report;
use crate::stats;

/// Every result file under `dir`, in file-name order.
fn load(dir: &str) -> Result<Vec<Report>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(Path::new(dir))
        .map_err(|e| format!("read {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no result files under {dir}"));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Report::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// How much worse `after` is than `before`, as a share of `before`
/// (negative when it is better).
pub fn worsening(better: Better, before: f64, after: f64) -> f64 {
    match better {
        Better::Lower => (after - before) / before,
        Better::Higher => (before - after) / before,
    }
}

pub fn check(dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let key = |r: &Report| (r.workload.clone(), r.traced, r.seed);
    let a: BTreeMap<_, _> = load(dir_a)?.into_iter().map(|r| (key(&r), r)).collect();
    let b: BTreeMap<_, _> = load(dir_b)?.into_iter().map(|r| (key(&r), r)).collect();
    let mut failures = Vec::new();
    let mut fail = |line: String| {
        println!("FAIL {line}");
        failures.push(line);
    };
    for (k, ra) in &a {
        let label = format!("{} trace={} seed={}", k.0, u8::from(k.1), k.2);
        let Some(rb) = b.get(k) else {
            fail(format!("{label}: missing from {dir_b}"));
            continue;
        };
        for r in [ra, rb] {
            if !r.correct() {
                fail(format!(
                    "{label}: {} of {} ops failed",
                    r.failed, r.attempted
                ));
            }
        }
        if ra.digest != rb.digest {
            fail(format!(
                "{label}: report digest {:016x} vs {:016x}",
                ra.digest, rb.digest
            ));
        }
        // End-to-end metrics are only gated where tracing was off.
        for m in END_TO_END.iter().filter(|_| !k.1) {
            let (Some(va), Some(vb)) = (ra.get(m.name), rb.get(m.name)) else {
                fail(format!("{label}: {} not reported", m.name));
                continue;
            };
            let worst = worsening(m.better, va, vb).max(worsening(m.better, vb, va));
            let line = format!(
                "{label}: {} {va:?} vs {vb:?} {} (differ by {:.1} %, bound {:.0} %)",
                m.name,
                m.unit,
                worst * 100.0,
                m.bound * 100.0
            );
            if worst <= m.bound {
                println!("ok   {line}");
            } else {
                fail(line);
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact && k.1) {
            let (va, vb) = (ra.get(m.name).unwrap_or(0.0), rb.get(m.name).unwrap_or(0.0));
            if va.to_bits() != vb.to_bits() {
                fail(format!("{label}: count {} {va:?} vs {vb:?}", m.name));
            }
        }
    }
    for k in b.keys().filter(|k| !a.contains_key(*k)) {
        fail(format!(
            "{} trace={} seed={}: missing from {dir_a}",
            k.0,
            u8::from(k.1),
            k.2
        ));
    }
    let ok = failures.is_empty();
    println!("{}", if ok { "check passed" } else { "check FAILED" });
    Ok(ok)
}

pub fn spread(dir: &str) -> Result<bool, String> {
    let mut by_workload: BTreeMap<String, Vec<Report>> = BTreeMap::new();
    for r in load(dir)?.into_iter().filter(|r| !r.traced) {
        by_workload.entry(r.workload.clone()).or_default().push(r);
    }
    let mut ok = true;
    for (workload, runs) in &by_workload {
        if let Some(bad) = runs.iter().find(|r| !r.correct()) {
            println!(
                "FAIL {workload} seed {}: {} ops failed",
                bad.seed, bad.failed
            );
            ok = false;
        }
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.get(m.name)).collect();
            let share = stats::quartile_spread(&values);
            // The set-up time's spread is reported, not gated.
            let verdict = if share <= m.bound / 3.0 {
                "steady"
            } else if share <= m.bound || m.name == "setup_s" {
                "within"
            } else {
                ok = false;
                "UNSTEADY"
            };
            println!(
                "{verdict:<8} {workload} {} median {:?} {} spread {:.2} % of bound {:.0} % (n={})",
                m.name,
                stats::median(&values),
                m.unit,
                share * 100.0,
                m.bound * 100.0,
                values.len()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_s_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    fn write_set(dir: &Path, op_ms: f64, stolen: f64) {
        std::fs::create_dir_all(dir).unwrap();
        let mut plain = Report::new("replay_fanout", 42, 20.0, false);
        plain.attempted = 40;
        plain.set("op_wall_ms_p50", op_ms, 40);
        plain.set("items_per_s", 8192.0 / op_ms * 1e3, 40);
        plain.set("peak_rss_mb", 64.0, 1);
        plain.set("setup_s", 0.5, 3);
        std::fs::write(dir.join("a.json"), plain.to_json()).unwrap();
        let mut traced = Report::new("replay_fanout", 42, 20.0, true);
        traced.attempted = 10;
        traced.set("replay.stolen", stolen, 1);
        traced.set("replay.plan_ms", op_ms / 50.0, 9);
        std::fs::write(dir.join("b.json"), traced.to_json()).unwrap();
    }

    #[test]
    fn check_gates_walls_by_bound_and_counts_exactly() {
        let root = std::env::temp_dir().join(format!("apc-benchmark-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = |name: &str| root.join(name).display().to_string();
        write_set(&root.join("base"), 400.0, 871.0);
        write_set(&root.join("near"), 430.0, 871.0);
        write_set(&root.join("slow"), 520.0, 871.0);
        write_set(&root.join("drift"), 400.0, 872.0);
        let verdicts = [
            check(&dir("base"), &dir("near")),
            check(&dir("base"), &dir("slow")),
            check(&dir("base"), &dir("drift")),
            check(&dir("base"), &dir("absent")),
        ];
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(verdicts[0], Ok(true), "7.5 % apart is inside every bound");
        assert_eq!(verdicts[1], Ok(false), "30 % slower is outside");
        assert_eq!(verdicts[2], Ok(false), "a count may not move at all");
        assert!(
            verdicts[3].is_err(),
            "a missing set is an error, not a pass"
        );
    }
}
