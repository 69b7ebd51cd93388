//! The result of one run: what is printed, the line the driver parses,
//! and the flat JSON file `run.sh` merges and `--check` compares.

use apc_store::json::{parse_object, Value};

use crate::catalog::{END_TO_END, PER_LAYER};

#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    /// Samples behind the value (1 for a count or a single reading).
    pub n: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a digest of the workload's reference reports: the virtual
    /// quantities of the run, so drift across commits is visible.
    pub digest: u64,
    pub metrics: Vec<Measured>,
    /// Host and configuration facts (`nproc`, rank threads, …).
    pub info: Vec<(String, String)>,
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
}

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            workload: workload.to_owned(),
            seed,
            seconds,
            traced,
            attempted: 0,
            failed: 0,
            digest: 0,
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Record a catalogued metric. Panics on an unknown name: a metric
    /// nobody declared cannot be compared by anybody.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Measured {
            name: name.to_owned(),
            value,
            n: n as u64,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable result: `metric <name> <unit> <value> <n>` per
    /// metric, `info <key> <value>` per fact.
    pub fn lines(&self) -> String {
        let mut out = format!(
            "result workload {} seed {} seconds {} trace {} attempted {} failed {} digest {:016x}\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.attempted,
            self.failed,
            self.digest
        );
        for (k, v) in &self.info {
            out.push_str(&format!("info {k} {v}\n"));
        }
        for m in &self.metrics {
            let unit = unit_of(&m.name).unwrap_or("?");
            out.push_str(&format!("metric {} {unit} {:?} {}\n", m.name, m.value, m.n));
        }
        out
    }

    /// The line the driver reads: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one. A layer
    /// metric the workload has nothing to say about reads 0.
    pub fn driver_line(&self) -> String {
        let names: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let fields: Vec<String> = names
            .iter()
            .map(|name| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if self.traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    unit_of(name).unwrap_or("?")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }

    /// One flat JSON object, the subset `apc_store::json` reads back.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"workload\": \"{}\"", self.workload),
            format!("\"seed\": {}", self.seed),
            format!("\"seconds\": {:?}", self.seconds),
            format!("\"trace\": {}", u8::from(self.traced)),
            format!("\"attempted\": {}", self.attempted),
            format!("\"failed\": {}", self.failed),
            format!("\"digest\": \"{:016x}\"", self.digest),
        ];
        for (k, v) in &self.info {
            let clean: String = v.chars().filter(|c| !matches!(c, '"' | '\\')).collect();
            fields.push(format!("\"info.{k}\": \"{clean}\""));
        }
        for m in &self.metrics {
            fields.push(format!("\"m.{}\": {:?}", m.name, m.value));
            fields.push(format!("\"n.{}\": {}", m.name, m.n));
        }
        format!("{{\n  {}\n}}\n", fields.join(",\n  "))
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let fields = parse_object(text)?;
        let mut report = Report::new("", 0, 0.0, false);
        let mut counts: Vec<(String, u64)> = Vec::new();
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("workload", Value::Str(s)) => report.workload = s,
                ("seed", Value::Int(v)) => report.seed = v as u64,
                ("seconds", Value::Float(v)) => report.seconds = v,
                ("trace", Value::Int(v)) => report.traced = v != 0,
                ("attempted", Value::Int(v)) => report.attempted = v as u64,
                ("failed", Value::Int(v)) => report.failed = v as u64,
                ("digest", Value::Str(s)) => {
                    report.digest = u64::from_str_radix(&s, 16).map_err(|e| e.to_string())?
                }
                (k, Value::Str(s)) if k.starts_with("info.") => {
                    report.info.push((k["info.".len()..].to_owned(), s))
                }
                (k, Value::Float(v)) if k.starts_with("m.") => report.metrics.push(Measured {
                    name: k["m.".len()..].to_owned(),
                    value: v,
                    n: 1,
                }),
                (k, Value::Int(v)) if k.starts_with("n.") => {
                    counts.push((k["n.".len()..].to_owned(), v as u64))
                }
                (k, v) => return Err(format!("unexpected field {k}: {v:?}")),
            }
        }
        for (name, n) in counts {
            if let Some(m) = report.metrics.iter_mut().find(|m| m.name == name) {
                m.n = n;
            }
        }
        if report.workload.is_empty() {
            return Err("result has no workload".to_owned());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(traced: bool) -> Report {
        let mut r = Report::new("store_replay", u64::MAX, 20.0, traced);
        r.attempted = 108;
        r.digest = 0xdead_beef_0123_4567;
        r.note("nproc", 2);
        r.note("rustc", "rustc 1.0 (\"quoted\")");
        r.set("op_wall_ms_p50", 310.25, 108);
        r.set("items_per_s", 1.0e-7, 1);
        r.set("peak_rss_mb", 512.0, 1);
        r.set("setup_s", 3.0000000000000004, 3);
        r.set("core.virtual_iter_s", 0.1 + 0.2, 1);
        r
    }

    #[test]
    fn flat_json_round_trips_every_bit() {
        let r = sample(true);
        let mut back = Report::from_json(&r.to_json()).unwrap();
        // The one lossy field: quotes are stripped from info strings.
        assert_eq!(back.info[1].1, "rustc 1.0 (quoted)");
        back.info[1].1 = r.info[1].1.clone();
        assert_eq!(back, r);
        assert_eq!(
            back.get("core.virtual_iter_s").unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn malformed_results_are_errors() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("{\"workload\": \"w\", \"seed\": \"x\"}").is_err());
    }

    #[test]
    fn driver_line_carries_exactly_the_mode_s_metrics() {
        let line = sample(false).driver_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 108, \"failed\": 0, "));
        for m in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{line}"
            );
        }
        assert!(!line.contains("core.virtual_iter_s"));
        assert!(line.contains("\"setup_s\": {\"value\": 3.0000000000000004, \"unit\": \"s\"}"));

        let traced = sample(true).driver_line();
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"core.virtual_iter_s\": {\"value\": 0.30000000000000004"));
        assert!(traced.contains("\"replay.stolen\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(!traced.contains("op_wall_ms_p50"));
    }

    #[test]
    fn failed_ops_make_the_run_incorrect() {
        let mut r = sample(false);
        r.failed = 1;
        assert!(r.driver_line().starts_with("{\"correct\": false"));
        assert!(
            !Report::new("w", 1, 1.0, false).correct(),
            "no op attempted"
        );
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
