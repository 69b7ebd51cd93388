//! Metric registry: a metric is named by its string, and [`by_name`] is
//! the one place a name becomes a scorer.
//!
//! The paper evaluated ~30 filters and reports a representative subset of
//! six (§IV-B): RANGE, VAR, ITL, LEA, FPZIP, TRILIN. [`standard_six`]
//! returns exactly that set, in the order the paper's tables and figures
//! use; [`by_name`] resolves any supported metric, including the extras
//! (ZFP, LZ, LOCAL_ENT, VAR+TRILIN).

use crate::{
    BlockScorer, CompressionScore, Entropy, Lea, LocalEntropy, Range, Trilin, Variance, WeightedSum,
};

/// Build a scorer from its name; `None` for unknown names.
pub fn by_name(name: &str) -> Option<Box<dyn BlockScorer>> {
    Some(match name {
        "RANGE" => Box::new(Range),
        "VAR" => Box::new(Variance),
        "ITL" => Box::new(Entropy::reflectivity()),
        "LEA" => Box::new(Lea),
        "FPZIP" => Box::new(CompressionScore::fpzip()),
        "TRILIN" => Box::new(Trilin),
        "ZFP" => Box::new(CompressionScore::zfp()),
        "LZ" => Box::new(CompressionScore::lz()),
        "LOCAL_ENT" => Box::new(LocalEntropy::default()),
        "VAR+TRILIN" => Box::new(WeightedSum::var_trilin()),
        _ => return None,
    })
}

/// The paper's representative subset, in its reporting order:
/// RANGE, VAR, ITL, LEA, FPZIP, TRILIN.
pub fn standard_six() -> Vec<Box<dyn BlockScorer>> {
    ["RANGE", "VAR", "ITL", "LEA", "FPZIP", "TRILIN"]
        .iter()
        // apc-lint: allow(unwrap-in-lib): the six names are literals registered in this same module
        .map(|n| by_name(n).expect("standard metric registered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [&str; 10] = [
        "RANGE",
        "VAR",
        "ITL",
        "LEA",
        "FPZIP",
        "TRILIN",
        "ZFP",
        "LZ",
        "LOCAL_ENT",
        "VAR+TRILIN",
    ];

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("MAGIC").is_none());
    }

    #[test]
    fn standard_six_order() {
        let names: Vec<&str> = standard_six().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["RANGE", "VAR", "ITL", "LEA", "FPZIP", "TRILIN"]);
    }

    #[test]
    fn every_registered_name_roundtrips() {
        for name in ALL {
            let s = by_name(name).unwrap();
            assert_eq!(s.name(), name);
            assert!(s.cost_per_point() > 0.0);
        }
    }

    #[test]
    fn every_metric_is_finite_on_constant_blocks() {
        // Degenerate input (an all-constant block — clear air, or a
        // reduced block expanded back) must never score NaN/inf: a single
        // NaN used to panic the global sort mid-collective and take down
        // the whole run. Exercise every registered metric on constant
        // blocks of several values, including ±0.0 and a negative.
        use apc_grid::Dims3;
        let dims = Dims3::new(11, 11, 19);
        for value in [0.0f32, -0.0, 45.0, -30.0] {
            let data = vec![value; dims.len()];
            for name in ALL {
                let scorer = by_name(name).unwrap();
                let score = scorer.score(&data, dims);
                assert!(
                    score.is_finite(),
                    "{name} on constant {value} block scored {score}"
                );
            }
        }
    }

    #[test]
    fn cheap_metrics_are_cheaper_than_heavy_ones() {
        // The paper's conclusion from Table I: prefer LEA/VAR over TRILIN.
        let var = by_name("VAR").unwrap().cost_per_point();
        let lea = by_name("LEA").unwrap().cost_per_point();
        let trilin = by_name("TRILIN").unwrap().cost_per_point();
        let itl = by_name("ITL").unwrap().cost_per_point();
        assert!(var < trilin && lea < trilin && var < itl && lea < itl);
    }
}
