//! Standalone harness for fig04.

use apc_bench::{experiments, Scale};

fn main() {
    let scale = Scale::from_env();
    experiments::fig04::run(&scale);
}
