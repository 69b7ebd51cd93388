//! Standalone harness for fig03.

use apc_bench::{experiments, Scale};

fn main() {
    let scale = Scale::from_env();
    experiments::fig03::run(&scale);
}
