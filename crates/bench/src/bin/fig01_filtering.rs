//! Standalone harness for fig01.

use apc_bench::{experiments, Scale};

fn main() {
    let scale = Scale::from_env();
    experiments::fig01::run(&scale);
}
