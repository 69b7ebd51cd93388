//! Standalone harness for table1.

use apc_bench::{experiments, Scale};

fn main() {
    let scale = Scale::from_env();
    experiments::table1::run(&scale);
}
