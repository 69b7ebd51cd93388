//! Standalone harness for fig11.

use apc_bench::experiments::{self, Ctx};
use apc_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let ctx = Ctx::new(&scale);
    experiments::fig11::run(&ctx, &scale);
}
