//! Standalone harness for fig10.

use apc_bench::experiments::{self, Ctx};
use apc_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let ctx = Ctx::new(&scale);
    experiments::fig10::run(&ctx, &scale);
}
