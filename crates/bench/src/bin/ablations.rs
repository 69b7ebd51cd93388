//! Standalone harness for all ablations.

use apc_bench::experiments::{ablations, Ctx};
use apc_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    ablations::entropy_bins(&scale);
    let ctx = Ctx::new(&scale);
    ablations::sort_strategy(&ctx, &scale);
    ablations::downsample_size(&ctx, &scale);
    ablations::slow_network(&ctx, &scale);
    ablations::controller_variants(&ctx, &scale);
}
