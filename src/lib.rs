//! Umbrella crate for the Adaptive Performance-Constrained In Situ
//! Visualization reproduction (Dorier et al., CLUSTER 2016).
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! ```
//! use insitu::grid::Dims3;
//! let d = Dims3::new(4, 4, 4);
//! assert_eq!(d.len(), 64);
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub use apc_cm1 as cm1;
pub use apc_comm as comm;
pub use apc_compress as compress;
pub use apc_core as pipeline;
pub use apc_grid as grid;
pub use apc_metrics as metrics;
pub use apc_par as par;
pub use apc_render as render;
pub use apc_replay as replay;
pub use apc_serve as serve;
pub use apc_store as store;
