//! An empty package. The dedicated-core staging engine it used to hold now
//! lives in `apc-core` (`apc_core::staged`), its one caller.
//!
//! The package stays only because the frozen benchmark's
//! `benchmark/Cargo.toml` and `benchmark/Cargo.lock` name it, and its
//! `apc-comm` dependency edge with it; `benchmark/src` never uses it.
//! ROADMAP item 2(h) deletes the package and both lockfile-only edges.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
