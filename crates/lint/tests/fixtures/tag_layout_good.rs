//! Fixture: the real tag layout shape — disjoint bands, no flags.
pub const MAX_CHANNEL: u32 = 1 << 16;
pub const STAGE_BASE: u32 = u32::MAX - 2;
pub const SERVE_BASE: u32 = STAGE_BASE - 2 * (1 << 16);
