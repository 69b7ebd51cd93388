//! Fixture: SERVE_BASE raised into the STAGE band — must collide.
pub const MAX_CHANNEL: u32 = 1 << 16;
pub const STAGE_BASE: u32 = u32::MAX - 2;
pub const SERVE_BASE: u32 = STAGE_BASE - 7;
