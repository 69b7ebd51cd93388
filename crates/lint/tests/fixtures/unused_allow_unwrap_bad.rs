//! Fixture: an `allow(unwrap-in-lib)` whose line has nothing to suppress.
pub fn first(v: &[u32]) -> u32 {
    // apc-lint: allow(unwrap-in-lib): the slice is never empty
    v.first().copied().unwrap_or(0)
}
