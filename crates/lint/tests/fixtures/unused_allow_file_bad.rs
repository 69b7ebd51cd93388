//! Fixture: an `allow-file(unwrap-in-lib)` in a file the rule finds
//! nothing in.
// apc-lint: allow-file(unwrap-in-lib): a harness may panic on a bad run
pub fn first(v: &[u32]) -> Option<u32> {
    v.first().copied()
}
