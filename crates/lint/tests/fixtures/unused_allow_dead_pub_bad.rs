//! Fixture: an `allow(dead-pub)` on an item that has a caller.
// apc-lint: allow(dead-pub): tests/oracle.rs compares the fast path against it
pub fn reference_sum(v: &[f32]) -> f32 {
    v.iter().sum()
}

pub fn fast_sum(v: &[f32]) -> f32 {
    reference_sum(v)
}
