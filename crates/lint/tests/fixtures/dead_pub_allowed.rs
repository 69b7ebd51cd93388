//! Fixture: a callerless `pub` item kept with a reasoned allow.

/// The pointwise oracle the fast path is tested against.
// apc-lint: allow(dead-pub): tests/oracle.rs compares the fast path against it
pub fn reference_sum(v: &[f32]) -> f32 {
    v.iter().sum()
}
