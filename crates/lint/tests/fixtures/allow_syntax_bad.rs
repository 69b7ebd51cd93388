//! Fixture: malformed suppressions are themselves violations.
// apc-lint: allow(dead-pub)
pub fn missing_reason(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}

// apc-lint: allow(no-such-rule): not a rule the tool knows
pub fn unknown_rule() {}
