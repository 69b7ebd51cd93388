//! Fixture: `pub` items named only by a re-export, a `#[cfg(test)]`
//! module, a comment or a string — every one is dead.
pub use self::inner::{
    reexported_only,
};

pub mod inner {
    pub fn reexported_only() {}
}

/// `tested_only` is named in this comment, and in a string below.
pub fn tested_only() -> &'static str {
    "tested_only"
}

pub struct Orphan;

pub const LIMIT: u32 = 7;

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        assert_eq!(super::tested_only(), "tested_only");
        let _ = super::Orphan;
        assert_eq!(super::LIMIT, 7);
    }
}
