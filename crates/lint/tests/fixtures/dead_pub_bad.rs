//! Fixture: `pub` items named only by a re-export, a `#[cfg(test)]`
//! module, a comment, a string, their own body or their own `impl` —
//! every one is dead.
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

/// Named only by its own declaration and its own `impl`.
pub enum Shade {
    Light,
    Dark,
}

impl Shade {
    pub fn label(&self) -> &'static str {
        match self {
            Shade::Light => "light",
            Shade::Dark => "dark",
        }
    }

    /// Calls `label`, which keeps `label` live; only itself calls it.
    pub fn countdown(&self, n: u32) -> &'static str {
        if n == 0 { self.label() } else { self.countdown(n - 1) }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        assert_eq!(super::tested_only(), "tested_only");
        let _ = super::Orphan;
        assert_eq!(super::LIMIT, 7);
        assert_eq!(super::Shade::Dark.countdown(2), "dark");
    }
}
