//! Fixture: every `pub` item has a caller — in this file, in another
//! crate (`reading`) or in the benchmark (`bench_entry`).
pub struct Meter {
    ticks: u32,
}

impl Meter {
    pub const START: u32 = 1;

    pub fn new() -> Self {
        Self { ticks: Self::START }
    }

    pub fn reading(&self) -> u32 {
        self.ticks
    }
}

/// Names `Meter`, but an `impl` for it is no caller of it.
impl Default for Meter {
    fn default() -> Meter {
        Meter::new()
    }
}

pub fn bench_entry() -> Meter {
    Meter::new()
}
