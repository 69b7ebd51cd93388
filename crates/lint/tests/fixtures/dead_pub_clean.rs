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

pub fn bench_entry() -> Meter {
    Meter::new()
}
