//! How fast the host is running right now, measured beside the ops.
//!
//! The benchmark runs on a few cores of a shared host, and for minutes
//! at a time those cores are slower: every quantile of a run's op times
//! reads 10 to 50 % higher, in process CPU seconds as much as in wall
//! seconds, with next to no steal time reported — what a neighbour that
//! competes for the shared cache and the memory bus does. No statistic
//! of the ops alone removes that, because it outlasts the run.
//!
//! So between cycles the timed loop also times a fixed kernel of the
//! benchmark's own — nothing of the program under test is in it — on
//! every core at once, and the end-to-end times are reported at the
//! speed of a reference host: what the clock read, times
//! `(REFERENCE_KERNEL_S / the run's median kernel time) ^ share`.
//!
//! The `share` is the workload's: the part of its wall that slows with
//! the kernel. It is the constant that brought the 50 runs of five
//! ten-seed campaigns, spread over quiet and busy hours (kernel medians
//! 5.1 to 9.8 ms), closest together: 0.8 for the two serving workloads,
//! 0.6 for the two pipeline ones. The minima are broad (a tenth either
//! way changes little). Unscaled, the campaign medians of
//! `serve_adaptive`, `replay_fanout`, `store_replay` and `sync_adaptive`
//! lay 31, 40, 35 and 17 % apart and the quartiles of the pooled runs
//! 24, 26, 21 and 12 %; scaled, 12, 4, 12 and 2 % and 8, 5, 7 and 6 %.
//! Slopes fitted inside one hour (20-second windows of back-to-back
//! one-minute runs on one seed, correlation 0.65 to 0.95) came out lower
//! for three of the four — 0.6, 0.35, 0.33, 0.23 — and inside some
//! hours the kernel does not tell one workload's runs apart at all:
//! there the scaling adds a few points of spread instead of removing
//! them. What the clock read stays in every result.

use std::time::Instant;

/// About the kernel's wall seconds on the 2-core box the benchmark was
/// written on, when quiet. Only a scale: it makes the reported
/// milliseconds read as that machine's, and cancels in every comparison.
pub const REFERENCE_KERNEL_S: f64 = 6.0e-3;

/// Share of a timed phase spent on the kernel.
const SAMPLING_SHARE: f64 = 0.05;

/// 4 MiB per core: past the private caches, inside the shared one.
const WORDS: usize = 1 << 19;
const ROUNDS: usize = 1_000_000;

/// A dependent chain of integer mixing, one random read-modify-write
/// into `buf` and one floating-point update per round.
fn kernel(buf: &mut [u64]) -> u64 {
    let mask = buf.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        let v = buf[i];
        buf[i] = v.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(x);
        acc = acc * 0.999_999 + (v & 0xFFFF) as f64;
    }
    x ^ acc.to_bits()
}

/// Times the kernel between the cycles of a timed phase, or between
/// the repeats of set-up.
pub struct HostClock {
    cores: usize,
    samples_s: Vec<f64>,
    spent_s: f64,
}

impl HostClock {
    pub fn new(cores: usize) -> Self {
        Self {
            cores,
            samples_s: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// One sample: the kernel on every core at once — the calling
    /// thread takes one, so the others land on the idle cores — timed
    /// until the last finishes.
    fn sample(&mut self, bufs: &mut [Vec<u64>]) {
        let t0 = Instant::now();
        let (mine, others) = bufs.split_first_mut().expect("at least one core");
        std::thread::scope(|scope| {
            for buf in others {
                scope.spawn(move || std::hint::black_box(kernel(buf)));
            }
            std::hint::black_box(kernel(mine));
        });
        let s = t0.elapsed().as_secs_f64();
        self.samples_s.push(s);
        self.spent_s += s;
    }

    /// Sample until [`SAMPLING_SHARE`] of the phase so far (sampling
    /// included) has gone into the kernel; at least once.
    pub fn keep_up(&mut self, phase_start: Instant) {
        // One buffer per core, touched here and freed on return, so a
        // cycle's peak resident set does not carry them.
        let mut bufs: Vec<Vec<u64>> = (0..self.cores).map(|_| vec![1u64; WORDS]).collect();
        loop {
            self.sample(&mut bufs);
            if self.spent_s >= SAMPLING_SHARE * phase_start.elapsed().as_secs_f64() {
                return;
            }
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples_s
    }
}

/// What to multiply a measured time by (divide a rate by) to read it
/// at reference speed, given the median kernel time sampled beside it,
/// for a workload whose wall slows with the kernel by `share` (0 = not
/// at all, 1 = in proportion).
pub fn time_scale(kernel_s: f64, share: f64) -> f64 {
    (REFERENCE_KERNEL_S / kernel_s).powf(share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_times_down_to_the_reference() {
        assert_eq!(time_scale(REFERENCE_KERNEL_S, 0.6), 1.0);
        let slow = 4.0 * REFERENCE_KERNEL_S;
        assert!((time_scale(slow, 1.0) - 0.25).abs() < 1e-12);
        assert!((time_scale(slow, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(time_scale(slow, 0.0), 1.0);
    }

    #[test]
    fn the_clock_samples_at_least_once_and_keeps_its_share() {
        let mut clock = HostClock::new(2);
        clock.keep_up(Instant::now());
        assert_eq!(clock.samples_s.len(), 1);
        // A phase that began a second ago is owed 50 ms of kernel.
        clock.keep_up(Instant::now() - std::time::Duration::from_secs(1));
        assert!(clock.spent_s >= SAMPLING_SHARE);
        assert!(clock.samples().iter().all(|s| *s > 0.0));
    }
}
