//! Deterministic 3D value noise and fractional Brownian motion.
//!
//! Hash-based (no tables, no global state): the same `(position, seed)`
//! always yields the same value, which keeps every experiment in the
//! workspace reproducible bit-for-bit.
//!
//! There is one interpolation (`OctaveRow::interpolate`) and two ways in.
//! The pointwise functions [`value_noise3`] and [`fbm3`] take a position.
//! The storm generator's grid rows go through `FbmRow::fill`, which takes a
//! whole row of `x` at constant `(y, z)` and works an octave a **cell run**
//! at a time: the stretch of samples that stays inside one lattice cell is
//! found by comparing against the cell's two planes (`xf <= x < xf + 1.0`
//! — no `floor` in the loop), the cell's eight corners are hashed once, and
//! one loop with no branch and no call interpolates the stretch, which the
//! compiler vectorises for baseline SSE2. A pointwise sample is a run of
//! one, so `fill` and `fbm3` agree bit for bit on any row — ascending,
//! descending, jumping, NaN, ±∞, or past 2²⁴ where `xf + 1.0 == xf`
//! (`tests::a_filled_row_*`). Per element the octaves are still summed in
//! `fbm3`'s order, and within an octave the eight terms in corner order:
//! that order is the bits.

/// SplitMix64 finalizer — a high-quality 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in [0, 1) at integer lattice point `(i, j, k)`.
#[inline]
fn lattice(i: i64, j: i64, k: i64, seed: u64) -> f32 {
    let h = mix64(
        (i as u64)
            .wrapping_mul(0x8DA6_B343)
            .wrapping_add((j as u64).wrapping_mul(0xD8163841))
            .wrapping_add((k as u64).wrapping_mul(0xCB1A_B31F))
            .wrapping_add(seed.wrapping_mul(0x2545_F491_4F6C_DD1D)),
    );
    (h >> 40) as f32 / (1u64 << 24) as f32
}

#[inline]
fn smoothstep(t: f32) -> f32 {
    t * t * (3.0 - 2.0 * t)
}

/// One octave of value noise along a grid row: `(y, z)` are fixed, so the
/// cell indices `j, k` and the weights `v, w` are row constants, and the
/// eight corner hashes are a function of the x cell alone.
#[derive(Debug, Clone, Copy)]
struct OctaveRow {
    seed: u64,
    j: i64,
    k: i64,
    v: f32,
    w: f32,
}

impl OctaveRow {
    fn new(y: f32, z: f32, seed: u64) -> Self {
        let (yf, zf) = (y.floor(), z.floor());
        Self {
            seed,
            j: yf as i64,
            k: zf as i64,
            v: smoothstep(y - yf),
            w: smoothstep(z - zf),
        }
    }

    /// The eight lattice values around the x cell that starts at `xf`:
    /// `lattice(i + di, j + dj, k + dk)` at index `dk * 4 + dj * 2 + di`.
    #[inline]
    fn corners(&self, xf: f32) -> [f32; 8] {
        let i = xf as i64;
        std::array::from_fn(|n| {
            let (di, dj, dk) = ((n & 1) as i64, (n >> 1 & 1) as i64, (n >> 2) as i64);
            // Wrapping: `±∞ as i64` saturates, and `lattice` hashes the
            // index as a `u64` anyway — a debug build must not trap where a
            // release build wraps.
            lattice(
                i.wrapping_add(di),
                self.j.wrapping_add(dj),
                self.k.wrapping_add(dk),
                self.seed,
            )
        })
    }

    /// The interpolation — the crate's only one: the noise at `x` in the
    /// cell that starts at `xf = floor(x)`, between that cell's `corners`.
    /// Branch-free, so a loop over a run of `x` vectorises; the products
    /// associate `((wu · wv) · ww) · corner` and the sum runs corner 0 to 7,
    /// which is the bits.
    #[inline]
    fn interpolate(&self, corners: &[f32; 8], xf: f32, x: f32) -> f32 {
        let u = smoothstep(x - xf);
        let wu = [1.0 - u, u];
        let wv = [1.0 - self.v, self.v];
        let ww = [1.0 - self.w, self.w];
        let mut acc = 0.0;
        for (n, corner) in corners.iter().enumerate() {
            acc += wu[n & 1] * wv[n >> 1 & 1] * ww[n >> 2] * corner;
        }
        acc * 2.0 - 1.0
    }

    /// The noise at `x` on this row: a run of one.
    fn at(&self, x: f32) -> f32 {
        let xf = x.floor();
        self.interpolate(&self.corners(xf), xf, x)
    }

    /// `out[n] += amp * self.at(xs[n] * freq)`, a cell run at a time: the
    /// stretch of `xs` that stays in the first sample's cell is found by
    /// two comparisons a sample (no `floor`; eight samples a step while
    /// they all pass), its corners are hashed once, and one loop
    /// interpolates it. Always inlined into `fill`, with the run's loop kept
    /// out of line in `add_run`: the vector loop's broadcast constants then
    /// live inside `add_run` only, not across every run's `floor` call —
    /// the two attributes are ≈ 6 % of a two-sample row, the serving
    /// strip's kind.
    #[inline(always)]
    fn add_to(&self, xs: &[f32], freq: f32, amp: f32, out: &mut [f32]) {
        let mut at = 0;
        while at < xs.len() {
            let xf = (xs[at] * freq).floor();
            let next = xf + 1.0;
            // `floor(x) == xf` exactly where `xf <= x < xf + 1.0`: when the
            // sum rounds (|xf| ≥ 2²⁴) it rounds to `xf` or its successor,
            // and no float lies between those. The first sample belongs to
            // the run whatever the comparisons say — NaN fails both, and
            // past 2²⁴ so can `xf` itself — so every run advances.
            let same_cell = |&x: &f32| (xf <= x * freq) & (x * freq < next);
            let mut len = 1;
            for eight in xs[at + 1..].chunks_exact(8) {
                if !eight.iter().fold(true, |all, x| all & same_cell(x)) {
                    break;
                }
                len += 8;
            }
            len += xs[at + len..].iter().take_while(|x| same_cell(x)).count();
            let run = at..at + len;
            self.add_run(xf, &xs[run.clone()], freq, amp, &mut out[run]);
            at += len;
        }
    }

    /// One run of [`Self::add_to`]: every `xs[n] * freq` lies in cell `xf`.
    #[inline(never)]
    fn add_run(&self, xf: f32, xs: &[f32], freq: f32, amp: f32, out: &mut [f32]) {
        let corners = self.corners(xf);
        for (acc, &x) in out.iter_mut().zip(xs) {
            *acc += amp * self.interpolate(&corners, xf, x * freq);
        }
    }
}

/// Trilinearly interpolated value noise in [-1, 1] at continuous position
/// `(x, y, z)` (lattice spacing 1).
pub fn value_noise3(x: f32, y: f32, z: f32, seed: u64) -> f32 {
    OctaveRow::new(y, z, seed).at(x)
}

/// [`fbm3`] with `N` octaves along a row of constant `(y, z)`: the same
/// sum over the same [`value_noise3`] terms, every octave a cell run at a
/// time. `FbmRow::new(y, z, seed).fill(xs, out)` leaves `fbm3(xs[n], y, z,
/// N, seed)` in `out[n]` bit for bit, whatever order `xs` is in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FbmRow<const N: usize> {
    octaves: [OctaveRow; N],
}

impl<const N: usize> FbmRow<N> {
    pub(crate) fn new(y: f32, z: f32, seed: u64) -> Self {
        let mut freq = 1.0;
        let octaves = std::array::from_fn(|oct| {
            let row = OctaveRow::new(y * freq, z * freq, seed.wrapping_add(oct as u64));
            freq *= 2.0;
            row
        });
        Self { octaves }
    }

    /// The fBm at every `xs[n]`, into `out[n]` (equal lengths): octave by
    /// octave across the row, which sums each element in `fbm3`'s order.
    pub(crate) fn fill(&self, xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), out.len(), "one output per coordinate");
        out.fill(0.0);
        let norm = each_octave(N, |oct, freq, amp| {
            self.octaves[oct].add_to(xs, freq, amp, out);
        });
        for acc in out {
            *acc /= norm;
        }
    }
}

/// The fBm schedule: calls `octave(index, frequency, amplitude)` for each
/// of `octaves` octaves, each at double the frequency and half the
/// amplitude of the one before, and returns the amplitude sum the
/// accumulated samples are normalised by.
#[inline]
fn each_octave(octaves: usize, mut octave: impl FnMut(usize, f32, f32)) -> f32 {
    let mut amp = 0.5;
    let mut freq = 1.0;
    let mut norm = 0.0;
    for oct in 0..octaves {
        octave(oct, freq, amp);
        norm += amp;
        amp *= 0.5;
        freq *= 2.0;
    }
    norm
}

/// Fractional Brownian motion: `octaves` layers of value noise, each at
/// double frequency and half amplitude — a convex combination of
/// [`value_noise3`] samples, so in [-1, 1] up to the rounding of the
/// interpolation weights (`tests::bounded`; the generator's background
/// skip rests on it).
// apc-lint: allow(dead-pub): the pointwise oracle FbmRow::fill and the storm's row path are checked against
pub fn fbm3(x: f32, y: f32, z: f32, octaves: u32, seed: u64) -> f32 {
    let mut acc = 0.0;
    let norm = each_octave(octaves as usize, |oct, freq, amp| {
        let seed = seed.wrapping_add(oct as u64);
        acc += amp * value_noise3(x * freq, y * freq, z * freq, seed);
    });
    acc / norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = value_noise3(1.7, -2.3, 0.5, 42);
        let b = value_noise3(1.7, -2.3, 0.5, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_field() {
        let a = value_noise3(1.7, 2.3, 0.5, 1);
        let b = value_noise3(1.7, 2.3, 0.5, 2);
        assert_ne!(a, b);
    }

    /// A SplitMix64 stream of coordinates in `[-scale, scale)`.
    fn corpus(seed: u64, scale: f32) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            ((mix64(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * scale
        }
    }

    #[test]
    fn bounded() {
        // A convex combination of lattice values in [0, 1): only the
        // rounding of the weights can carry it past ±1, by an ulp or so.
        // The generator skips the clear-air background where a sample
        // already exceeds the value this bound gives it.
        let range = -1.0 - 4.0 * f32::EPSILON..=1.0 + 4.0 * f32::EPSILON;
        let mut next = corpus(0xB0_07ED, 64.0);
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for _ in 0..20_000 {
            let (x, y, z) = (next(), next(), next());
            let v = value_noise3(x, y, z, 7);
            assert!(range.contains(&v), "noise out of range: {v}");
            for octaves in [3, 5] {
                let f = fbm3(x, y, z, octaves, 7);
                assert!(range.contains(&f), "fbm out of range: {f}");
                (lo, hi) = (lo.min(f), hi.max(f));
            }
        }
        assert!(lo < -0.5 && hi > 0.5, "corpus too tame: [{lo}, {hi}]");
    }

    #[test]
    fn a_row_is_its_pointwise_samples_wherever_it_goes() {
        // A run must end on any cell change: one row that ascends through
        // cells, descends, stands still and jumps, starting mid-cell or on
        // a cell boundary.
        let mut next = corpus(0x40_77, 9.0);
        for _ in 0..50 {
            let (y, z, seed) = (next(), next(), next().to_bits() as u64);
            let start = if seed % 2 == 0 {
                next()
            } else {
                next().floor()
            };
            let ascending = (0..40).map(|i| start + i as f32 * 0.11);
            let descending = (0..40).map(|i| start - i as f32 * 0.07);
            let still = [start; 3].into_iter();
            let jumps: Vec<f32> = (0..20).map(|_| next()).collect();
            let xs: Vec<f32> = ascending
                .chain(descending)
                .chain(still)
                .chain(jumps)
                .collect();
            assert_row_is_pointwise("wandering", y, z, seed, &xs);
        }
    }

    /// A whole row through `FbmRow<N>`, as bits.
    fn filled<const N: usize>(y: f32, z: f32, seed: u64, xs: &[f32]) -> Vec<u32> {
        let mut out = vec![f32::NAN; xs.len()];
        FbmRow::<N>::new(y, z, seed).fill(xs, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// `xs` as one row of three and of five octaves against `fbm3` sample
    /// by sample.
    fn assert_row_is_pointwise(what: &str, y: f32, z: f32, seed: u64, xs: &[f32]) {
        let pointwise = |octaves| -> Vec<u32> {
            xs.iter()
                .map(|&x| fbm3(x, y, z, octaves, seed).to_bits())
                .collect()
        };
        assert_eq!(filled::<3>(y, z, seed, xs), pointwise(3), "{what}: {xs:?}");
        assert_eq!(filled::<5>(y, z, seed, xs), pointwise(5), "{what}: {xs:?}");
    }

    #[test]
    fn a_filled_row_is_its_pointwise_samples() {
        // The generator's row lengths (a serving strip's 1 and 2, a block's
        // 11, a rank's 55, the domain's 440) at the generator's two
        // spacings — a background cell is 88 grid points wide and a texture
        // cell 40, their finest octaves' 22 and 2.5 — ascending, descending
        // and striding over whole cells, from mid-cell and from exactly on
        // a lattice plane, and ending exactly on one.
        let mut next = corpus(0xF1_11, 9.0);
        for round in 0..12 {
            let (y, z, seed) = (next(), next(), next().to_bits() as u64);
            let start = if round % 2 == 0 {
                next()
            } else {
                next().floor()
            };
            for n in [1usize, 2, 11, 55, 440] {
                for step in [5.0 / 440.0, 11.0 / 440.0, -5.0 / 440.0, -0.4] {
                    let xs: Vec<f32> = (0..n).map(|i| start + i as f32 * step).collect();
                    assert_row_is_pointwise("evenly spaced", y, z, seed, &xs);
                    let end = xs[n - 1].floor();
                    let onto: Vec<f32> = (0..n).rev().map(|i| end - i as f32 * step).collect();
                    assert_row_is_pointwise("ending on a plane", y, z, seed, &onto);
                }
            }
            let still = [start; 7];
            assert_row_is_pointwise("standing still", y, z, seed, &still);
            let jumps: Vec<f32> = (0..55).map(|_| next()).collect();
            assert_row_is_pointwise("jumping", y, z, seed, &jumps);
            // Lattice planes themselves, and the values either side of one.
            let planes = [
                -1.0,
                -0.0,
                0.0,
                1.0,
                1.0 - f32::EPSILON,
                1.0,
                2.0,
                0.999_999_94,
            ];
            assert_row_is_pointwise("on planes", y, z, seed, &planes);
        }
    }

    #[test]
    fn a_filled_row_survives_coordinates_no_grid_has() {
        // NaN compares false with everything, ±∞ saturate the cell index,
        // and from 2²⁴ on `xf + 1.0 == xf` (or the next float up, two
        // away): a run found by comparing against `xf` and `xf + 1.0` must
        // still advance, and still agree with the pointwise form — NaN in,
        // the same NaN out; the lattice index wraps in both.
        let big = (1u32 << 24) as f32;
        let odd = [
            f32::NAN,
            0.3,
            f32::NAN,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::INFINITY,
            big,
            big,
            big + 2.0,
            big + 4.0,
            -big,
            -big - 2.0,
            -big + 1.0,
            big - 1.0,
            big - 0.5,
            3.0e9,
            -3.0e9,
            1.0e19,
            -1.0e19,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            0.7,
        ];
        for (y, z, seed) in [(0.4, 1.7, 3), (-2.5, 0.0, 0xBA5E)] {
            assert_row_is_pointwise("odd coordinates", y, z, seed, &odd);
            for x in odd {
                assert_row_is_pointwise("alone", y, z, seed, &[x]);
                assert_row_is_pointwise("after a sample", y, z, seed, &[0.5, x, 0.5]);
            }
        }
    }

    #[test]
    fn continuous_at_lattice_points() {
        // Value just left and just right of a lattice plane must agree.
        let eps = 1e-4;
        let a = value_noise3(3.0 - eps, 1.5, 2.5, 11);
        let b = value_noise3(3.0 + eps, 1.5, 2.5, 11);
        assert!((a - b).abs() < 0.01, "{a} vs {b}");
    }

    #[test]
    fn has_variation() {
        let vals: Vec<f32> = (0..100)
            .map(|i| value_noise3(i as f32 * 0.37, 0.0, 0.0, 3))
            .collect();
        let min = vals.iter().cloned().fold(f32::MAX, f32::min);
        let max = vals.iter().cloned().fold(f32::MIN, f32::max);
        assert!(max - min > 0.5, "noise too flat: [{min}, {max}]");
    }

    #[test]
    fn fbm_adds_detail() {
        // fBm with more octaves differs from the base octave (has detail).
        let base = value_noise3(0.4, 0.9, 1.1, 5);
        let detailed = fbm3(0.4, 0.9, 1.1, 5, 5);
        assert_ne!(base, detailed);
    }
}
