//! A procedural supercell: the storm whose locality drives the paper's
//! load-imbalance story.
//!
//! The model composes, in normalized coordinates `p ∈ [0,1]³`, a condensate
//! envelope with the classic supercell anatomy that Fig. 1 of the paper
//! shows: a rotating core, a *weak echo region* (the vault under the
//! updraft the 45 dBZ isosurface reveals), a low-level *hook echo*, an
//! *anvil* spreading aloft, and a flanking line of smaller cells. A
//! multi-octave turbulence texture gives the interior the high local
//! variability that information-theoretic metrics key on (ITL/FPZIP score
//! the storm's inside high, §V-B).
//!
//! Everything is a pure function of `(position, iteration, seed)`.
//!
//! # One pass, five rates
//!
//! [`StormModel::reflectivity_on`] writes each dBZ sample once, and every
//! sub-expression of the model is evaluated at the rate its operands change
//! (the axes are rectilinear, so a grid point is `(x[i], y[j], z[k])`):
//!
//! * **per call** (`CallTerms`, functions of `τ`): storm centre, intensity,
//!   each flanking cell's centre and `intensity · amp · pulse`, the hook's
//!   angle, the weak echo region's centre, the texture's drift, and the
//!   box's three normalized axes — O(nx + ny + nz), which is what keeps a
//!   2×2×8 block cheap;
//! * **per z-plane** (`PlaneTerms`, `SpeciesSplit`, `air_density`): core
//!   radius, the vertical profile, every coefficient down to its Gaussian,
//!   the hook and vault gates, the rain / snow / hail height factors;
//! * **per row** (`RowTerms`, the background's `FbmRow`): the `y` halves of
//!   every squared distance, the noise lattice's `(y, z)` cell and weights,
//!   and whether `y` alone puts the whole row past every cull radius;
//! * **per cell run** (`noise::FbmRow::fill`): along a row an octave's
//!   eight corner hashes change only when `floor(x)` does, so the stretch
//!   of samples inside one lattice cell is found first and interpolated in
//!   one branch-free loop — no `floor`, no hash and no branch per sample,
//!   which is what lets the compiler vectorise it;
//! * **per point**: the `x` halves, the Gaussians, the interpolation.
//!
//! A row is worked a segment (at most `SEGMENT` samples, a rank's whole
//! 55-wide row) at a time, through fixed stack buffers: the background
//! noise of the segment is filled once; the cull predicate is evaluated for
//! every `x` in one loop (skipped where the row-level test already
//! answered); a **culled span is written by one loop** — `max(dry,
//! background)`, clamp — and only an unculled span goes through the
//! envelope, its texture filled once over the stretch that reaches `1e-3`.
//! A segment the cull clears whole never enters the envelope at all; seven
//! points in ten of a paper-scaled iteration lie in such rows.
//!
//! Hoisting moves an expression, never its operands or its association, so
//! the bits are those of evaluating the whole formula at every point
//! (`tests/field_pin.rs` pins them against the generator that did, and
//! `tests::the_row_generator_is_the_pointwise_generator` rebuilds it from
//! [`StormModel::condensate`], the reflectivity law and `fbm3`). Three
//! things are *not* evaluated, each because its result is known:
//!
//! * **Clear air is culled.** Where `r²/2σ²` of the main cell and of all
//!   three flanks exceeds `CULL_EXPONENT`, each Gaussian is below `e^-T` of
//!   its amplitude, the hook's ring is further still inside, the weak echo
//!   region only subtracts and the texture at most scales by `1 + GAIN +
//!   BOOST`: the envelope is under a quarter of `CONDENSATE_FLOOR`, and the
//!   floor makes condensate exactly `0.0` (`culled_points_are_dry` derives
//!   the bound from the constants and checks it point by point).
//! * **Dry points skip the reflectivity law.** Zero condensate is zero of
//!   every species, whose dBZ is one constant.
//! * **Echo skips the background.** The clear-air background only replaces
//!   samples below it and never exceeds −56 dBZ while the noise is in
//!   [-1, 1] (`noise::tests::bounded`); a sample above `BACKGROUND_CEILING`
//!   ignores the noise that was filled for its segment.
//!
//! The texture lattice is built per unculled span, and only for a span
//! that holds a sample whose envelope reaches `1e-3`; most spans of the
//! storm's fringe hold none.

use apc_grid::{Dims3, Field3, RectilinearCoords};

use crate::hydro::{air_density, dbz, SpeciesSplit};
use crate::noise::FbmRow;

#[inline]
pub(crate) fn smoothstep01(t: f32) -> f32 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

/// Core radius at the surface.
const CORE_SIGMA: f32 = 0.060;

/// Horizontal core radius at normalized height `z` (anvil spreads aloft;
/// kept moderate so the echo stays spatially local — the property the
/// paper's whole pipeline exploits).
fn sigma_h(z: f32) -> f32 {
    let anvil = smoothstep01((z - 0.55) / 0.40);
    CORE_SIGMA * (1.0 + 0.8 * anvil)
}

/// Flanking line: `(distance behind the core, amplitude)` of three smaller
/// cells trailing southwest.
const FLANKS: [(f32, f32); 3] = [(0.085, 0.45), (0.16, 0.35), (0.23, 0.25)];
const FLANK_SIGMA: f32 = 0.028;
const TWO_FLANK_SIGMA2: f32 = 2.0 * FLANK_SIGMA * FLANK_SIGMA;
/// Hook echo: amplitude, ring radius in core radii, ring width.
const HOOK_AMP: f32 = 0.55;
const HOOK_RADIUS: f32 = 1.35;
const HOOK_WIDTH: f32 = 0.014;
/// Texture `t ∈ [-1, 1]` scales the envelope by `1 + GAIN·t + BOOST·max(t, 0)`.
const TEXTURE_GAIN: f32 = 0.45;
const TEXTURE_BOOST: f32 = 0.35;
/// Condensate below this saturation floor evaporates. Without it the
/// Gaussian envelope's tail stays radar-visible for ~5σ in log space
/// and the echo loses the spatial locality the paper's data has.
const CONDENSATE_FLOOR: f32 = 0.05;
/// Clear-air cull: a point whose Gaussian exponents `r²/2σ²` — main cell
/// and all three flanks — exceed this is dry without evaluating anything
/// (why: module doc; `tests::culled_points_are_dry`).
const CULL_EXPONENT: f32 = 6.0;

/// Clear-air background (dBZ): weak, *flat* noise near the sensitivity
/// floor. Real clear air returns essentially nothing to the radar; keeping
/// it flat is what gives the paper its "set of blocks that all metrics
/// agree are not variable enough" (§V-B).
#[inline]
fn background(noise: f32) -> f32 {
    -58.0 + 2.0 * (noise * 0.5 + 0.5)
}

/// No background reaches this: `background(1.0)` is −56 and the noise stays
/// in [-1, 1] to within an ulp, so a sample above it is left alone unseen.
const BACKGROUND_CEILING: f32 = -55.0;

/// The storm model and its timeline.
#[derive(Debug, Clone)]
pub struct StormModel {
    pub seed: u64,
    /// Length of the replayed timeline (the paper's dataset has 572
    /// iterations).
    pub n_iterations: usize,
}

impl Default for StormModel {
    fn default() -> Self {
        Self {
            seed: 0xC1_5EED,
            n_iterations: 572,
        }
    }
}

/// One flanking cell at time `τ`.
#[derive(Clone, Copy)]
struct Flank {
    at: [f32; 2],
    /// `intensity · amp · pulse`.
    coef: f32,
}

/// What the envelope needs that depends on `τ` alone — once per call.
struct CallTerms {
    seed: u64,
    center: [f32; 2],
    intensity: f32,
    flanks: [Flank; 3],
    hook_theta: f32,
    /// Weak-echo-region centre, offset toward the inflow flank.
    wer: [f32; 2],
    /// The texture's drift through the noise lattice.
    drift: f32,
}

/// What depends on `(τ, z)` — once per z-plane.
struct PlaneTerms<'a> {
    call: &'a CallTerms,
    z: f32,
    two_sigma2: f32,
    /// `intensity · vertical`.
    main: f32,
    /// The flanks' coefficients down to (excluding) their Gaussians.
    flanks: [f32; 3],
    /// Below the hook's top: its coefficient and ring radius.
    hook: Option<(f32, f32)>,
    /// Below the vault's top: the weak echo region's depth.
    wer_depth: Option<f32>,
}

/// What depends on `(τ, z, y)` — once per row.
struct RowTerms<'a> {
    plane: &'a PlaneTerms<'a>,
    y: f32,
    dy: f32,
    dy2: f32,
    flank_dy2: [f32; 3],
    wer_dy2: f32,
}

impl CallTerms {
    fn plane(&self, z: f32) -> PlaneTerms<'_> {
        let sh = sigma_h(z);
        let vertical = if z < 0.60 {
            1.0
        } else {
            1.0 - 0.65 * smoothstep01((z - 0.60) / 0.38)
        } * (1.0 - smoothstep01((z - 0.93) / 0.07)); // echo top
        let two_sigma2 = 2.0 * sh * sh;
        let hook_coef = self.intensity * HOOK_AMP * (1.0 - z / 0.30);
        PlaneTerms {
            call: self,
            z,
            two_sigma2,
            main: self.intensity * vertical,
            flanks: self
                .flanks
                .map(|f| f.coef * vertical * (1.0 - smoothstep01((z - 0.55) / 0.2))),
            // A low-level appendage curling around the mesocyclone.
            hook: (z < 0.30).then_some((hook_coef, HOOK_RADIUS * sh)),
            // The inflow vault carved out at low levels.
            wer_depth: (z < 0.38).then_some((1.0 - z / 0.38) * 0.85),
        }
    }
}

impl<'a> PlaneTerms<'a> {
    fn row(&'a self, y: f32) -> RowTerms<'a> {
        let call = self.call;
        let dy = y - call.center[1];
        RowTerms {
            plane: self,
            y,
            dy,
            dy2: dy * dy,
            flank_dy2: call.flanks.map(|f| (y - f.at[1]).powi(2)),
            wer_dy2: (y - call.wer[1]).powi(2),
        }
    }
}

impl RowTerms<'_> {
    /// `x − center`, and the squared distances from `x` on this row to the
    /// main cell and to each flanking cell.
    #[inline]
    fn distances(&self, x: f32) -> (f32, f32, [f32; 3]) {
        let call = self.plane.call;
        let dx = x - call.center[0];
        let fr2 = std::array::from_fn(|n| (x - call.flanks[n].at[0]).powi(2) + self.flank_dy2[n]);
        (dx, dx * dx + self.dy2, fr2)
    }

    /// The cull predicate: every Gaussian of the envelope is past
    /// [`CULL_EXPONENT`] here.
    #[inline]
    fn is_clear_air(&self, r2: f32, fr2: &[f32; 3]) -> bool {
        r2 > CULL_EXPONENT * self.plane.two_sigma2
            && fr2.iter().all(|&r2| r2 > CULL_EXPONENT * TWO_FLANK_SIGMA2)
    }

    /// Whether this row is clear air at every `x` there is: its `y` alone
    /// puts it past every cull radius. Each squared distance is its `y`
    /// half plus a square, and adding a non-negative float never rounds
    /// below the other operand, so the point predicate holds wherever this
    /// does.
    fn is_all_clear_air(&self) -> bool {
        self.is_clear_air(self.dy2, &self.flank_dy2)
    }

    /// [`Self::is_clear_air`] at every `x` of a stretch of this row — one
    /// loop, nothing but arithmetic and comparisons in it.
    fn classify(&self, xs: &[f32], clear: &mut [bool]) {
        for (clear, &x) in clear.iter_mut().zip(xs) {
            let (_, r2, fr2) = self.distances(x);
            *clear = self.is_clear_air(r2, &fr2);
        }
    }

    /// One segment of this row, its background noise already in `s.noise`:
    /// span by span, a culled stretch as dry air, an unculled one through
    /// the envelope and `echo` (condensate to dBZ) — a segment the cull
    /// clears whole is one span and one loop.
    fn settle_spans(
        &self,
        xs: &[f32],
        s: &mut Scratch,
        echo: impl Fn(f32) -> f32,
        dry: f32,
        out: &mut [f32],
    ) {
        let n = xs.len();
        self.classify(xs, &mut s.clear[..n]);
        let mut at = 0;
        for span in s.clear[..n].chunk_by(|a, b| a == b) {
            let end = at + span.len();
            let (out, noise) = (&mut out[at..end], &s.noise[at..end]);
            if span[0] {
                settle_clear_air(dry, noise, out);
            } else {
                let (coord, tex) = (&mut s.coord[at..end], &mut s.tex[at..end]);
                self.condensate_span(&xs[at..end], coord, tex, out);
                for (v, &noise) in out.iter_mut().zip(noise) {
                    *v = settle(echo(*v), noise);
                }
            }
            at = end;
        }
    }

    /// Condensate in `[0, 1]` at `x` on this row.
    fn condensate(&self, x: f32) -> f32 {
        let (_, r2, fr2) = self.distances(x);
        if self.is_clear_air(r2, &fr2) {
            0.0
        } else {
            self.condensate_unculled(x)
        }
    }

    /// Condensate at `x` whatever the cull says: a span of one.
    fn condensate_unculled(&self, x: f32) -> f32 {
        let (mut coord, mut tex, mut c) = ([0.0], [0.0], [0.0]);
        self.condensate_span(&[x], &mut coord, &mut tex, &mut c);
        c[0]
    }

    /// The envelope before its texture: main cell, flanking line, hook,
    /// weak echo region.
    fn envelope(&self, x: f32) -> f32 {
        let plane = self.plane;
        let call = plane.call;
        let (dx, r2, fr2) = self.distances(x);
        let mut env = plane.main * (-r2 / plane.two_sigma2).exp();
        for (coef, fr2) in plane.flanks.iter().zip(fr2) {
            env += coef * (-fr2 / TWO_FLANK_SIGMA2).exp();
        }

        if let Some((coef, rh)) = plane.hook {
            let theta = self.dy.atan2(dx);
            let mut dth = theta - call.hook_theta;
            while dth > std::f32::consts::PI {
                dth -= 2.0 * std::f32::consts::PI;
            }
            while dth < -std::f32::consts::PI {
                dth += 2.0 * std::f32::consts::PI;
            }
            let r = r2.sqrt();
            env += coef
                * (-((r - rh) * (r - rh)) / (2.0 * HOOK_WIDTH * HOOK_WIDTH)).exp()
                * (-dth * dth / (2.0 * 0.55 * 0.55)).exp();
        }

        if let Some(depth) = plane.wer_depth {
            let wr2 = (x - call.wer[0]).powi(2) + self.wer_dy2;
            env -= depth * env * (-wr2 / (2.0 * 0.020 * 0.020)).exp();
        }
        env
    }

    /// Condensate in `[0, 1]` at every `x` of a span of this row, culled or
    /// not — the model's one formula: envelope, texture, saturation floor.
    /// `coord` and `tex` are scratch; all four slices are as long as `xs`.
    fn condensate_span(&self, xs: &[f32], coord: &mut [f32], tex: &mut [f32], out: &mut [f32]) {
        for (env, &x) in out.iter_mut().zip(xs) {
            *env = self.envelope(x);
        }

        // Turbulent texture: strong inside the storm, absent outside. The
        // additive part is proportional to the envelope so the storm's
        // faint fringe stays smooth (in log-reflectivity space a relative
        // perturbation is a bounded dB wiggle). Its lattice is built for,
        // and filled over, the stretch from the first to the last sample
        // whose envelope reaches `1e-3`; most spans of a fringe hold none.
        let textured = |env: &f32| *env > 1e-3;
        if let Some(lo) = out.iter().position(textured) {
            let hi = out.iter().rposition(textured).map_or(lo, |last| last + 1);
            let (plane, call) = (self.plane, self.plane.call);
            let freq = 11.0;
            let texture = FbmRow::<5>::new(
                self.y * freq - 0.6 * call.drift,
                plane.z * freq * 0.7,
                call.seed,
            );
            for (coord, &x) in coord[lo..hi].iter_mut().zip(&xs[lo..hi]) {
                *coord = x * freq + call.drift;
            }
            texture.fill(&coord[lo..hi], &mut tex[lo..hi]);
            for (env, &tex) in out[lo..hi].iter_mut().zip(&tex[lo..hi]) {
                if textured(env) {
                    *env = *env * (1.0 + TEXTURE_GAIN * tex) + TEXTURE_BOOST * *env * tex.max(0.0);
                }
            }
        }

        // Saturation floor: evaporate the faint tail, renormalize the rest.
        for env in out {
            *env = ((*env - CONDENSATE_FLOOR).max(0.0) / (1.0 - CONDENSATE_FLOOR)).clamp(0.0, 1.0);
        }
    }
}

/// A sample's last step: the clear-air background where it can show, then
/// the radar's range. `noise` is the background's fBm at the sample.
#[inline]
fn settle(mut v: f32, noise: f32) -> f32 {
    if v <= BACKGROUND_CEILING {
        let bg = background(noise);
        if v < bg {
            v = bg;
        }
    }
    v.clamp(crate::DBZ_MIN, crate::DBZ_MAX)
}

/// A culled span: dry air under its background, one loop.
fn settle_clear_air(dry: f32, noise: &[f32], out: &mut [f32]) {
    for (v, &noise) in out.iter_mut().zip(noise) {
        *v = settle(dry, noise);
    }
}

/// A row is generated in segments of at most this many samples, so that
/// the row path's buffers are a fixed size on the stack: a rank's 55-wide
/// row is one segment, a 2-wide serving strip allocates nothing.
const SEGMENT: usize = 64;

/// The buffers of one segment, reused by every segment of a call.
struct Scratch {
    /// Noise coordinates: the background's, then an unculled span's
    /// texture's.
    coord: [f32; SEGMENT],
    /// The background's fBm.
    noise: [f32; SEGMENT],
    /// An unculled span's texture.
    tex: [f32; SEGMENT],
    clear: [bool; SEGMENT],
}

impl Scratch {
    fn new() -> Self {
        Self {
            coord: [0.0; SEGMENT],
            noise: [0.0; SEGMENT],
            tex: [0.0; SEGMENT],
            clear: [false; SEGMENT],
        }
    }
}

/// The three axes of a sub-box, normalized to `[0, 1]` by the physical
/// bounds of the whole grid.
fn unit_axes(
    coords: &RectilinearCoords,
    offset: (usize, usize, usize),
    dims: Dims3,
) -> [Vec<f32>; 3] {
    let (lo, hi) = coords.bounds();
    let axis = |values: &[f32], at: usize, n: usize, lo: f32, hi: f32| -> Vec<f32> {
        let span = (hi - lo).max(f32::MIN_POSITIVE);
        values[at..at + n].iter().map(|v| (v - lo) / span).collect()
    };
    [
        axis(&coords.x, offset.0, dims.nx, lo[0], hi[0]),
        axis(&coords.y, offset.1, dims.ny, lo[1], hi[1]),
        axis(&coords.z, offset.2, dims.nz, lo[2], hi[2]),
    ]
}

impl StormModel {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Normalized time `τ ∈ [0, 1]` of an iteration.
    pub fn tau(&self, iteration: usize) -> f32 {
        if self.n_iterations <= 1 {
            return 0.0;
        }
        (iteration.min(self.n_iterations - 1)) as f32 / (self.n_iterations - 1) as f32
    }

    /// Horizontal storm-center position at time `τ` (the storm tracks
    /// northeastward across the domain, staying clear of the stretched
    /// border — CM1 domains are sized for exactly that, §II-A).
    pub fn center(&self, tau: f32) -> [f32; 2] {
        [0.33 + 0.30 * tau, 0.36 + 0.24 * tau]
    }

    /// Storm intensity at time `τ`: spin-up ramp plus a slow pulse.
    pub fn intensity(&self, tau: f32) -> f32 {
        smoothstep01(tau / 0.2 + 0.35) * (0.92 + 0.08 * (tau * 12.0).sin())
    }

    fn call_terms(&self, tau: f32) -> CallTerms {
        let center = self.center(tau);
        let intensity = self.intensity(tau);
        let flanks = std::array::from_fn(|idx| {
            let (dist, amp) = FLANKS[idx];
            let pulse = 0.8 + 0.2 * ((tau * 17.0) + idx as f32 * 2.1).sin();
            Flank {
                at: [center[0] - dist * 0.83, center[1] - dist * 0.55],
                coef: intensity * amp * pulse,
            }
        });
        CallTerms {
            seed: self.seed,
            center,
            intensity,
            flanks,
            // The hook precesses as the storm matures.
            hook_theta: -2.3 + 2.2 * tau,
            wer: [center[0] + 0.022, center[1] - 0.020],
            drift: tau * 3.0,
        }
    }

    /// Condensate envelope in `[0, 1]` at normalized position `p`, time `τ`
    /// — one sample of the pass [`StormModel::reflectivity_on`] makes.
    pub fn condensate(&self, p: [f32; 3], tau: f32) -> f32 {
        let [x, y, z] = p;
        self.call_terms(tau).plane(z).row(y).condensate(x)
    }

    /// Reflectivity (dBZ) on a sub-box of the grid — the field the paper's
    /// whole evaluation renders. `offset`/`dims` select a sub-box of the
    /// coordinate arrays, so ranks can generate just their subdomain; a
    /// sample's bits do not depend on the box it is generated in.
    pub fn reflectivity_on(
        &self,
        coords: &RectilinearCoords,
        offset: (usize, usize, usize),
        dims: Dims3,
        iteration: usize,
    ) -> Field3 {
        let tau = self.tau(iteration);
        let call = self.call_terms(tau);
        let [xs, ys, zs] = unit_axes(coords, offset, dims);
        // Zero condensate is the radar's sensitivity floor at any height.
        let dry = dbz(0.0, 0.0, 0.0, 0.0);

        let mut s = Scratch::new();
        let mut out = vec![0.0; dims.len()];
        let mut written = 0;
        for &z in &zs {
            let plane = call.plane(z);
            let split = SpeciesSplit::at(z);
            let rho = air_density(z);
            let echo = |c: f32| {
                if c == 0.0 {
                    dry
                } else {
                    let [qr, qs, qg] = split.mixing_ratios(c);
                    dbz(rho, qr, qs, qg)
                }
            };
            for &y in &ys {
                let row = plane.row(y);
                let all_clear = row.is_all_clear_air();
                let clear_air = FbmRow::<3>::new(y * 5.0, z * 3.0, self.seed ^ 0xBA5E);
                for xs in xs.chunks(SEGMENT) {
                    let n = xs.len();
                    let out = &mut out[written..written + n];
                    written += n;
                    for (coord, &x) in s.coord.iter_mut().zip(xs) {
                        *coord = x * 5.0 + tau;
                    }
                    clear_air.fill(&s.coord[..n], &mut s.noise[..n]);
                    if all_clear {
                        settle_clear_air(dry, &s.noise[..n], out);
                    } else {
                        row.settle_spans(xs, &mut s, echo, dry, out);
                    }
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "`out` was allocated with `dims.len()` samples"
        )]
        Field3::from_vec(dims, out).expect("length matches dims")
    }

    /// Whole-domain reflectivity field.
    pub fn reflectivity(&self, coords: &RectilinearCoords, iteration: usize) -> Field3 {
        self.reflectivity_on(coords, (0, 0, 0), coords.dims(), iteration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fbm3, DBZ_ISOVALUE, DBZ_MAX, DBZ_MIN};

    /// Unit spacing: no stretched border cells.
    fn small_coords() -> RectilinearCoords {
        RectilinearCoords::stretched(Dims3::new(48, 48, 12), 1.0, 0, 1.0)
    }

    #[test]
    fn condensate_is_bounded_and_deterministic() {
        let m = StormModel::default();
        for i in 0..200 {
            let p = [
                (i % 20) as f32 / 20.0,
                (i / 20) as f32 / 10.0,
                (i % 7) as f32 / 7.0,
            ];
            let c = m.condensate(p, 0.5);
            assert!((0.0..=1.0).contains(&c), "condensate {c} at {p:?}");
            assert_eq!(c, m.condensate(p, 0.5));
        }
    }

    #[test]
    fn storm_core_is_wet_and_far_field_is_dry() {
        let m = StormModel::default();
        let tau = 0.5;
        let c = m.center(tau);
        let core = m.condensate([c[0], c[1], 0.45], tau);
        let far = m.condensate([0.05, 0.9, 0.45], tau);
        assert!(core > 0.4, "core condensate too weak: {core}");
        assert!(far < 0.01, "far field should be clear: {far}");
    }

    #[test]
    fn weak_echo_region_carves_the_low_levels() {
        let m = StormModel {
            seed: 1,
            ..Default::default()
        };
        let tau = 0.5;
        let c = m.center(tau);
        // At the WER position, low-level condensate is depressed relative
        // to the same column higher up.
        let wer_low = m.condensate([c[0] + 0.022, c[1] - 0.020, 0.06], tau);
        let wer_mid = m.condensate([c[0] + 0.022, c[1] - 0.020, 0.50], tau);
        assert!(
            wer_low < 0.6 * wer_mid,
            "WER should carve low levels: low {wer_low} vs mid {wer_mid}"
        );
    }

    #[test]
    fn reflectivity_in_valid_range_with_isosurface_present() {
        let m = StormModel::default();
        let coords = small_coords();
        let f = m.reflectivity(&coords, 300);
        let (lo, hi) = f.min_max().unwrap();
        assert!(lo >= DBZ_MIN && hi <= DBZ_MAX, "range [{lo}, {hi}]");
        assert!(
            hi > DBZ_ISOVALUE,
            "storm must pierce the 45 dBZ isovalue, max {hi}"
        );
        assert!(lo < -40.0, "clear air must stay near the floor, min {lo}");
    }

    #[test]
    fn storm_is_spatially_localized() {
        // The paper's central premise: the interesting region is a small
        // fraction of the domain. Count columns whose max dBZ exceeds the
        // isovalue.
        let m = StormModel::default();
        let coords = small_coords();
        let f = m.reflectivity(&coords, 300);
        let d = f.dims();
        let mut hot_columns = 0;
        for j in 0..d.ny {
            for i in 0..d.nx {
                let mut colmax = f32::MIN;
                for k in 0..d.nz {
                    colmax = colmax.max(f.get(i, j, k));
                }
                if colmax > DBZ_ISOVALUE {
                    hot_columns += 1;
                }
            }
        }
        let frac = hot_columns as f64 / (d.nx * d.ny) as f64;
        assert!(
            frac > 0.005 && frac < 0.25,
            "storm covers {frac:.3} of the domain (want localized but present)"
        );
    }

    #[test]
    fn storm_moves_over_time() {
        let m = StormModel::default();
        let c0 = m.center(m.tau(0));
        let c1 = m.center(m.tau(571));
        let d = ((c1[0] - c0[0]).powi(2) + (c1[1] - c0[1]).powi(2)).sqrt();
        assert!(d > 0.2, "storm should traverse the domain, moved {d}");
        assert!(
            c1[0] < 0.85 && c1[1] < 0.85,
            "storm must stay inside the domain"
        );
    }

    #[test]
    fn subbox_generation_matches_full_field() {
        // A sample's bits do not depend on the box it is generated in: the
        // per-plane and per-row terms are functions of the coordinates
        // alone, and the noise rows restart wherever a box begins.
        let m = StormModel::default();
        for coords in [
            small_coords(),
            RectilinearCoords::stretched(Dims3::new(48, 48, 12), 1.0, 8, 1.12),
        ] {
            let full = m.reflectivity(&coords, 100);
            for (offset, dims) in [
                ((10, 20, 3), Dims3::new(5, 4, 6)),
                // Odd offsets and extents, through the storm's core.
                ((7, 13, 1), Dims3::new(19, 11, 5)),
                // Single-point rows, single-row planes, a single column.
                ((18, 15, 2), Dims3::new(1, 9, 4)),
                ((11, 19, 0), Dims3::new(20, 1, 12)),
                ((18, 19, 0), Dims3::new(1, 1, 12)),
                // Starting inside a texture cell (48/11 points wide) and a
                // background cell (48/5), ending at the domain's corner.
                ((23, 17, 5), Dims3::new(25, 31, 7)),
            ] {
                let sub = m.reflectivity_on(&coords, offset, dims, 100);
                for k in 0..dims.nz {
                    for j in 0..dims.ny {
                        for i in 0..dims.nx {
                            let whole = full.get(offset.0 + i, offset.1 + j, offset.2 + k);
                            assert_eq!(
                                sub.get(i, j, k).to_bits(),
                                whole.to_bits(),
                                "box {offset:?} + {dims:?} at ({i}, {j}, {k})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The per-point generator: every sample of a box from the pointwise
    /// public forms alone — `StormModel::condensate`, the reflectivity law
    /// at every condensate, dry included, `fbm3` — and the background
    /// compared at *every* sample, echo included. As bits.
    fn pointwise(
        m: &StormModel,
        coords: &RectilinearCoords,
        offset: (usize, usize, usize),
        dims: Dims3,
        iteration: usize,
    ) -> Vec<u32> {
        let tau = m.tau(iteration);
        let [xs, ys, zs] = unit_axes(coords, offset, dims);
        let mut out = Vec::with_capacity(dims.len());
        for &z in &zs {
            for &y in &ys {
                for &x in &xs {
                    let c = m.condensate([x, y, z], tau);
                    let [qr, qs, qg] = SpeciesSplit::at(z).mixing_ratios(c);
                    let v = dbz(air_density(z), qr, qs, qg);
                    let bg = background(fbm3(x * 5.0 + tau, y * 5.0, z * 3.0, 3, m.seed ^ 0xBA5E));
                    let v = if v < bg { bg } else { v };
                    out.push(v.clamp(DBZ_MIN, DBZ_MAX).to_bits());
                }
            }
        }
        out
    }

    fn bits(field: &Field3) -> Vec<u32> {
        field.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The row classifier over a whole row.
    fn classify(row: &RowTerms<'_>, xs: &[f32]) -> Vec<bool> {
        let mut clear = vec![false; xs.len()];
        row.classify(xs, &mut clear);
        clear
    }

    /// The lengths of the unculled stretches of a row.
    fn unculled_spans(clear: &[bool]) -> Vec<usize> {
        clear
            .split(|&c| c)
            .map(<[bool]>::len)
            .filter(|&n| n > 0)
            .collect()
    }

    #[test]
    fn the_row_generator_is_the_pointwise_generator() {
        // Whole small domains, young storm and mature, uniform axes and
        // stretched: every row kind there is — all clear, fringe, core,
        // under the hook and the vault and above them.
        let m = StormModel::default();
        for coords in [
            small_coords(),
            RectilinearCoords::stretched(Dims3::new(48, 48, 12), 1.0, 8, 1.12),
        ] {
            for iteration in [40, 300] {
                let field = m.reflectivity(&coords, iteration);
                let expect = pointwise(&m, &coords, (0, 0, 0), coords.dims(), iteration);
                assert_eq!(bits(&field), expect, "iteration {iteration}");
            }
        }
    }

    #[test]
    fn a_row_through_two_echoes_is_its_pointwise_samples() {
        // South of the core a domain-wide row crosses the last flanking
        // cell, clear air, and then the main cell's edge: two unculled
        // spans with culled points before, between and after them. Every
        // such row of one low plane, whole (440 wide) and as the 55-wide
        // pieces the ranks generate.
        let ds = crate::ReflectivityDataset::paper_scaled(64, 42).unwrap();
        let (m, coords) = (ds.storm(), ds.coords());
        let iteration = ds.sample_iterations(6)[2];
        let domain = coords.dims();
        let k = 9;
        let [xs, ys, zs] = unit_axes(coords, (0, 0, 0), domain);
        let call = m.call_terms(m.tau(iteration));
        let plane = call.plane(zs[k]);
        let mut seen = 0;
        for (j, &y) in ys.iter().enumerate() {
            let clear = classify(&plane.row(y), &xs);
            let spans = unculled_spans(&clear);
            if spans.len() < 2 {
                continue;
            }
            seen += 1;
            assert!(clear[0] && clear[domain.nx - 1], "row {j} starts in echo");
            let gap = clear
                .iter()
                .skip_while(|&&c| c)
                .skip_while(|&&c| !c)
                .take_while(|&&c| c)
                .count();
            assert!(gap >= 2, "row {j}: no clear air between the echoes");
            let whole = Dims3::new(domain.nx, 1, 1);
            let expect = pointwise(m, coords, (0, j, k), whole, iteration);
            let row = m.reflectivity_on(coords, (0, j, k), whole, iteration);
            assert_eq!(bits(&row), expect, "row {j}, whole");
            for (piece, expect) in expect.chunks(55).enumerate() {
                let at = (piece * 55, j, k);
                let row = m.reflectivity_on(coords, at, Dims3::new(55, 1, 1), iteration);
                assert_eq!(bits(&row), expect, "row {j}, piece {piece}");
            }
        }
        assert!(seen >= 10, "only {seen} rows cross two echoes");
    }

    #[test]
    fn the_row_classifier_is_the_point_predicate_on_the_pinned_ranks() {
        // The three ranks `tests/field_pin.rs` pins, row by row: the
        // classifier against `is_clear_air` at every point, the row-level
        // test against the classifier, and the census
        // the row path's rates rest on — a clear-air rank is all-clear rows
        // only, the fringe rank (the cull radius reaches well past the last
        // visible echo) has every kind of row, the storm rank has no culled
        // point at all.
        let ds = crate::ReflectivityDataset::paper_scaled(64, 42).unwrap();
        let iteration = ds.sample_iterations(6)[2];
        let call = ds.storm().call_terms(ds.storm().tau(iteration));
        // (rank, has all-clear rows, has mixed rows, has all-unculled rows)
        for (rank, census) in [
            (7, [true, false, false]),
            (12, [true, true, true]),
            (27, [false, false, true]),
        ] {
            let ext = ds.decomp().subdomain_extent(rank);
            let [xs, ys, zs] = unit_axes(ds.coords(), ext.lo, ext.dims());
            let mut seen = [false; 3];
            let mut far_rows = 0;
            for &z in &zs {
                let plane = call.plane(z);
                for &y in &ys {
                    let row = plane.row(y);
                    let clear = classify(&row, &xs);
                    for (&x, &c) in xs.iter().zip(&clear) {
                        let (_, r2, fr2) = row.distances(x);
                        assert_eq!(
                            c,
                            row.is_clear_air(r2, &fr2),
                            "rank {rank} at ({x}, {y}, {z})"
                        );
                    }
                    let culled = clear.iter().filter(|&&c| c).count();
                    if row.is_all_clear_air() {
                        assert_eq!(culled, xs.len(), "rank {rank}: row ({y}, {z})");
                        far_rows += 1;
                    }
                    seen[0] |= culled == xs.len();
                    seen[1] |= 0 < culled && culled < xs.len();
                    seen[2] |= culled == 0;
                }
            }
            assert_eq!(
                seen, census,
                "rank {rank}: [all clear, mixed, all unculled]"
            );
            // The row-level test (clear by `y` alone) fires south of the
            // storm — ranks 7 and 12 — and never under its core.
            assert_eq!(far_rows > 0, rank != 27, "rank {rank}: {far_rows} rows");
        }
    }

    #[test]
    fn culled_points_are_dry() {
        // Past the cull every Gaussian is below e^-T of its amplitude, none
        // of which exceeds its constant (asserted below); the hook's ring
        // lies so far inside the cull radius that its own exponent is past
        // T as well; the weak echo region only subtracts; the texture
        // scales by at most 1 + GAIN + BOOST. That total sits far enough
        // under the saturation floor that rounding cannot reach it.
        let amplitudes = 1.0 + FLANKS.iter().map(|f| f.1).sum::<f32>() + HOOK_AMP;
        let texture = 1.0 + TEXTURE_GAIN + TEXTURE_BOOST;
        let bound = amplitudes * (-CULL_EXPONENT).exp() * texture;
        assert!(bound < CONDENSATE_FLOOR / 4.0, "cull bound {bound}");
        let ring_gap = ((2.0 * CULL_EXPONENT).sqrt() - HOOK_RADIUS) * CORE_SIGMA;
        assert!(ring_gap * ring_gap / (2.0 * HOOK_WIDTH * HOOK_WIDTH) > CULL_EXPONENT);

        // And point by point: the full formula at every culled point of a
        // dense grid, young storm to old.
        let m = StormModel::default();
        let (mut culled, mut total) = (0usize, 0usize);
        for tau in [0.0, 0.13, 0.46, 0.77, 1.0] {
            let call = m.call_terms(tau);
            assert!(call.intensity <= 1.0);
            for k in 0..=24 {
                let z = k as f32 / 24.0;
                assert!(sigma_h(z) >= CORE_SIGMA);
                let plane = call.plane(z);
                assert!(plane.main <= 1.0);
                assert!(plane.flanks.iter().zip(FLANKS).all(|(c, f)| *c <= f.1));
                assert!(plane.hook.is_none_or(|(coef, _)| coef <= HOOK_AMP));
                for j in 0..=96 {
                    let row = plane.row(j as f32 / 96.0);
                    for i in 0..=96 {
                        let x = i as f32 / 96.0;
                        let (_, r2, fr2) = row.distances(x);
                        total += 1;
                        if row.is_clear_air(r2, &fr2) {
                            culled += 1;
                            let c = row.condensate_unculled(x);
                            assert_eq!(c, 0.0, "culled point ({x}, {j}/96, {z}) at τ = {tau}");
                        }
                    }
                }
            }
        }
        assert!(2 * culled > total, "the cull must pay: {culled} of {total}");
    }

    #[test]
    fn background_is_skipped_only_where_it_cannot_show() {
        // `noise::tests::bounded` holds the noise to [-1, 1] ± 4ε.
        assert!(background(1.0 + 4.0 * f32::EPSILON) < BACKGROUND_CEILING);
        // Dry air is under every background value, so it always gets one.
        assert!(dbz(0.0, 0.0, 0.0, 0.0) < background(-1.0 - 4.0 * f32::EPSILON));
    }
}
