//! The adaptation controller — paper Algorithm 1, verbatim.
//!
//! Given the `(time, percent)` observations of the two previous iterations,
//! fit `t = a·p + b` and solve for the percentage that hits the target
//! time. Two guards: identical consecutive percentages would make the slope
//! vertical (lines 2–7: nudge by ±1 instead), and a non-negative slope —
//! possible "because of randomness in rendering time" (line 11) — falls
//! back to increasing the percentage by 1.

/// One step of Algorithm 1.
///
/// Arguments mirror the paper: `target` run time, the previous iteration's
/// `(t_prev, p_prev)` and the current one's `(t_cur, p_cur)`. Returns
/// `p_next ∈ [0, 100]`.
pub fn adapt_percent(target: f64, t_prev: f64, p_prev: f64, t_cur: f64, p_cur: f64) -> f64 {
    debug_assert!(target > 0.0);
    // Lines 2-7: vertical slope — the same percentage was used twice.
    if (p_prev - p_cur).abs() < 1e-9 {
        if t_cur > target && p_cur < 100.0 {
            return (p_cur + 1.0).min(100.0);
        }
        if t_cur < target && p_cur > 0.0 {
            return (p_cur - 1.0).max(0.0);
        }
        return p_cur;
    }
    // Lines 8-10: linear estimate t = a·p + b.
    let a = (t_cur - t_prev) / (p_cur - p_prev);
    let b = t_cur - a * p_cur;
    // Line 11: reducing more blocks should never cost more; if it did,
    // rendering-time randomness broke assumption (2) — nudge up instead.
    if a >= 0.0 {
        return (p_cur + 1.0).min(100.0);
    }
    // Line 13: solve for the target.
    let p = (target - b) / a;
    p.clamp(0.0, 100.0)
}

/// Stateful wrapper: feeds Algorithm 1 with the paper's initial conditions
/// (`t₀ = 0` at `p₀ = 100`; the first iteration runs unreduced, `p₁ = 0`)
/// and keeps the two-iteration history.
///
/// Paper §IV-E notes that "the maximum percentage of reduced blocks could
/// easily be bounded by the user". No run of the paper bounds it, so the
/// bound is 100: the percentage Algorithm 1 solves for is the one used.
#[derive(Debug, Clone)]
pub struct BudgetController {
    target: f64,
    /// `(t, p)` of iteration n−1.
    prev: (f64, f64),
    /// `p` of the iteration currently in flight (time not yet observed).
    current_percent: f64,
}

impl BudgetController {
    pub fn new(target: f64) -> Self {
        assert!(target > 0.0, "target time must be positive");
        Self {
            target,
            prev: (0.0, 100.0),   // t0 = 0 when everything is reduced
            current_percent: 0.0, // p1 = 0: first output is not reduced
        }
    }

    /// Percentage to use for the next iteration.
    pub fn percent(&self) -> f64 {
        self.current_percent
    }

    /// Record the observed pipeline time for the iteration that just ran at
    /// [`BudgetController::percent`], and compute the next percentage.
    pub fn observe(&mut self, t: f64) -> f64 {
        self.observe_at(t, self.current_percent)
    }

    /// Like [`BudgetController::observe`], but for an iteration that
    /// actually ran at `p_used` instead of the controller's own output —
    /// the staged pipeline's `DegradeHarder` policy boosts the percentage
    /// past the controller under backpressure, and feeding the fit with
    /// the true `(time, percent)` pair keeps Algorithm 1's linear model
    /// honest.
    pub fn observe_at(&mut self, t: f64, p_used: f64) -> f64 {
        // Callers can legitimately land on (or, with a buggy boost
        // policy, beyond) the [0, 100] boundary — `DegradeHarder{boost}`
        // adds its boost *after* the controller's output. Clamp instead
        // of asserting so release builds keep Algorithm 1's fit anchored
        // to a percentage that can exist, and only reject values that
        // are not numbers at all.
        debug_assert!(p_used.is_finite(), "observed percent must be finite");
        let p_used = if p_used.is_finite() {
            p_used.clamp(0.0, 100.0)
        } else {
            100.0
        };
        let (t_prev, p_prev) = self.prev;
        // `adapt_percent` lands in [0, 100] already; this maps a NaN fit
        // to 100.
        let next = adapt_percent(self.target, t_prev, p_prev, t, p_used).min(100.0);
        self.prev = (t, p_used);
        self.current_percent = next;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_iteration_runs_unreduced() {
        let c = BudgetController::new(20.0);
        assert_eq!(c.percent(), 0.0);
    }

    #[test]
    fn observe_at_clamps_out_of_range_percent() {
        // `DegradeHarder{boost}` can push the effective percent onto (or,
        // with an over-eager boost, past) the [0, 100] boundary. The fit
        // must see the clamped value — identical next-percent to feeding
        // the boundary directly — rather than an impossible percentage
        // that would bend Algorithm 1's linear model.
        let mut boosted = BudgetController::new(20.0);
        let mut clamped = BudgetController::new(20.0);
        let over = boosted.observe_at(37.0, 105.0);
        let at_edge = clamped.observe_at(37.0, 100.0);
        assert_eq!(over.to_bits(), at_edge.to_bits());
        assert!((0.0..=100.0).contains(&over));

        let mut below = BudgetController::new(20.0);
        let mut at_zero = BudgetController::new(20.0);
        let under = below.observe_at(5.0, -3.0);
        let zero = at_zero.observe_at(5.0, 0.0);
        assert_eq!(under.to_bits(), zero.to_bits());

        // The stored history is the clamped pair too: the *next* step's
        // fit anchors to (t, 100), not (t, 105).
        let n1 = boosted.observe_at(30.0, 50.0);
        let n2 = clamped.observe_at(30.0, 50.0);
        assert_eq!(n1.to_bits(), n2.to_bits());
    }

    #[test]
    fn linear_system_converges_in_one_estimate() {
        // Ideal monotone system: t(p) = 160·(1 - p/100).
        let t = |p: f64| 160.0 * (1.0 - p / 100.0);
        let mut c = BudgetController::new(20.0);
        let p1 = c.percent();
        let p2 = c.observe(t(p1));
        // With t0=0 @ p=100 and t1=160 @ p=0 the fit is exact: t=20 at p=87.5.
        assert!((p2 - 87.5).abs() < 1e-9, "p2 = {p2}");
        let p3 = c.observe(t(p2));
        assert!((t(p3) - 20.0).abs() < 1e-6, "converged time {}", t(p3));
    }

    #[test]
    fn converges_on_nonlinear_system() {
        // Convex decreasing response (most gain at high p, like Fig 7).
        let t = |p: f64| 160.0 * (1.0 - p / 100.0).powi(3) + 1.0;
        let mut c = BudgetController::new(20.0);
        let mut p = c.percent();
        for _ in 0..30 {
            p = c.observe(t(p));
        }
        let err = (t(p) - 20.0).abs() / 20.0;
        assert!(err < 0.15, "final time {} vs target 20", t(p));
    }

    #[test]
    fn vertical_slope_guard_steps_by_one() {
        // Same percentage twice: nudge by 1 in the right direction.
        assert_eq!(adapt_percent(10.0, 30.0, 50.0, 30.0, 50.0), 51.0);
        assert_eq!(adapt_percent(100.0, 30.0, 50.0, 30.0, 50.0), 49.0);
        // Saturated at the ends.
        assert_eq!(adapt_percent(10.0, 30.0, 100.0, 30.0, 100.0), 100.0);
        assert_eq!(adapt_percent(100.0, 3.0, 0.0, 3.0, 0.0), 0.0);
        // Exactly on target: stay.
        assert_eq!(adapt_percent(30.0, 30.0, 50.0, 30.0, 50.0), 50.0);
    }

    #[test]
    fn positive_slope_guard_increases_percent() {
        // Reduced more blocks (p: 40→60) yet time went UP (assumption 2
        // broken): Algorithm 1 line 11 nudges up by 1.
        let p = adapt_percent(20.0, 50.0, 40.0, 55.0, 60.0);
        assert_eq!(p, 61.0);
        // Saturates at 100.
        assert_eq!(adapt_percent(20.0, 50.0, 99.5, 55.0, 100.0), 100.0);
    }

    #[test]
    fn result_is_always_in_range() {
        // Extreme targets stay inside [0, 100] (line 13-14).
        assert_eq!(adapt_percent(1000.0, 0.0, 100.0, 160.0, 0.0), 0.0);
        let p = adapt_percent(0.001, 0.0, 100.0, 160.0, 0.0);
        assert!((99.9..=100.0).contains(&p), "p = {p}");
    }

    #[test]
    fn controller_tracks_load_changes() {
        // The phenomenon grows mid-run: cost per unreduced percent doubles.
        let mut c = BudgetController::new(30.0);
        let cost = |p: f64, scale: f64| scale * (1.0 - p / 100.0) + 0.5;
        let mut p = c.percent();
        for _ in 0..15 {
            p = c.observe(cost(p, 100.0));
        }
        assert!(
            (cost(p, 100.0) - 30.0).abs() < 5.0,
            "pre-change convergence"
        );
        for _ in 0..25 {
            p = c.observe(cost(p, 200.0));
        }
        assert!(
            (cost(p, 200.0) - 30.0).abs() < 6.0,
            "post-change re-convergence"
        );
    }

    #[test]
    #[should_panic(expected = "target time must be positive")]
    fn zero_target_rejected() {
        let _ = BudgetController::new(0.0);
    }

    #[test]
    fn observe_at_feeds_the_fit_with_the_percent_actually_used() {
        // Linear system t(p) = 100 − p. A degrade path runs iteration 2 at
        // a boosted percentage; observe_at must anchor the fit at the
        // boosted point, so the solve lands where the *true* line says.
        let t = |p: f64| 100.0 - p;
        let mut c = BudgetController::new(40.0);
        let p1 = c.percent(); // 0
        c.observe(t(p1)); // history: (0, 100) and (100, 0)
        let boosted = 80.0; // ran much harder than asked
        let next = c.observe_at(t(boosted), boosted);
        // Fit through (100@0, 20@80): t = 100 − p ⇒ target 40 at p = 60.
        assert!((next - 60.0).abs() < 1e-9, "next = {next}");
    }

    /// Paper §IV-E bound, saturation low side: a target far below the
    /// p = 100 floor time drives the controller to the ceiling and keeps
    /// it pinned — never outside [0, 100] — and when the load later
    /// collapses it re-converges onto the now-feasible target.
    #[test]
    fn infeasible_low_target_saturates_then_recovers() {
        // t(p) = scale·(1 − p/100) + floor; floor = 4 s even at p = 100.
        let t = |p: f64, scale: f64| scale * (1.0 - p / 100.0) + 4.0;
        let mut c = BudgetController::new(1.0); // target below the floor
        let mut p = c.percent();
        for i in 0..60 {
            p = c.observe(t(p, 160.0));
            assert!(
                (0.0..=100.0).contains(&p),
                "iteration {i}: p = {p} escaped [0, 100]"
            );
        }
        assert_eq!(p, 100.0, "infeasible target must saturate at the ceiling");
        // Stays clamped under continued pressure.
        for _ in 0..10 {
            p = c.observe(t(p, 160.0));
            assert_eq!(p, 100.0);
        }
        // The phenomenon collapses: the floor drops to 0.2 s and the slope
        // to 16 s, so the 1 s target is now reachable at p = 95; the
        // controller must come down off the ceiling and find it.
        let t2 = |p: f64| 16.0 * (1.0 - p / 100.0) + 0.2;
        for _ in 0..60 {
            p = c.observe(t2(p));
            assert!(
                (0.0..=100.0).contains(&p),
                "recovery kept p in range, p = {p}"
            );
        }
        let err = (t2(p) - 1.0).abs();
        assert!(p < 100.0, "controller must leave the ceiling once feasible");
        assert!(err < 0.25, "re-converged time {} vs target 1.0", t2(p));
    }

    /// Saturation high side: a target far above the unreduced (p = 0)
    /// time pins the controller at the floor; when the load later grows
    /// past the target it re-converges from below.
    #[test]
    fn overgenerous_target_pins_at_zero_then_recovers() {
        let t = |p: f64, scale: f64| scale * (1.0 - p / 100.0) + 2.0;
        let mut c = BudgetController::new(500.0); // far above t(0) = 162
        let mut p = c.percent();
        for i in 0..40 {
            p = c.observe(t(p, 160.0));
            assert!(
                (0.0..=100.0).contains(&p),
                "iteration {i}: p = {p} escaped [0, 100]"
            );
        }
        assert_eq!(p, 0.0, "nothing to reduce when even p = 0 beats the target");
        // The storm intensifies 10×: t(0) = 1602 now misses the target;
        // the right percentage is ~69.
        for _ in 0..80 {
            p = c.observe(t(p, 1600.0));
            assert!((0.0..=100.0).contains(&p));
        }
        let err = (t(p, 1600.0) - 500.0).abs() / 500.0;
        assert!(p > 0.0, "controller must leave the floor under new load");
        assert!(
            err < 0.2,
            "re-converged time {} vs target 500",
            t(p, 1600.0)
        );
    }

    /// Oscillating render noise (the paper's "inherent variability of the
    /// visualization task"): the controller must stay clamped and keep the
    /// post-warmup median near the target despite ±25% swings.
    #[test]
    fn oscillating_noise_stays_clamped_and_tracks_target() {
        let base = |p: f64| 160.0 * (1.0 - p / 100.0) + 1.0;
        let mut c = BudgetController::new(30.0);
        let mut p = c.percent();
        let mut settled = Vec::new();
        for i in 0..80 {
            // Deterministic ±25% oscillation, period 2 (worst case for a
            // two-point linear fit).
            let noise = if i % 2 == 0 { 1.25 } else { 0.75 };
            let t = base(p) * noise;
            p = c.observe(t);
            assert!(
                (0.0..=100.0).contains(&p),
                "iteration {i}: p = {p} escaped [0, 100]"
            );
            if i >= 40 {
                settled.push(base(p));
            }
        }
        settled.sort_by(f64::total_cmp);
        let median = settled[settled.len() / 2];
        let err = (median - 30.0).abs() / 30.0;
        assert!(
            err < 0.35,
            "post-warmup median {median} should track target 30"
        );
    }
}
