//! QoS-tier request resolution over a *completed* run.
//!
//! The live executor's [`apc_serve::ServePolicy`] decides what happens
//! when a request races frame production. A replay pool serves a run that
//! already finished, so the race collapses into a simpler question: what
//! does a request naming an absent iteration get? [`resolve`] answers it
//! per [`QosTier`]:
//!
//! * **Premium** (`WaitForFrame` lineage) — exact frames or a typed
//!   [`Resolution::NoSuchIteration`]; never a substitute.
//! * **Free** (`BestEffort` lineage) — the newest frame at or before the
//!   requested iteration (flagged inexact), or [`Resolution::NotYet`]
//!   when the request predates the whole run.
//!
//! This is [`Resolution::of`] — the rule the live stager runs too — over
//! a run whose every frame is rendered, under the tier's
//! [`QosTier::policy`]. It is pure arithmetic over the manifest's
//! iteration list — no store reads, no clocks — so the planner and the
//! executor can both call it and agree byte-for-byte.

use apc_serve::FrameRequest;
pub use apc_serve::Resolution;

use crate::trace::QosTier;

/// Resolve `request` (targeting `stager`'s frames) for a `tier` client
/// against the run's sorted iteration list.
pub fn resolve(
    request: FrameRequest,
    stager: u32,
    tier: QosTier,
    iterations: &[usize],
) -> Resolution {
    Resolution::of(request, stager, iterations, iterations.len(), tier.policy())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITERS: &[usize] = &[100, 200, 300, 400];

    #[test]
    fn latest_is_exact_for_both_tiers() {
        for tier in [QosTier::Premium, QosTier::Free] {
            let r = resolve(FrameRequest::Latest, 2, tier, ITERS);
            assert_eq!(r.keys(), &[(400, 2)]);
            assert!(matches!(r, Resolution::Frames { exact: true, .. }));
        }
    }

    #[test]
    fn in_run_iteration_is_exact_for_both_tiers() {
        for tier in [QosTier::Premium, QosTier::Free] {
            let r = resolve(FrameRequest::AtIteration(200), 0, tier, ITERS);
            assert_eq!(r.keys(), &[(200, 0)]);
            assert!(matches!(r, Resolution::Frames { exact: true, .. }));
        }
    }

    #[test]
    fn absent_iteration_splits_by_tier() {
        // Premium gets the typed error; Free gets the newest frame at or
        // before the request, flagged inexact.
        assert_eq!(
            resolve(FrameRequest::AtIteration(250), 0, QosTier::Premium, ITERS),
            Resolution::NoSuchIteration(250)
        );
        let r = resolve(FrameRequest::AtIteration(250), 0, QosTier::Free, ITERS);
        assert_eq!(r.keys(), &[(200, 0)]);
        assert!(matches!(r, Resolution::Frames { exact: false, .. }));
        // Past the end of the run, free substitutes the last frame.
        let r = resolve(FrameRequest::AtIteration(999), 1, QosTier::Free, ITERS);
        assert_eq!(r.keys(), &[(400, 1)]);
        assert!(matches!(r, Resolution::Frames { exact: false, .. }));
    }

    #[test]
    fn request_predating_the_run_is_notyet_for_free() {
        assert_eq!(
            resolve(FrameRequest::AtIteration(50), 0, QosTier::Free, ITERS),
            Resolution::NotYet
        );
        assert_eq!(
            resolve(FrameRequest::AtIteration(50), 0, QosTier::Premium, ITERS),
            Resolution::NoSuchIteration(50)
        );
    }

    #[test]
    fn ranges_clip_to_the_run() {
        let r = resolve(
            FrameRequest::Range {
                start: 150,
                end: 350,
            },
            0,
            QosTier::Premium,
            ITERS,
        );
        assert_eq!(r.keys(), &[(200, 0), (300, 0)]);
        assert!(matches!(r, Resolution::Frames { exact: true, .. }));
        // Empty intersection follows the tier split.
        assert_eq!(
            resolve(
                FrameRequest::Range {
                    start: 500,
                    end: 600
                },
                0,
                QosTier::Premium,
                ITERS
            ),
            Resolution::NoSuchIteration(500)
        );
        assert_eq!(
            resolve(
                FrameRequest::Range { start: 0, end: 50 },
                0,
                QosTier::Free,
                ITERS
            ),
            Resolution::NotYet
        );
    }
}
