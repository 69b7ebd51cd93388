//! Recorded, replayable client arrival traces.
//!
//! A replay run is driven entirely by an [`ArrivalTrace`]: every request a
//! client will ever issue — its virtual arrival time, QoS tier, payload,
//! and target stager — is generated up front from a seed and the run's
//! [`RunManifest`], then *recorded* in a canonical order. The executor and
//! the pool planner both consume the same trace, which is what makes
//! routing and stealing decisions replayable: there is no live arrival
//! race to resolve, only a deterministic order to honor.
//!
//! Arrivals follow a bursty phase scheme: virtual time alternates between
//! *calm* and *burst* phases of `PHASE_LEN` seconds, with exponential
//! (Poisson-process) inter-arrival gaps whose mean switches between
//! [`TraceSpec::base_interval`] and [`TraceSpec::burst_interval`]. Each
//! phase also shifts a hot iteration window across the run, so the
//! request mix has the skew that makes cache routing matter.

use apc_par::SplitMix64;
use apc_serve::{FrameRequest, RunManifest, ServePolicy};

/// Fraction of clients on the [`QosTier::Premium`] tier.
const PREMIUM_SHARE: f64 = 0.25;
/// Virtual seconds per calm/burst phase.
const PHASE_LEN: f64 = 0.25;
/// Probability an `AtIteration` draw lands in the current phase's hot
/// window rather than uniformly over the run.
const HOT_FRACTION: f64 = 0.8;
/// Width of the hot window, in iterations.
const HOT_WINDOW: usize = 4;
/// Fraction of requests that name an iteration past the end of the run
/// (the tier-policy miss path).
const MISS_SHARE: f64 = 0.1;

/// Quality-of-service tier of a client, layered over [`ServePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosTier {
    /// Paying tier: exact answers or a typed error — maps to
    /// [`ServePolicy::WaitForFrame`] (over a completed run the "wait"
    /// degenerates to exact-or-`NoSuchIteration`).
    Premium,
    /// Free tier: substituted answers are fine — maps to
    /// [`ServePolicy::BestEffort`] (the newest frame at or before the
    /// requested one, or `NotYet`).
    Free,
}

impl QosTier {
    /// The serve policy this tier layers over: [`crate::resolve`] runs
    /// [`apc_serve::Resolution::of`] under it.
    pub fn policy(&self) -> ServePolicy {
        match self {
            QosTier::Premium => ServePolicy::WaitForFrame,
            QosTier::Free => ServePolicy::BestEffort,
        }
    }

    /// Short stable name for CSV/report rows.
    pub fn name(&self) -> &'static str {
        match self {
            QosTier::Premium => "premium",
            QosTier::Free => "free",
        }
    }
}

/// Shape of a generated arrival trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Client ranks issuing requests.
    pub clients: usize,
    /// Requests each client issues over the trace.
    pub requests_per_client: usize,
    /// Seed of every random draw in the trace.
    pub seed: u64,
    /// Mean inter-arrival gap (virtual seconds, per client) in calm
    /// phases.
    pub base_interval: f64,
    /// Mean inter-arrival gap in burst phases (smaller = harder bursts).
    pub burst_interval: f64,
}

impl TraceSpec {
    pub fn new(clients: usize, requests_per_client: usize, seed: u64) -> Self {
        assert!(clients >= 1, "need at least one client");
        assert!(requests_per_client >= 1, "need at least one request each");
        Self {
            clients,
            requests_per_client,
            seed,
            base_interval: 2e-2,
            burst_interval: 2e-3,
        }
    }

    /// Set the calm/burst mean inter-arrival gaps.
    pub fn with_intervals(mut self, base: f64, burst: f64) -> Self {
        assert!(
            base.is_finite() && base > 0.0 && burst.is_finite() && burst > 0.0,
            "intervals must be finite and positive"
        );
        self.base_interval = base;
        self.burst_interval = burst;
        self
    }
}

/// One recorded request arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Position in the trace's canonical order (the replay identity).
    pub slot: usize,
    /// Issuing client.
    pub client: usize,
    /// The request's index within its client (issue order).
    pub index: usize,
    /// Virtual arrival time at which the client posts the request.
    pub time: f64,
    /// The issuing client's tier.
    pub tier: QosTier,
    /// The request payload.
    pub request: FrameRequest,
    /// Target stager slot whose frames the request names.
    pub stager: u32,
}

/// A complete recorded trace: arrivals in canonical `(time, client,
/// index)` order, plus the per-client tier table.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    pub arrivals: Vec<Arrival>,
    pub clients: usize,
    pub requests_per_client: usize,
    /// Tier per client, in client-slot order.
    pub tiers: Vec<QosTier>,
}

impl ArrivalTrace {
    /// Generate the trace for `spec` against a persisted run's manifest.
    /// A pure function of its arguments: the same spec and manifest always
    /// produce the identical trace, byte for byte.
    pub fn generate(spec: &TraceSpec, manifest: &RunManifest) -> Self {
        assert!(
            !manifest.iterations.is_empty() && manifest.n_stagers >= 1,
            "cannot trace requests against an empty run"
        );
        let iters = &manifest.iterations;
        let last_it = iters[iters.len() - 1] as u64;

        // Tiers first, from a dedicated stream, so changing arrival knobs
        // never silently reshuffles who pays.
        let mut tier_rng = SplitMix64::new(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
        let tiers: Vec<QosTier> = (0..spec.clients)
            .map(|_| {
                if tier_rng.next_f64() < PREMIUM_SHARE {
                    QosTier::Premium
                } else {
                    QosTier::Free
                }
            })
            .collect();

        let mut arrivals = Vec::with_capacity(spec.clients * spec.requests_per_client);
        #[expect(
            clippy::needless_range_loop,
            reason = "`client` seeds the per-client rng stream, not just the `tiers` index"
        )]
        for client in 0..spec.clients {
            // Per-client stream: a client's request sequence is invariant
            // under changes to the client count above it.
            let mut rng =
                SplitMix64::new(spec.seed ^ (client as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
            let mut t = 0.0_f64;
            for index in 0..spec.requests_per_client {
                // Poisson-process gap whose mean follows the calm/burst
                // phase the client is currently in.
                let phase = (t / PHASE_LEN) as u64;
                let mean = if phase.is_multiple_of(2) {
                    spec.base_interval
                } else {
                    spec.burst_interval
                };
                let u = rng.next_f64();
                t += -mean * (1.0 - u).ln();

                // The hot window shifts every phase, sliding over the run.
                let phase = (t / PHASE_LEN) as u64;
                let window = HOT_WINDOW.min(iters.len());
                let hot_lo = ((phase as usize).wrapping_mul(7)) % (iters.len() - window + 1);
                let stager = rng.below(manifest.n_stagers) as u32;

                let draw = rng.next_f64();
                let request = if draw < MISS_SHARE {
                    // Past the end of the run: the tier decides whether
                    // this is an error or a substituted answer.
                    FrameRequest::AtIteration(last_it + 1 + rng.below(4) as u64)
                } else if draw < MISS_SHARE + 0.1 {
                    FrameRequest::Latest
                } else if draw < MISS_SHARE + 0.3 {
                    let start = rng.below(iters.len());
                    let len = 1 + rng.below(3);
                    let end = (start + len).min(iters.len() - 1);
                    FrameRequest::Range {
                        start: iters[start] as u64,
                        end: iters[end] as u64,
                    }
                } else {
                    let idx = if rng.next_f64() < HOT_FRACTION {
                        hot_lo + rng.below(window)
                    } else {
                        rng.below(iters.len())
                    };
                    FrameRequest::AtIteration(iters[idx] as u64)
                };

                arrivals.push(Arrival {
                    slot: 0, // assigned after the canonical sort
                    client,
                    index,
                    time: t,
                    tier: tiers[client],
                    request,
                    stager,
                });
            }
        }

        // Canonical order: time, then (client, index) as the total
        // tiebreak — this *is* the recorded arrival order stealing
        // replays from.
        arrivals.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.client.cmp(&b.client))
                .then(a.index.cmp(&b.index))
        });
        for (slot, a) in arrivals.iter_mut().enumerate() {
            a.slot = slot;
        }

        Self {
            arrivals,
            clients: spec.clients,
            requests_per_client: spec.requests_per_client,
            tiers,
        }
    }

    /// Total recorded arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// `issue_order()[c]`: arrival slots of client `c`, in issue
    /// (`index`) order. One O(N log N) pass, not a scan per client.
    pub fn issue_order(&self) -> Vec<Vec<usize>> {
        let mut by_client: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.clients];
        for a in &self.arrivals {
            by_client[a.client].push((a.index, a.slot));
        }
        by_client
            .into_iter()
            .map(|mut v| {
                v.sort_unstable();
                v.into_iter().map(|(_, slot)| slot).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_store::CodecKind;

    fn manifest() -> RunManifest {
        RunManifest {
            run_id: "trace-test".into(),
            n_stagers: 4,
            width: 8,
            height: 8,
            codec: CodecKind::Raw,
            iterations: vec![100, 200, 300, 400, 500, 600, 700, 800],
            shard_chunks: None,
        }
    }

    #[test]
    fn trace_is_a_pure_function_of_spec_and_manifest() {
        let spec = TraceSpec::new(8, 16, 42);
        let a = ArrivalTrace::generate(&spec, &manifest());
        let b = ArrivalTrace::generate(&spec, &manifest());
        assert_eq!(a, b);
        let c = ArrivalTrace::generate(&TraceSpec::new(8, 16, 43), &manifest());
        assert_ne!(a, c, "a different seed must move the trace");
    }

    #[test]
    fn canonical_order_is_sorted_and_slots_are_positions() {
        let trace = ArrivalTrace::generate(&TraceSpec::new(6, 20, 7), &manifest());
        assert_eq!(trace.len(), 120);
        for (i, w) in trace.arrivals.windows(2).enumerate() {
            assert!(
                w[0].time < w[1].time
                    || (w[0].time == w[1].time
                        && (w[0].client, w[0].index) < (w[1].client, w[1].index)),
                "canonical order violated at {i}"
            );
        }
        for (i, a) in trace.arrivals.iter().enumerate() {
            assert_eq!(a.slot, i);
        }
    }

    #[test]
    fn per_client_times_increase_and_indices_cover() {
        let trace = ArrivalTrace::generate(&TraceSpec::new(5, 12, 3), &manifest());
        let issue = trace.issue_order();
        assert_eq!(issue.len(), 5);
        for (c, slots) in issue.iter().enumerate() {
            assert_eq!(slots.len(), 12);
            let mut last = -1.0;
            for (j, &s) in slots.iter().enumerate() {
                let a = trace.arrivals[s];
                assert_eq!(a.client, c);
                assert_eq!(a.index, j);
                assert!(a.time > last, "client times must strictly increase");
                last = a.time;
            }
        }
    }

    #[test]
    #[should_panic(expected = "intervals must be finite and positive")]
    fn infinite_interval_rejected() {
        let _ = TraceSpec::new(1, 1, 1).with_intervals(f64::INFINITY, 1e-3);
    }

    #[test]
    fn requests_stay_inside_protocol_invariants() {
        let trace = ArrivalTrace::generate(&TraceSpec::new(16, 32, 99), &manifest());
        let m = manifest();
        for a in &trace.arrivals {
            assert!((a.stager as usize) < m.n_stagers);
            match a.request {
                FrameRequest::Range { start, end } => {
                    assert!(start <= end, "generator must never emit inverted ranges")
                }
                FrameRequest::AtIteration(_) | FrameRequest::Latest => {}
            }
            // Round-trip through the wire codec: what the trace records
            // is a request the wire form carries exactly.
            let wire = a.request.encode();
            assert_eq!(FrameRequest::decode(&wire).unwrap(), a.request);
        }
    }

    #[test]
    fn tier_names_and_policies_are_stable() {
        assert_eq!(QosTier::Premium.name(), "premium");
        assert_eq!(QosTier::Free.name(), "free");
        assert_eq!(QosTier::Premium.policy(), ServePolicy::WaitForFrame);
        assert_eq!(QosTier::Free.policy(), ServePolicy::BestEffort);
    }
}
