//! Latency + bandwidth network cost model.
//!
//! Virtual communication time is `latency + bytes / bandwidth` per message,
//! with standard log-tree factors for collectives. The default constants are
//! Gemini-like (Blue Waters' 3D-torus interconnect): a few microseconds of
//! latency and multi-GB/s per-link bandwidth, which reproduces the paper's
//! observation that redistribution costs ~1 s while rendering costs tens to
//! hundreds of seconds (§IV-D).

/// Cost model of the virtual interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// One-way small-message latency (seconds).
    pub latency: f64,
    /// Point-to-point bandwidth (bytes/second).
    pub bandwidth: f64,
    /// Fixed software overhead charged to a sender per message (seconds).
    pub send_overhead: f64,
    /// Multiplier applied to byte counts before the bandwidth/ingest terms.
    /// Experiments that run a 1:5-per-axis scaled dataset set this to 125
    /// so the virtual network moves full-scale volumes —
    /// the communication analogue of the render model's per-triangle
    /// calibration.
    pub byte_scale: f64,
    /// Receiver-side software cost per (scaled) byte: deserialization and
    /// dataset ingestion. Charged *additively* on the receiver, so many
    /// incoming messages serialize — which is what makes the paper's
    /// redistribution cost ~1 s rather than a pure wire-time estimate.
    pub ingest_per_byte: f64,
}

impl NetModel {
    /// Gemini-like constants (Blue Waters): ~1.5 µs latency, ~4.7 GB/s
    /// per-direction link bandwidth. Pure wire model (no scaling/ingest).
    pub fn blue_waters() -> Self {
        Self {
            latency: 1.5e-6,
            bandwidth: 4.7e9,
            send_overhead: 0.3e-6,
            byte_scale: 1.0,
            ingest_per_byte: 0.0,
        }
    }

    /// A deliberately slow network (commodity GigE-like) used by the
    /// "platforms with lower network performance" discussion in §VI.
    pub fn gigabit_ethernet() -> Self {
        Self {
            latency: 50e-6,
            bandwidth: 117e6,
            send_overhead: 5e-6,
            byte_scale: 1.0,
            ingest_per_byte: 0.0,
        }
    }

    /// Zero-cost network, useful in unit tests that only check plumbing.
    pub fn free() -> Self {
        Self {
            latency: 0.0,
            bandwidth: f64::INFINITY,
            send_overhead: 0.0,
            byte_scale: 1.0,
            ingest_per_byte: 0.0,
        }
    }

    /// Calibration for the 1:5-scale paper dataset: full-scale byte volumes
    /// (125×) plus the ingest cost that reproduces the paper's measured
    /// redistribution time (~1.2 s at 64 ranks when nothing is reduced).
    pub fn for_paper_scale(mut self) -> Self {
        self.byte_scale = 125.0;
        self.ingest_per_byte = 1.05e-8;
        self
    }

    /// Scaled byte count used by bandwidth and ingest terms.
    #[inline]
    pub fn scaled(&self, bytes: usize) -> f64 {
        bytes as f64 * self.byte_scale
    }

    /// Receiver-side software time for a message of `bytes`.
    #[inline]
    pub fn ingest(&self, bytes: usize) -> f64 {
        self.scaled(bytes) * self.ingest_per_byte
    }

    /// Wire time for one point-to-point message of `bytes`.
    #[inline]
    pub fn p2p(&self, bytes: usize) -> f64 {
        self.latency + self.scaled(bytes) / self.bandwidth
    }

    /// `ceil(log2(n))`, the depth of a binomial communication tree.
    #[inline]
    pub fn tree_depth(n: usize) -> u32 {
        debug_assert!(n > 0);
        usize::BITS - (n - 1).leading_zeros()
    }

    /// Barrier: a dissemination barrier of small messages.
    pub fn barrier(&self, nranks: usize) -> f64 {
        Self::tree_depth(nranks) as f64 * self.latency
    }

    /// Broadcast of `bytes` from one root (binomial tree). Metadata-class
    /// traffic: raw bytes, like the other collectives.
    pub fn broadcast(&self, nranks: usize, bytes: usize) -> f64 {
        Self::tree_depth(nranks) as f64 * (self.latency + bytes as f64 / self.bandwidth)
    }

    /// Gather/allgather where `total_bytes` is the sum over all ranks
    /// (ring model: latency term is linear in tree depth, bandwidth term
    /// moves `(n-1)/n` of the data through each rank).
    ///
    /// Collectives carry *metadata* (scores, counters), whose volume does
    /// not grow with the simulated data scale — so collective formulas use
    /// raw bytes, without [`NetModel::byte_scale`]/ingest. Bulk block data
    /// moves through point-to-point messages, which do carry them.
    pub fn allgather(&self, nranks: usize, total_bytes: usize) -> f64 {
        if nranks <= 1 {
            return 0.0;
        }
        let frac = (nranks - 1) as f64 / nranks as f64;
        Self::tree_depth(nranks) as f64 * self.latency + frac * total_bytes as f64 / self.bandwidth
    }

    /// Reduce/allreduce of `bytes` per rank (Rabenseifner-style model:
    /// reduce-scatter + allgather, ~2× allgather bandwidth term).
    pub fn allreduce(&self, nranks: usize, bytes: usize) -> f64 {
        if nranks <= 1 {
            return 0.0;
        }
        let frac = (nranks - 1) as f64 / nranks as f64;
        2.0 * (Self::tree_depth(nranks) as f64 * self.latency
            + frac * bytes as f64 / self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_depth() {
        assert_eq!(NetModel::tree_depth(1), 0);
        assert_eq!(NetModel::tree_depth(2), 1);
        assert_eq!(NetModel::tree_depth(3), 2);
        assert_eq!(NetModel::tree_depth(4), 2);
        assert_eq!(NetModel::tree_depth(64), 6);
        assert_eq!(NetModel::tree_depth(400), 9);
    }

    #[test]
    fn p2p_cost_monotone_in_bytes() {
        let n = NetModel::blue_waters();
        assert!(n.p2p(1 << 20) > n.p2p(1 << 10));
        assert!(n.p2p(0) >= n.latency);
    }

    #[test]
    fn collective_costs_scale_with_ranks() {
        let n = NetModel::blue_waters();
        assert!(n.barrier(400) > n.barrier(64));
        assert!(n.broadcast(400, 1024) > n.broadcast(64, 1024));
        assert_eq!(n.allgather(1, 1024), 0.0);
        assert!(n.allreduce(64, 1024) > 0.0);
    }

    #[test]
    fn free_network_is_free() {
        let n = NetModel::free();
        assert_eq!(n.p2p(1 << 30), 0.0);
    }

    #[test]
    fn ingest_serializes_receives() {
        let n = NetModel::blue_waters().for_paper_scale();
        // 98 incoming full blocks of ~9.2 KB each: ingest dominates and
        // accumulates per message.
        let one = n.ingest(9200);
        assert!((one - 9200.0 * 125.0 * 1.05e-8).abs() < 1e-12);
        assert!(
            98.0 * one > 1.0 && 98.0 * one < 1.5,
            "total = {}",
            98.0 * one
        );
    }
}
