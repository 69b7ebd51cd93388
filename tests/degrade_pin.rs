//! Byte pin of the degrade path: what `degrade_stream` ships for the two
//! rungs that re-encode through `zfpx`, as length + 64-bit FNV-1a.
//!
//! A degraded reply is `Frame::decode` → (drop) → `Frame::encode` through
//! `Zfpx { tolerance }`, so its bytes move with the plane coder, the frame
//! header and `drop_low_scores` alike. `crates/compress/tests/format_pin.rs`
//! pins the codec on raw arrays; this pins it where the serving ladder
//! calls it, at the two fidelities the benchmark's `serve_adaptive`
//! workload probes, over a seeded 40×40 score footprint persisted with
//! `Fpz`. The constants were generated on the per-coefficient plane
//! encoder before the mask-based one replaced it; a mismatch prints the
//! actual rows, but pasting them is a wire-format change — every serving
//! golden and the `serve_adaptive` digest move with it.

use insitu::par::SplitMix64;
use insitu::serve::{degrade_stream, Fidelity, Frame};
use insitu::store::CodecKind;

const LOSSY: Fidelity = Fidelity::Lossy {
    tolerance: 1.096_478_2e-3,
};
const DROPPED: Fidelity = Fidelity::Dropped {
    keep_percent: 12.446_015,
    tolerance: 0.1,
};

/// `(bytes, fnv1a)` of the degraded stream, `[LOSSY, DROPPED]`.
const PINNED: [(usize, u64); 2] = [(3616, 0x678d_d710_7417_be71), (686, 0x0ff9_38e2_11de_8be5)];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A frame shaped like a stager's: block scores under a storm-sized bump,
/// jittered, and zero where the stager rendered nothing (about a third).
fn frame() -> Frame {
    let mut rng = SplitMix64::new(0xDE_64AD);
    let pixels = (0..40 * 40)
        .map(|idx| {
            let (x, y) = ((idx % 40) as f32 - 22.0, (idx / 40) as f32 - 17.0);
            let score = 55.0 * (-(x * x + y * y) / 90.0).exp() + rng.range_f32(0.0, 6.0);
            if rng.below(3) == 0 {
                0.0
            } else {
                score
            }
        })
        .collect();
    Frame::new(700, 3, 40, 40, pixels).with_render_info(123_456, 37.5)
}

#[test]
fn degraded_replies_ship_the_pinned_bytes() {
    let stream = frame().encode(CodecKind::Fpz);
    let actual = [LOSSY, DROPPED].map(|fidelity| {
        let degraded = degrade_stream(&stream, fidelity).expect("a valid frame degrades");
        (degraded.len(), fnv1a(&degraded))
    });
    assert!(
        actual == PINNED,
        "degraded bytes differ from the pin; actual (bytes, fnv1a): {actual:x?} (hex)"
    );
}
