//! Fidelity degradation of encoded frame streams.
//!
//! The adaptive serving executor walks the [`Fidelity`] ladder under
//! latency pressure; this module does the actual byte work for each
//! rung: decode the rendered stream, degrade, re-encode. All three
//! degradations are deterministic pure functions of `(stream, fidelity)`
//! — the same inputs produce the same bytes on every rank and every
//! replay, which is what lets degraded runs stay byte-identical across
//! exec policies.
//!
//! * [`Fidelity::Lossy`] re-encodes the pixels through
//!   `Zfpx { tolerance }` (the `apc-compress` fixed-accuracy codec):
//!   every pixel survives, but only to within
//!   [`Zfpx::ERROR_ENVELOPE`](apc_compress::Zfpx::ERROR_ENVELOPE)` ×
//!   tolerance` (4×).
//! * [`Fidelity::Dropped`] keeps only the top `keep_percent` of pixels
//!   by reflectivity score (ties broken by pixel index, so the selection
//!   is total), zeroes the rest, and re-encodes through `Zfpx` (same
//!   envelope for the survivors) — zfpx stores all-zero blocks in one
//!   bit, so the dropped footprint costs almost nothing on the wire.
//! * [`Fidelity::HeaderOnly`] ships a 0×0 frame whose header still
//!   carries the provenance (iteration, stager, triangles, percent).

use apc_store::CodecKind;

use crate::{Fidelity, Frame, ServeError};

/// Re-encode an encoded frame stream at the requested fidelity.
///
/// [`Fidelity::Full`] is the identity (byte-for-byte); every other rung
/// decodes, degrades and re-encodes. Errors are the stream's, not the
/// ladder's: a corrupt input surfaces as [`ServeError::Corrupt`].
pub fn degrade_stream(stream: &[u8], fidelity: Fidelity) -> Result<Vec<u8>, ServeError> {
    match fidelity {
        Fidelity::Full => Ok(stream.to_vec()),
        Fidelity::Lossy { tolerance } => {
            let frame = Frame::decode(stream)?;
            Ok(frame.encode(CodecKind::Zfpx { tolerance }))
        }
        Fidelity::Dropped {
            keep_percent,
            tolerance,
        } => {
            let mut frame = Frame::decode(stream)?;
            drop_low_scores(&mut frame.pixels, keep_percent);
            Ok(frame.encode(CodecKind::Zfpx { tolerance }))
        }
        Fidelity::HeaderOnly => {
            let frame = Frame::decode(stream)?;
            let header = Frame::new(frame.iteration, frame.stager, 0, 0, Vec::new())
                .with_render_info(frame.triangles, frame.percent);
            Ok(header.encode(CodecKind::Raw))
        }
    }
}

/// Zero every pixel outside the top `keep_percent` by score. The keep
/// count rounds up, so any positive percentage keeps at least one pixel;
/// rank ties break by pixel index, keeping the selection deterministic
/// on constant images.
fn drop_low_scores(pixels: &mut [f32], keep_percent: f32) {
    let n = pixels.len();
    if n == 0 {
        return;
    }
    let kp = if keep_percent.is_finite() {
        f64::from(keep_percent).clamp(0.0, 100.0)
    } else {
        0.0
    };
    let keep = ((kp / 100.0 * n as f64).ceil() as usize).min(n);
    if keep == n {
        return;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| pixels[b].total_cmp(&pixels[a]).then(a.cmp(&b)));
    for &i in &order[keep..] {
        pixels[i] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_compress::Zfpx;

    fn sample() -> Frame {
        let pixels: Vec<f32> = (0..64).map(|i| (i as f32 * 0.31).sin() * 40.0).collect();
        Frame::new(700, 2, 8, 8, pixels).with_render_info(4242, 35.0)
    }

    #[test]
    fn full_fidelity_is_identity() {
        let stream = sample().encode(CodecKind::Fpz);
        assert_eq!(degrade_stream(&stream, Fidelity::Full).unwrap(), stream);
    }

    #[test]
    fn lossy_rung_stays_within_tolerance_envelope() {
        let frame = sample();
        let stream = frame.encode(CodecKind::Fpz);
        let degraded = degrade_stream(&stream, Fidelity::Lossy { tolerance: 0.5 }).unwrap();
        let back = Frame::decode(&degraded).unwrap();
        assert_eq!(back.iteration, frame.iteration);
        assert_eq!(back.triangles, frame.triangles);
        for (a, b) in frame.pixels.iter().zip(&back.pixels) {
            assert!((a - b).abs() <= Zfpx::ERROR_ENVELOPE * 0.5, "{a} vs {b}");
        }
    }

    #[test]
    fn dropped_rung_keeps_only_the_top_scores() {
        let frame = sample();
        let stream = frame.encode(CodecKind::Raw);
        let degraded = degrade_stream(
            &stream,
            Fidelity::Dropped {
                keep_percent: 25.0,
                tolerance: 1e-4,
            },
        )
        .unwrap();
        let back = Frame::decode(&degraded).unwrap();
        // The keep threshold: pixels at or above the 16th-highest score
        // survive (to within codec tolerance), the rest decode ≈ 0.
        let mut sorted = frame.pixels.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let cutoff = sorted[15];
        let survivors = back.pixels.iter().filter(|p| p.abs() > 1.0).count();
        assert_eq!(survivors, 16, "25% of 64 pixels survive");
        for (orig, deg) in frame.pixels.iter().zip(&back.pixels) {
            if *orig > cutoff {
                assert!((orig - deg).abs() < 1.0, "kept pixel {orig} became {deg}");
            }
        }
    }

    #[test]
    fn dropped_rung_is_deterministic_on_ties() {
        let frame = Frame::new(1, 0, 4, 4, vec![7.0; 16]);
        let stream = frame.encode(CodecKind::Raw);
        let fid = Fidelity::Dropped {
            keep_percent: 50.0,
            tolerance: 1e-4,
        };
        let a = degrade_stream(&stream, fid).unwrap();
        let b = degrade_stream(&stream, fid).unwrap();
        assert_eq!(a, b);
        // Ties break by index: the *first* half survives.
        let back = Frame::decode(&a).unwrap();
        for (i, p) in back.pixels.iter().enumerate() {
            if i < 8 {
                assert!((p - 7.0).abs() < 0.1, "pixel {i} = {p}");
            } else {
                assert!(p.abs() < 0.1, "pixel {i} = {p}");
            }
        }
    }

    #[test]
    fn header_only_rung_keeps_provenance_and_sheds_pixels() {
        let frame = sample();
        let stream = frame.encode(CodecKind::Fpz);
        let degraded = degrade_stream(&stream, Fidelity::HeaderOnly).unwrap();
        assert!(degraded.len() < stream.len());
        let back = Frame::decode(&degraded).unwrap();
        assert_eq!(back.iteration, frame.iteration);
        assert_eq!(back.stager, frame.stager);
        assert_eq!(back.triangles, frame.triangles);
        assert_eq!(back.percent, frame.percent);
        assert_eq!((back.width, back.height), (0, 0));
        assert!(back.pixels.is_empty());
    }

    #[test]
    fn degraded_streams_shrink_down_the_ladder() {
        let stream = sample().encode(CodecKind::Raw);
        let lossy = degrade_stream(&stream, Fidelity::Lossy { tolerance: 0.5 })
            .unwrap()
            .len();
        let dropped = degrade_stream(
            &stream,
            Fidelity::Dropped {
                keep_percent: 10.0,
                tolerance: 0.5,
            },
        )
        .unwrap()
        .len();
        let header = degrade_stream(&stream, Fidelity::HeaderOnly).unwrap().len();
        assert!(
            lossy < stream.len(),
            "lossy {lossy} vs full {}",
            stream.len()
        );
        assert!(dropped <= lossy, "dropped {dropped} vs lossy {lossy}");
        assert!(header <= dropped, "header {header} vs dropped {dropped}");
    }

    #[test]
    fn corrupt_input_surfaces_as_corrupt() {
        for fid in [Fidelity::Lossy { tolerance: 0.1 }, Fidelity::HeaderOnly] {
            assert!(matches!(
                degrade_stream(&[0xde, 0xad], fid),
                Err(ServeError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn drop_low_scores_edge_percentages() {
        let mut all = vec![1.0, 2.0, 3.0, 4.0];
        drop_low_scores(&mut all, 100.0);
        assert_eq!(all, vec![1.0, 2.0, 3.0, 4.0]);
        let mut none = vec![1.0, 2.0, 3.0, 4.0];
        drop_low_scores(&mut none, 0.0);
        assert_eq!(none, vec![0.0; 4]);
        let mut tiny = vec![1.0, 5.0, 3.0];
        drop_low_scores(&mut tiny, 1.0); // rounds up: keeps the best pixel
        assert_eq!(tiny, vec![0.0, 5.0, 0.0]);
        let mut nan_kp = vec![1.0, 2.0];
        drop_low_scores(&mut nan_kp, f32::NAN); // saturates to keep-none
        assert_eq!(nan_kp, vec![0.0, 0.0]);
        let mut empty: Vec<f32> = vec![];
        drop_low_scores(&mut empty, 50.0);
        assert!(empty.is_empty());
    }
}
