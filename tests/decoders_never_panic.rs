//! One sweep over every decoder that takes bytes from outside the
//! process: the codec streams, the tagged chunk framing, the shard
//! trailer + index, the two metadata documents, the frame stream, both
//! wire messages and the client's reply check.
//!
//! Each row of [`decoders`] names a valid byte image and a decode
//! closure. The sweep feeds the closure **every truncation prefix** and
//! **every single-bit flip** of the image. A flip may decode (the closure
//! checks what a success must still guarantee, e.g. the sample count) or
//! fail with the layer's typed error (where a format promises one error
//! kind, the closure panics on any other); a strict prefix must fail —
//! every format here either carries its own lengths or is decoded against
//! a known shape. A panic anywhere fails the row.
//!
//! One thing the sweep cannot reach from a small valid image: a header
//! that promises far more than the bytes behind it hold.
//! [`oversized_frame_headers_are_corrupt`] feeds the frame decoder those.
//!
//! What a single format promises beyond this — forged shard indexes,
//! half-truncation ⇒ `Corrupt`, unknown tags, inverted ranges, trailing
//! bytes — stays in that crate's own adversarial tests.

use insitu::compress::{FloatCodec, Fpz, Lz77, Zfpx};
use insitu::grid::Dims3;
use insitu::grid::ProcGrid;
use insitu::par::SplitMix64;
use insitu::serve::{
    Fidelity, Frame, FrameReply, FrameRequest, ReplyChecker, RunManifest, ServeError, ServedFrame,
};
use insitu::store::{
    CodecKind, DatasetMeta, MemStore, ShardWriter, ShardedStore, StoreBackend, StoreError,
};

/// `Ok` = decoded and still sane; `Err` = the typed error, rendered.
type Decode = Box<dyn Fn(&[u8]) -> Result<(), String>>;

struct Decoder {
    name: String,
    valid: Vec<u8>,
    decode: Decode,
}

const SHAPE: (usize, usize, usize) = (6, 5, 4);
const N: usize = SHAPE.0 * SHAPE.1 * SHAPE.2;

/// Noisy samples, so every codec emits real content along the whole
/// stream (a smooth field would leave most of it zero bits).
fn noisy(seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..N).map(|_| rng.range_f32(-1e4, 1e4)).collect()
}

/// One codec over one shape. A shape with a zero axis holds no samples,
/// so its valid image is the empty stream: nothing to cut or flip, and
/// the row only checks that it decodes, to an empty vector.
fn codec_row(codec: impl FloatCodec + 'static, shape: (usize, usize, usize)) -> Decoder {
    let n = shape.0 * shape.1 * shape.2;
    Decoder {
        name: format!("codec stream {shape:?} / {}", codec.name()),
        valid: codec.encode(&noisy(0xDEC0)[..n], shape),
        decode: Box::new(move |bytes| {
            let samples = codec.decode(bytes, shape).map_err(|e| e.to_string())?;
            assert_eq!(samples.len(), n, "decoded to the wrong length");
            Ok(())
        }),
    }
}

fn chunk_row(kind: CodecKind) -> Decoder {
    let dims = Dims3::new(SHAPE.0, SHAPE.1, SHAPE.2);
    Decoder {
        name: format!("CodecKind::decode_chunk / {}", kind.name()),
        valid: kind.encode_chunk(&noisy(0xDEC1), dims),
        decode: Box::new(move |bytes| {
            let samples = kind.decode_chunk(bytes, dims).map_err(|e| e.to_string())?;
            assert_eq!(samples.len(), N, "decoded to the wrong length");
            Ok(())
        }),
    }
}

/// A shard container of varied payloads (one empty), read through
/// `ShardedStore`: the first `contains` parses the trailer and index, then
/// every key is read back through it.
fn shard_row() -> Decoder {
    const SHARD_KEY: &str = "c/000000/s000000";
    let mut rng = SplitMix64::new(0xDEC2);
    let mut writer = ShardWriter::new();
    let mut keys = Vec::new();
    for id in 0..6u32 {
        let key = format!("c/000000/{id:06}");
        let len = if id == 1 { 0 } else { rng.below(120) + 1 };
        let payload: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        writer.append(&key, &payload).unwrap();
        keys.push(key);
    }
    Decoder {
        name: "shard trailer + index".into(),
        valid: writer.finish().unwrap(),
        decode: Box::new(move |bytes| {
            let mem = MemStore::new();
            mem.put(SHARD_KEY, bytes).unwrap();
            let store = ShardedStore::new(mem, keys.len());
            match store.contains(&keys[0]) {
                Ok(_) => {}
                Err(e @ (StoreError::Shard(_) | StoreError::Range { .. })) => {
                    return Err(e.to_string())
                }
                Err(other) => panic!("a damaged shard must fail as Shard or Range, got {other}"),
            }
            // Damage that moved entries around within bounds still loads;
            // then every read is data or a typed error.
            for key in &keys {
                let _ = store.get(key);
            }
            Ok(())
        }),
    }
}

/// `meta.json`: every malformed document is `BadMeta`, and one that
/// parses has a geometry whose point counts can be computed.
fn dataset_meta_row(codec: CodecKind, shard_chunks: Option<usize>) -> Decoder {
    let meta = DatasetMeta {
        domain: Dims3::new(80, 80, 16),
        chunk: Dims3::new(10, 10, 8),
        procs: ProcGrid::new(2, 2, 1),
        codec,
        seed: u64::MAX,
        iterations: vec![100, 250, 400],
        shard_chunks,
    };
    Decoder {
        name: format!("DatasetMeta::from_json / {} {shard_chunks:?}", codec.name()),
        valid: meta.to_json().into_bytes(),
        decode: Box::new(|bytes| {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            match DatasetMeta::from_json(text) {
                Ok(meta) => {
                    let _ = (meta.domain.len(), meta.chunk.len(), meta.procs.nranks());
                    let _ = meta.decomp();
                    Ok(())
                }
                Err(StoreError::BadMeta(msg)) => Err(msg),
                Err(other) => panic!("a damaged meta.json must fail as BadMeta, got {other}"),
            }
        }),
    }
}

/// The run manifest: the same field reader, surfacing as `Corrupt`.
fn run_manifest_row(codec: CodecKind, shard_chunks: Option<usize>) -> Decoder {
    let manifest = RunManifest {
        run_id: "run-1".into(),
        n_stagers: 8,
        width: 40,
        height: 40,
        codec,
        iterations: vec![100, 250, 400],
        shard_chunks,
    };
    Decoder {
        name: format!("RunManifest::from_json / {} {shard_chunks:?}", codec.name()),
        valid: manifest.to_json().into_bytes(),
        decode: Box::new(|bytes| {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            corrupt_only(RunManifest::from_json(text))
        }),
    }
}

fn frame_row(codec: CodecKind) -> Decoder {
    let pixels: Vec<f32> = (0..48).map(|i| (i as f32 * 0.7).sin() * 30.0).collect();
    let frame = Frame::new(420, 3, 8, 6, pixels).with_render_info(12345, 62.5);
    Decoder {
        name: format!("Frame::decode / {}", codec.name()),
        valid: frame.encode(codec),
        decode: Box::new(|bytes| {
            let frame = Frame::decode(bytes).map_err(|e| e.to_string())?;
            assert_eq!(
                frame.pixels.len(),
                frame.width as usize * frame.height as usize,
                "decoded frame disagrees with its own dimensions"
            );
            Ok(())
        }),
    }
}

/// Both wire codecs and the run manifest report every malformed input as
/// `Corrupt`.
fn corrupt_only<T>(result: Result<T, ServeError>) -> Result<(), String> {
    match result {
        Ok(_) => Ok(()),
        Err(ServeError::Corrupt(msg)) => Err(msg),
        Err(other) => panic!("decode must fail as Corrupt, got {other}"),
    }
}

fn request_row(request: FrameRequest) -> Decoder {
    Decoder {
        name: format!("FrameRequest::decode / {request:?}"),
        valid: request.encode(),
        decode: Box::new(|bytes| corrupt_only(FrameRequest::decode(bytes))),
    }
}

fn reply_row(reply: FrameReply) -> Decoder {
    Decoder {
        name: format!("FrameReply::decode / {reply:?}"),
        valid: reply.encode(),
        decode: Box::new(|bytes| corrupt_only(FrameReply::decode(bytes))),
    }
}

fn served(iteration: u64, fidelity: Fidelity, stream: Vec<u8>) -> ServedFrame {
    ServedFrame {
        iteration,
        stager: 0,
        cache_hit: iteration.is_multiple_of(2),
        fidelity,
        stream,
    }
}

/// The client's reply check, warmed on the valid image (the sweep decodes
/// it first): on every damaged image it must give a fresh checker's
/// verdict, so a kept stream never lets damage through.
fn checker_row() -> Decoder {
    let pixels: Vec<f32> = (0..48).map(|i| (i as f32 * 0.7).sin() * 30.0).collect();
    let stream = |iteration| Frame::new(iteration, 0, 8, 6, pixels.clone()).encode(CodecKind::Fpz);
    let header = Frame::new(4, 0, 0, 0, Vec::new()).encode(CodecKind::Raw);
    let reply = FrameReply::Frames {
        exact: true,
        frames: vec![
            served(4, Fidelity::Full, stream(4)),
            served(5, Fidelity::Full, stream(5)),
            served(4, Fidelity::HeaderOnly, header),
        ],
    };
    let warm = ReplyChecker::default();
    let check = |checker: &ReplyChecker, bytes: &[u8]| {
        FrameReply::decode(bytes).and_then(|reply| checker.check_reply(reply))
    };
    Decoder {
        name: "ReplyChecker::check_reply, warm".into(),
        valid: reply.encode(),
        decode: Box::new(move |bytes| {
            let fresh = check(&ReplyChecker::default(), bytes).is_ok();
            let verdict = check(&warm, bytes).map(|_| ()).map_err(|e| e.to_string());
            assert_eq!(verdict.is_ok(), fresh, "a warm checker changed the verdict");
            verdict
        }),
    }
}

fn decoders() -> Vec<Decoder> {
    let zfpx = CodecKind::Zfpx { tolerance: 1e-2 };
    let mut rows = vec![
        codec_row(Fpz, SHAPE),
        codec_row(Lz77, SHAPE),
        codec_row(Zfpx { tolerance: 1e-2 }, SHAPE),
        codec_row(Fpz, (0, SHAPE.1, SHAPE.2)),
        codec_row(Zfpx { tolerance: 1e-2 }, (0, SHAPE.1, SHAPE.2)),
        shard_row(),
    ];
    rows.extend([CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz, zfpx].map(chunk_row));
    rows.extend([
        dataset_meta_row(CodecKind::Fpz, None),
        dataset_meta_row(zfpx, Some(64)),
        run_manifest_row(CodecKind::Fpz, None),
        run_manifest_row(zfpx, Some(4)),
    ]);
    rows.extend([CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz, zfpx].map(frame_row));
    rows.extend(
        [
            FrameRequest::Latest,
            FrameRequest::AtIteration(99),
            FrameRequest::Range { start: 4, end: 40 },
        ]
        .map(request_row),
    );
    rows.extend(
        [
            FrameReply::Frames {
                exact: true,
                frames: vec![],
            },
            FrameReply::Frames {
                exact: false,
                frames: vec![served(4, Fidelity::Full, vec![1, 2, 3])],
            },
            FrameReply::Frames {
                exact: true,
                frames: vec![
                    served(1, Fidelity::Lossy { tolerance: 0.25 }, vec![9; 40]),
                    served(
                        2,
                        Fidelity::Dropped {
                            keep_percent: 12.5,
                            tolerance: 0.1,
                        },
                        vec![7; 8],
                    ),
                    served(3, Fidelity::HeaderOnly, vec![]),
                ],
            },
            FrameReply::NotYet,
            FrameReply::NoSuchIteration(u64::MAX),
        ]
        .map(reply_row),
    );
    rows.push(checker_row());
    rows
}

#[test]
fn every_decoder_survives_every_truncation_and_bit_flip() {
    for Decoder {
        name,
        valid,
        decode,
    } in decoders()
    {
        // The sweep proves something about damage, not about the fixture.
        decode(&valid).unwrap_or_else(|e| panic!("{name}: the valid image fails to decode: {e}"));

        for cut in 0..valid.len() {
            assert!(
                decode(&valid[..cut]).is_err(),
                "{name}: the {cut}-byte prefix of {} bytes decoded",
                valid.len()
            );
        }
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&flipped);
        }
    }
}

/// A frame header may claim up to 2²⁸ pixels before `Frame::decode` calls
/// it implausible; over a 16-byte pixel chunk, under every codec tag, that
/// claim is a corrupt stream — decided from the chunk's length, not after
/// sizing a gigabyte from the header.
#[test]
fn oversized_frame_headers_are_corrupt() {
    let (width, height) = (1u32 << 14, 1u32 << 14);
    let small = Frame::new(420, 3, 8, 6, vec![0.5; 48]);
    for codec in [
        CodecKind::Raw,
        CodecKind::Fpz,
        CodecKind::Lz,
        CodecKind::Zfpx { tolerance: 1e-2 },
    ] {
        let mut bytes = small.encode(codec);
        // [version][iteration u64][stager u32][width u32][height u32]…,
        // then the chunk: its tag byte and 15 bytes of payload.
        bytes[13..17].copy_from_slice(&width.to_le_bytes());
        bytes[17..21].copy_from_slice(&height.to_le_bytes());
        bytes.resize(37 + 16, 0xFF);
        match Frame::decode(&bytes) {
            Err(ServeError::Corrupt(_)) => {}
            other => panic!("{}: expected Corrupt, got {other:?}", codec.name()),
        }
    }
}
