//! The fields the two metadata documents share, read and written once.
//!
//! `meta.json` ([`crate::DatasetMeta`]) and `apc-serve`'s run manifest are
//! flat JSON objects ([`crate::json::parse_object`]) that open with
//! `format` / `version`, carry `codec` (+ `tolerance`) and an optional
//! `shard_chunks` layout, and close with strictly increasing `iterations`.
//! Each is a field list over [`Fields`] (reader) and [`DocWriter`], so
//! every validation and every integer range check exists here only, and
//! whatever a damaged document does wrong is a [`StoreError::BadMeta`].

use std::fmt::Display;

use apc_grid::Dims3;

use crate::codec::CodecKind;
use crate::json::{parse_object, Value};
use crate::StoreError;

const VERSION: i128 = 1;

fn bad(key: &str, value: &Value) -> StoreError {
    StoreError::BadMeta(format!("bad {key} field {value:?}"))
}

/// A parsed metadata document whose `format` and `version` checked out.
pub struct Fields(Vec<(String, Value)>);

impl Fields {
    /// Parse `text` as a version-1 document of `format`.
    pub fn parse(text: &str, format: &str) -> Result<Self, StoreError> {
        let doc = Self(parse_object(text).map_err(StoreError::BadMeta)?);
        if doc.str("format")? != format {
            return Err(bad("format", doc.get("format")?));
        }
        match doc.get("version")? {
            Value::Int(VERSION) => Ok(doc),
            other => Err(StoreError::BadMeta(format!(
                "unsupported version {other:?}"
            ))),
        }
    }

    fn find(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get(&self, key: &str) -> Result<&Value, StoreError> {
        self.find(key)
            .ok_or_else(|| StoreError::BadMeta(format!("missing field {key:?}")))
    }

    pub fn str(&self, key: &str) -> Result<&str, StoreError> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            other => Err(bad(key, other)),
        }
    }

    /// A non-negative integer that fits `T` (`usize` counts, the `u64`
    /// seed): out-of-range values are rejected, never truncated.
    pub fn uint<T: TryFrom<i128>>(&self, key: &str) -> Result<T, StoreError> {
        match self.get(key)? {
            value @ Value::Int(v) if *v >= 0 => T::try_from(*v).map_err(|_| bad(key, value)),
            other => Err(bad(key, other)),
        }
    }

    fn uints(&self, key: &str) -> Result<Vec<usize>, StoreError> {
        let value = self.get(key)?;
        let Value::Arr(items) = value else {
            return Err(bad(key, value));
        };
        items
            .iter()
            .map(|&v| usize::try_from(v).map_err(|_| bad(key, value)))
            .collect()
    }

    /// Three axis lengths whose product — the point count every consumer
    /// computes — fits a `usize`.
    pub fn dims3(&self, key: &str) -> Result<Dims3, StoreError> {
        match self.uints(key)?[..] {
            [nx, ny, nz] if nx.checked_mul(ny).and_then(|p| p.checked_mul(nz)).is_some() => {
                Ok(Dims3::new(nx, ny, nz))
            }
            _ => Err(bad(key, self.get(key)?)),
        }
    }

    /// `codec`, with the optional `tolerance` of a lossy one, narrowed to
    /// the `f32` the codec takes (`1e39` is `inf` there, and refused).
    pub fn codec(&self) -> Result<CodecKind, StoreError> {
        let tolerance = match self.find("tolerance") {
            Some(Value::Float(f)) => Some(*f as f32),
            Some(Value::Int(i)) => Some(*i as f32),
            Some(other) => return Err(bad("tolerance", other)),
            None => None,
        };
        CodecKind::from_name(self.str("codec")?, tolerance)
    }

    /// `iterations`, strictly increasing.
    pub fn iterations(&self) -> Result<Vec<usize>, StoreError> {
        let iterations = self.uints("iterations")?;
        check_iterations(&iterations)?;
        Ok(iterations)
    }

    /// The recorded layout: absent (`None`, one key per value) or
    /// `shard_chunks ≥ 1` values per shard container — what
    /// [`crate::layout::reader`] and [`crate::LayoutWriter`] take.
    pub fn shard_chunks(&self) -> Result<Option<usize>, StoreError> {
        const KEY: &str = "shard_chunks";
        match self.find(KEY) {
            None => Ok(None),
            Some(zero @ Value::Int(0)) => Err(bad(KEY, zero)),
            Some(_) => self.uint(KEY).map(Some),
        }
    }
}

/// The `iterations` rule [`Fields::iterations`] reads by: strictly
/// increasing. Each writer checks it before it writes, so no document it
/// writes is one its reader rejects.
pub fn check_iterations(iterations: &[usize]) -> Result<(), StoreError> {
    if iterations.windows(2).all(|w| w[1] > w[0]) {
        Ok(())
    } else {
        Err(StoreError::BadMeta(
            "iterations must be strictly increasing".to_owned(),
        ))
    }
}

/// Writes a document [`Fields`] reads back: `format` and `version` first,
/// the caller's own fields in call order, `iterations` last.
pub struct DocWriter(String);

impl DocWriter {
    pub fn new(format: &str) -> Self {
        let mut doc = Self("{\n".to_owned());
        doc.str_field("format", format);
        doc.field("version", VERSION);
        doc
    }

    pub fn field(&mut self, key: &str, value: impl Display) {
        self.0.push_str(&format!("  \"{key}\": {value},\n"));
    }

    /// A string field. The parser has no escape sequences, so `value` must
    /// not contain `"` or `\` (codec names and validated run ids do not).
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.field(key, format_args!("\"{value}\""));
    }

    /// `codec` (+ `tolerance`) and the `shard_chunks` layout.
    pub fn codec_and_layout(&mut self, codec: CodecKind, shard_chunks: Option<usize>) {
        self.str_field("codec", codec.name());
        if let Some(tolerance) = codec.tolerance() {
            self.field("tolerance", tolerance);
        }
        if let Some(n) = shard_chunks {
            self.field("shard_chunks", n);
        }
    }

    /// Close the document with its `iterations`.
    pub fn finish(mut self, iterations: &[usize]) -> String {
        let iters: Vec<String> = iterations.iter().map(|i| i.to_string()).collect();
        self.0
            .push_str(&format!("  \"iterations\": [{}]\n}}", iters.join(", ")));
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document of format `t` with the shared fields valid and `extra`
    /// spliced in before them.
    fn doc(extra: &str) -> String {
        format!(
            "{{\"format\": \"t\", \"version\": 1, {extra}\"codec\": \"raw\", \"iterations\": [1, 2]}}"
        )
    }

    fn parse(extra: &str) -> Fields {
        Fields::parse(&doc(extra), "t").unwrap()
    }

    fn is_bad<T>(result: Result<T, StoreError>) -> bool {
        matches!(result, Err(StoreError::BadMeta(_)))
    }

    #[test]
    fn format_and_version_are_checked_at_parse() {
        assert!(Fields::parse(&doc(""), "t").is_ok());
        assert!(is_bad(Fields::parse(&doc(""), "other")));
        for text in [
            "",
            "{",
            "{}",
            "not json at all",
            "{\"format\": \"t\"}",
            "{\"format\": 1, \"version\": 1}",
            "{\"format\": \"t\", \"version\": 99}",
            "{\"format\": \"t\", \"version\": \"1\"}",
        ] {
            assert!(is_bad(Fields::parse(text, "t")), "accepted {text:?}");
        }
    }

    #[test]
    fn writer_output_reads_back() {
        let mut w = DocWriter::new("t");
        w.str_field("name", "run-1");
        w.field("n", 7);
        w.codec_and_layout(CodecKind::Zfpx { tolerance: 0.25 }, Some(16));
        let doc = Fields::parse(&w.finish(&[3, 9]), "t").unwrap();
        assert_eq!(doc.str("name").unwrap(), "run-1");
        assert_eq!(doc.uint::<usize>("n").unwrap(), 7);
        assert_eq!(doc.codec().unwrap(), CodecKind::Zfpx { tolerance: 0.25 });
        assert_eq!(doc.shard_chunks().unwrap(), Some(16));
        assert_eq!(doc.iterations().unwrap(), [3, 9]);
        // Absent optional fields stay absent (documents of older writers).
        let mut w = DocWriter::new("t");
        w.codec_and_layout(CodecKind::Fpz, None);
        let doc = Fields::parse(&w.finish(&[]), "t").unwrap();
        assert_eq!(doc.codec().unwrap(), CodecKind::Fpz);
        assert_eq!(doc.shard_chunks().unwrap(), None);
        assert!(doc.iterations().unwrap().is_empty());
    }

    #[test]
    fn integers_are_range_checked_not_truncated() {
        // 2^65 does not fit a usize; it used to truncate to 0.
        let doc = parse("\"n\": 36893488147419103232, \"neg\": -1, \"s\": \"x\", ");
        assert!(is_bad(doc.uint::<usize>("n")));
        assert!(is_bad(doc.uint::<usize>("neg")));
        assert!(is_bad(doc.uint::<i64>("neg")), "non-negative whatever T is");
        assert!(is_bad(doc.uint::<usize>("s")));
        assert!(is_bad(doc.uint::<usize>("absent")));
        assert!(is_bad(doc.str("n")));
        // The whole u64 range is one.
        let doc = parse("\"seed\": 18446744073709551615, \"over\": 18446744073709551616, ");
        assert_eq!(doc.uint::<u64>("seed").unwrap(), u64::MAX);
        assert!(is_bad(doc.uint::<u64>("over")));
    }

    #[test]
    fn dims_need_three_axes_and_a_product_that_fits() {
        let doc = parse(
            "\"ok\": [80, 80, 16], \"two\": [4, 4], \"neg\": [4, -4, 4], \"scalar\": 4,
             \"huge\": [4294967296, 4294967296, 4294967296],
             \"wide\": [36893488147419103232, 1, 1], ",
        );
        assert_eq!(doc.dims3("ok").unwrap(), Dims3::new(80, 80, 16));
        for key in ["two", "neg", "scalar", "huge", "wide", "absent"] {
            assert!(is_bad(doc.dims3(key)), "{key}");
        }
    }

    #[test]
    fn codec_tolerance_iterations_and_layout_are_validated() {
        assert_eq!(parse("").codec().unwrap(), CodecKind::Raw);
        assert!(is_bad(parse("\"tolerance\": \"tight\", ").codec()));
        // Finite as an f64 is not enough: 1e39 is `inf` as the f32 the
        // codec takes, and the chunks it wrote would not decode.
        for tolerance in ["1e39", "-1e39", "-0.5", "-1"] {
            let doc = parse(&format!("\"tolerance\": {tolerance}, "));
            assert!(is_bad(doc.codec()), "{tolerance}");
        }
        let loosest =
            "{\"format\": \"t\", \"version\": 1, \"codec\": \"zfpx\", \"tolerance\": 3e38}";
        assert_eq!(
            Fields::parse(loosest, "t").unwrap().codec().unwrap(),
            CodecKind::Zfpx { tolerance: 3e38 }
        );
        let unknown = "{\"format\": \"t\", \"version\": 1, \"codec\": \"gzip\"}";
        assert!(is_bad(Fields::parse(unknown, "t").unwrap().codec()));

        for iterations in ["[5, 2]", "[2, 2]", "[-1]", "7", "[36893488147419103232]"] {
            let text =
                format!("{{\"format\": \"t\", \"version\": 1, \"iterations\": {iterations}}}");
            assert!(
                is_bad(Fields::parse(&text, "t").unwrap().iterations()),
                "{iterations}"
            );
        }

        assert_eq!(
            parse("\"shard_chunks\": 1, ").shard_chunks().unwrap(),
            Some(1)
        );
        // A nonsense layout is rejected, not clamped.
        for layout in ["0", "-4", "\"many\"", "36893488147419103232"] {
            let doc = parse(&format!("\"shard_chunks\": {layout}, "));
            assert!(is_bad(doc.shard_chunks()), "{layout}");
        }
    }
}
