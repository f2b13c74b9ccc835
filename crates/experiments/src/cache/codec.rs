//! The cell-file format, in both directions: the one place that knows
//! the bytes of a `cell-*.json` file.
//!
//! A cell file is one line of compact JSON with a fixed schema — the
//! key, then the [`TripleResult`], then the prediction vector:
//!
//! ```text
//! {"fingerprint":u64,"cluster":"…","triple":"…","result":{"triple":"…",
//! "predictor":"…","correction":null|"…","variant":"…","ave_bsld":f64,
//! "max_bsld":f64,"extreme_fraction":f64,"mean_wait":f64,
//! "utilization":f64,"corrections":u64,"mae":f64,"mean_eloss":f64},
//! "predictions":[i64,…]}
//! ```
//!
//! [`encode`] writes exactly what the vendored `serde_json::to_string`
//! wrote for the same cell — integers in decimal, floats in Rust's
//! shortest round-trip form with `.0` appended when that has no `.` or
//! exponent (a non-finite float as `null`), strings with `\"`, `\\`,
//! `\n`, `\r`, `\t` and `\u00XX` escapes — so cache directories written
//! before and after this module stay interchangeable.
//!
//! [`decode`] is a bounded cursor over that layout and nothing else: it
//! accepts a file only if [`encode`] writes exactly those bytes for the
//! cell it reads. So keys come in that order, with no whitespace, only
//! the escapes [`encode`] writes, no raw control character in a string,
//! every number spelt as the writer spells it (no leading zero, no
//! `-0`, floats exactly as printed), and no trailing byte. It compares
//! the key as soon as it has read it, before the prediction vector, and
//! builds no intermediate tree. Floats are parsed by the standard
//! library from the same token the vendored parser takes, so every
//! value it accepts is bit-identical to what that parser reads from the
//! same bytes (`-0.0` included). Anything else is `None`, and the
//! caller rejects the file.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

use super::{CachedCell, CellKey};
use crate::campaign::TripleResult;

/// The cell file for `key`'s `result` and `predictions`.
pub(super) fn encode(key: &CellKey, result: &TripleResult, predictions: &[i64]) -> String {
    // ≈ 250 bytes of key and aggregates, then a few digits and a comma
    // per prediction.
    let mut out = String::with_capacity(256 + 8 * predictions.len());
    let _ = write!(out, "{{\"fingerprint\":{},\"cluster\":", key.fingerprint);
    push_str(&mut out, &key.cluster);
    out.push_str(",\"triple\":");
    push_str(&mut out, &key.triple);
    out.push_str(",\"result\":{\"triple\":");
    push_str(&mut out, &result.triple);
    out.push_str(",\"predictor\":");
    push_str(&mut out, &result.predictor);
    out.push_str(",\"correction\":");
    match &result.correction {
        Some(correction) => push_str(&mut out, correction),
        None => out.push_str("null"),
    }
    out.push_str(",\"variant\":");
    push_str(&mut out, &result.variant);
    for (name, value) in [
        ("ave_bsld", result.ave_bsld),
        ("max_bsld", result.max_bsld),
        ("extreme_fraction", result.extreme_fraction),
        ("mean_wait", result.mean_wait),
        ("utilization", result.utilization),
    ] {
        let _ = write!(out, ",\"{name}\":");
        push_f64(&mut out, value);
    }
    let _ = write!(out, ",\"corrections\":{},\"mae\":", result.corrections);
    push_f64(&mut out, result.mae);
    out.push_str(",\"mean_eloss\":");
    push_f64(&mut out, result.mean_eloss);
    out.push_str("},\"predictions\":[");
    for (i, prediction) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{prediction}");
    }
    out.push_str("]}");
    out
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// `key`'s cell, if `bytes` is a cell file in the layout [`encode`]
/// writes and holds exactly that key (see the module docs).
pub(super) fn decode(bytes: &[u8], key: &CellKey) -> Option<CachedCell> {
    let mut c = Cursor {
        text: std::str::from_utf8(bytes).ok()?,
        pos: 0,
    };
    let key_matches = c.field("{\"fingerprint\":", Cursor::u64)? == key.fingerprint
        && c.field(",\"cluster\":", Cursor::string)? == key.cluster
        && c.field(",\"triple\":", Cursor::string)? == key.triple;
    if !key_matches {
        return None;
    }
    let result = TripleResult {
        triple: c.field(",\"result\":{\"triple\":", Cursor::owned)?,
        predictor: c.field(",\"predictor\":", Cursor::owned)?,
        correction: c.field(",\"correction\":", Cursor::nullable)?,
        variant: c.field(",\"variant\":", Cursor::owned)?,
        ave_bsld: c.field(",\"ave_bsld\":", Cursor::f64)?,
        max_bsld: c.field(",\"max_bsld\":", Cursor::f64)?,
        extreme_fraction: c.field(",\"extreme_fraction\":", Cursor::f64)?,
        mean_wait: c.field(",\"mean_wait\":", Cursor::f64)?,
        utilization: c.field(",\"utilization\":", Cursor::f64)?,
        corrections: c.field(",\"corrections\":", Cursor::u64)?,
        mae: c.field(",\"mae\":", Cursor::f64)?,
        mean_eloss: c.field(",\"mean_eloss\":", Cursor::f64)?,
    };
    let predictions = c.field("},\"predictions\":[", Cursor::i64_array)?;
    // The closing brace, and nothing after it.
    if &c.text[c.pos..] != "}" {
        return None;
    }
    Some(CachedCell {
        result,
        predictions: Some(Arc::new(predictions)),
    })
}

/// A read position in a cell file. Every step either consumes what the
/// layout says comes next or returns `None`; it never reads past the
/// end.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `lit` if the text continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if found {
            self.pos += lit.len();
        }
        found
    }

    fn lit(&mut self, lit: &str) -> Option<()> {
        self.eat(lit).then_some(())
    }

    /// A number token: an optional `-`, then any run of digits, `.`,
    /// `e`, `E`, `+` and `-`. Callers accept only the writer's spellings
    /// of it, each a JSON number the vendored parser reads whole.
    fn number(&mut self) -> &'a str {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// An unsigned integer spelt as the writer spells one: digits, no
    /// leading zero.
    fn u64(&mut self) -> Option<u64> {
        let token = self.number();
        let canonical =
            token == "0" || (!token.starts_with('0') && token.bytes().all(|b| b.is_ascii_digit()));
        token.parse().ok().filter(|_| canonical)
    }

    /// The elements of an `i64` array and its closing `]`, from just
    /// after its `[`: the hot loop of a disk hit, one pass over the
    /// digits with no token slicing. An element is spelt as the writer
    /// spells it — an optional `-`, then 1 to 19 digits with no leading
    /// zero (every `i64` fits), not `-0` — and followed by `,` or `]`;
    /// so `1.5`, `2e3` and `7-1` are refused here, as the vendored
    /// parser refuses each for an integer field too.
    fn i64_array(&mut self) -> Option<Vec<i64>> {
        let bytes = &self.text.as_bytes()[self.pos..];
        // One element per comma, plus one: the vector gets its final
        // size up front, bounded by the file's length.
        let mut values = Vec::with_capacity(bytes.iter().filter(|&&b| b == b',').count() + 1);
        let mut i = 0;
        if bytes.first() == Some(&b']') {
            self.pos += 1;
            return Some(values);
        }
        loop {
            let negative = bytes.get(i) == Some(&b'-');
            i += usize::from(negative);
            let start = i;
            let mut magnitude = 0u64;
            while let Some(&b) = bytes.get(i) {
                let digit = b.wrapping_sub(b'0');
                if digit > 9 {
                    break;
                }
                // Cannot wrap within the 19 digits accepted below.
                magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(digit));
                i += 1;
            }
            let digits = i - start;
            if !(1..=19).contains(&digits) || (digits > 1 && bytes[start] == b'0') {
                return None;
            }
            values.push(match negative {
                false => i64::try_from(magnitude).ok()?,
                true if (1..=i64::MIN.unsigned_abs()).contains(&magnitude) => {
                    0i64.wrapping_sub_unsigned(magnitude)
                }
                true => return None,
            });
            match bytes.get(i) {
                Some(b',') => i += 1,
                Some(b']') => break,
                _ => return None,
            }
        }
        self.pos += i + 1;
        Some(values)
    }

    /// A float spelt exactly as the writer spells it: the token must
    /// parse to a finite value that prints back as the same token. So
    /// `3`, `-0`, `1.50`, `1.5e0` and `null` are refused, and the token
    /// is one the vendored parser reads as a float, to the same bits.
    fn f64(&mut self) -> Option<f64> {
        let token = self.number();
        let value: f64 = token.parse().ok()?;
        let mut canonical = String::with_capacity(token.len());
        push_f64(&mut canonical, value);
        (canonical == token).then_some(value)
    }

    /// The value `read` finds after the literal `lit` (a field's
    /// separator and name). Struct fields initialise in source order, so
    /// a `TripleResult` literal of `field` calls reads the file in order.
    fn field<T>(&mut self, lit: &str, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        self.lit(lit)?;
        read(self)
    }

    fn owned(&mut self) -> Option<String> {
        self.string().map(Cow::into_owned)
    }

    /// `null` or a string.
    fn nullable(&mut self) -> Option<Option<String>> {
        match self.eat("null") {
            true => Some(None),
            false => self.owned().map(Some),
        }
    }

    /// A string, borrowed from the file unless it holds an escape.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        self.lit("\"")?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.peek()? {
                quote_or_escape @ (b'"' | b'\\') => {
                    let plain = &self.text[run..self.pos];
                    self.pos += 1;
                    if quote_or_escape == b'"' {
                        return Some(match owned {
                            None => Cow::Borrowed(plain),
                            Some(mut s) => {
                                s.push_str(plain);
                                Cow::Owned(s)
                            }
                        });
                    }
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(plain);
                    s.push(self.escape()?);
                    run = self.pos;
                }
                0..=0x1f => return None,
                _ => self.pos += 1,
            }
        }
    }

    /// The character a `\` escape after the cursor stands for — only
    /// the escapes [`encode`] writes.
    fn escape(&mut self) -> Option<char> {
        let b = self.peek()?;
        self.pos += 1;
        Some(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = |d: u8| match d {
                    b'0'..=b'9' => Some(d - b'0'),
                    b'a'..=b'f' => Some(d - b'a' + 10),
                    _ => None,
                };
                let code = match *self.text.as_bytes().get(self.pos..self.pos + 4)? {
                    [b'0', b'0', hi, lo] => hex(hi)? * 16 + hex(lo)?,
                    _ => return None,
                };
                self.pos += 4;
                // Above U+001F, and for `\n`, `\r` and `\t`, the writer
                // writes the character itself or its short escape.
                if code >= 0x20 || matches!(code, b'\n' | b'\r' | b'\t') {
                    return None;
                }
                char::from(code)
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize, Value};

    /// A cell file as the vendored serde derive writes and reads it: the
    /// reference for both directions.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Vendored {
        fingerprint: u64,
        cluster: String,
        triple: String,
        result: TripleResult,
        predictions: Vec<i64>,
    }

    impl Vendored {
        fn key(&self) -> CellKey {
            CellKey {
                fingerprint: self.fingerprint,
                cluster: self.cluster.clone(),
                triple: self.triple.clone(),
            }
        }

        fn encode(&self) -> String {
            encode(&self.key(), &self.result, &self.predictions)
        }
    }

    /// Equality with every float compared by its bits (`0.0` ≠ `-0.0`).
    fn same_result(a: &TripleResult, b: &TripleResult) -> bool {
        let bits = |r: &TripleResult| {
            [
                r.ave_bsld,
                r.max_bsld,
                r.extreme_fraction,
                r.mean_wait,
                r.utilization,
                r.mae,
                r.mean_eloss,
            ]
            .map(f64::to_bits)
        };
        a == b && bits(a) == bits(b)
    }

    /// Whatever `decode` accepts as `key`'s cell, the vendored parser
    /// reads from the same bytes as that key's cell, bit for bit, and
    /// the writer writes as exactly those bytes.
    fn agrees_with_vendored(bytes: &[u8], key: &CellKey) -> Result<(), TestCaseError> {
        let Some(ours) = decode(bytes, key) else {
            return Ok(());
        };
        let theirs = vendored_read(bytes);
        prop_assert!(
            theirs.is_some(),
            "accepted what the vendored parser refuses: {:?}",
            String::from_utf8_lossy(bytes)
        );
        let theirs = theirs.unwrap();
        prop_assert!(theirs.key() == *key, "{:?} under key {:?}", theirs, key);
        prop_assert!(
            same_result(&ours.result, &theirs.result),
            "{:?} != {:?}",
            ours.result,
            theirs.result
        );
        prop_assert_eq!(ours.predictions.as_deref(), Some(&theirs.predictions));
        prop_assert!(
            theirs.encode().as_bytes() == bytes,
            "accepted bytes the writer does not write: {:?}",
            String::from_utf8_lossy(bytes)
        );
        Ok(())
    }

    fn vendored_read(bytes: &[u8]) -> Option<Vendored> {
        let text = std::str::from_utf8(bytes).ok()?;
        serde_json::from_str(text).ok()
    }

    /// [`agrees_with_vendored`] under `key` and under the key the
    /// vendored parser reads from `bytes`, if it reads one.
    fn sound(bytes: &[u8], key: &CellKey) -> Result<(), TestCaseError> {
        agrees_with_vendored(bytes, key)?;
        if let Some(theirs) = vendored_read(bytes) {
            agrees_with_vendored(bytes, &theirs.key())?;
        }
        Ok(())
    }

    /// The encoding is the vendored writer's, byte for byte, and decodes
    /// back to the same cell under its own key and under no other.
    fn round_trips(cell: &Vendored) -> Result<(), TestCaseError> {
        let text = cell.encode();
        prop_assert_eq!(&text, &serde_json::to_string(cell).unwrap());
        let key = cell.key();
        let decoded = decode(text.as_bytes(), &key);
        prop_assert!(decoded.is_some(), "its own encoding refused: {}", text);
        let decoded = decoded.unwrap();
        prop_assert!(
            same_result(&decoded.result, &cell.result),
            "{:?} != {:?}",
            decoded.result,
            cell.result
        );
        prop_assert_eq!(decoded.predictions.as_deref(), Some(&cell.predictions));
        let others = [
            CellKey {
                fingerprint: key.fingerprint ^ 1,
                ..key.clone()
            },
            CellKey {
                cluster: format!("{}x", key.cluster),
                ..key.clone()
            },
            CellKey {
                triple: format!("x{}", key.triple),
                ..key.clone()
            },
        ];
        for other in &others {
            prop_assert!(decode(text.as_bytes(), other).is_none(), "{:?}", other);
        }
        Ok(())
    }

    /// Every proper prefix is refused; edited files and arbitrary bytes
    /// never panic the decoder and are accepted only as the vendored
    /// parser reads them.
    fn survives_damage(
        cell: &Vendored,
        edits: &[(u8, usize, u8)],
        noise: &[u8],
    ) -> Result<(), TestCaseError> {
        let key = cell.key();
        let bytes = cell.encode().into_bytes();
        for end in 0..bytes.len() {
            prop_assert!(decode(&bytes[..end], &key).is_none(), "prefix of {}", end);
        }
        let mut edited = bytes.clone();
        for &(kind, at, byte) in edits {
            let at = at % (edited.len() + 1);
            match kind {
                0 if at < edited.len() => edited[at] = byte,
                1 => edited.insert(at, byte),
                _ if at < edited.len() => {
                    edited.remove(at);
                }
                _ => {}
            }
        }
        sound(&edited, &key)?;
        sound(noise, &key)?;
        let mut spliced = bytes[..noise.len() % (bytes.len() + 1)].to_vec();
        spliced.extend_from_slice(noise);
        sound(&spliced, &key)
    }

    /// String pieces: what the writer escapes, JSON's own syntax,
    /// multi-byte characters and real names.
    const PIECES: &[&str] = &[
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "\u{7f}",
        "/",
        "\\u0041",
        "é",
        "€",
        "😀",
        "\u{2028}",
        ":",
        ",",
        "{}",
        "[]",
        "null",
        " ",
        "easy-sjbf",
        "ml(u=lin,o=sq,g=q/p)",
        "cluster:64x1+32x0.5",
    ];

    fn text() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            (0..PIECES.len()).prop_map(|i| PIECES[i].to_string()),
            (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}').to_string()),
        ];
        prop::collection::vec(piece, 0..8).prop_map(|pieces| pieces.concat())
    }

    const LARGEST_SUBNORMAL: f64 = f64::from_bits(0x000F_FFFF_FFFF_FFFF);

    /// The float edge cases by name.
    const FLOATS: &[f64] = &[
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        LARGEST_SUBNORMAL,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e308,
        1e16,
        1e-7,
        0.1,
        1.0,
        -1.5,
    ];

    /// Finite floats: an edge case, or any bit pattern (a non-finite one
    /// folded onto `-0.0`).
    fn float() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0..FLOATS.len()).prop_map(|i| FLOATS[i]),
            (0..=u64::MAX).prop_map(|bits| {
                let f = f64::from_bits(bits);
                if f.is_finite() {
                    f
                } else {
                    -0.0
                }
            }),
        ]
    }

    fn count() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), Just(u64::MAX), 0..10_000u64, 0..=u64::MAX]
    }

    fn cell() -> impl Strategy<Value = Vendored> {
        let prediction = prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(0),
            -1_000..100_000i64,
            i64::MIN..=i64::MAX,
        ];
        let predictions = prop_oneof![Just(Vec::new()), prop::collection::vec(prediction, 0..48)];
        let names = (
            text(),
            text(),
            prop_oneof![Just(None), text().prop_map(Some)],
            text(),
        );
        let floats = prop::collection::vec(float(), 7..8);
        (
            (count(), text(), text()),
            names,
            floats,
            count(),
            predictions,
        )
            .prop_map(
                |((fingerprint, cluster, triple), names, f, corrections, predictions)| {
                    let (name, predictor, correction, variant) = names;
                    Vendored {
                        fingerprint,
                        cluster,
                        triple,
                        result: TripleResult {
                            triple: name,
                            predictor,
                            correction,
                            variant,
                            ave_bsld: f[0],
                            max_bsld: f[1],
                            extreme_fraction: f[2],
                            mean_wait: f[3],
                            utilization: f[4],
                            corrections,
                            mae: f[5],
                            mean_eloss: f[6],
                        },
                        predictions,
                    }
                },
            )
    }

    /// Bytes for edits and noise: any byte, or one of the layout's own.
    fn byte() -> impl Strategy<Value = u8> {
        let syntax = b"0123456789-.eE+,:\"\\[]{}nul ";
        prop_oneof![0..=255u8, (0..syntax.len()).prop_map(move |i| syntax[i])]
    }

    fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
        prop::collection::vec((0..3u8, 0..100_000usize, byte()), 1..4)
    }

    fn noise() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(byte(), 0..600)
    }

    /// The named edge cases, in one cell: escapes and non-ASCII in every
    /// string, `-0.0`, subnormals, `f64::MAX` and `1e308`, the `i64`
    /// extremes, `u64::MAX` as the fingerprint, no correction; and the
    /// same cell with no predictions at all.
    #[test]
    fn edge_values_round_trip_through_the_vendored_layout() {
        let mut cell = Vendored {
            fingerprint: u64::MAX,
            cluster: "cluster:64x1+32x0.5 \"q\" \\ /".into(),
            triple: "ml(u=lin,o=sq,g=q/p)+req-time+easy-sjbf\n\r\t\u{0}\u{1f}\u{7f}".into(),
            result: TripleResult {
                triple: "é€😀\u{2028}".into(),
                predictor: "\\u0041".into(),
                correction: None,
                variant: "".into(),
                ave_bsld: -0.0,
                max_bsld: 5e-324,
                extreme_fraction: LARGEST_SUBNORMAL,
                mean_wait: f64::MAX,
                utilization: 1e308,
                corrections: u64::MAX,
                mae: 0.0,
                mean_eloss: -1.5,
            },
            predictions: vec![i64::MIN, -1, 0, 1, i64::MAX],
        };
        round_trips(&cell).unwrap();
        let text = cell.encode();
        assert!(text.contains(r#""ave_bsld":-0.0,"#), "{text}");
        assert!(text.contains(r#""predictions":[-9223372036854775808,-1,0,1,9223372036854775807]"#));
        cell.predictions.clear();
        cell.result.correction = Some("\u{1}".into());
        round_trips(&cell).unwrap();
        assert!(cell.encode().ends_with(r#""predictions":[]}"#));
    }

    /// The reader takes the writer's layout and nothing else, even where
    /// the vendored parser reads the same cell from the other bytes.
    #[test]
    fn departures_from_the_layout_are_refused() {
        let cell = Vendored {
            fingerprint: 7,
            cluster: "single:64/a".into(),
            triple: "A".into(),
            result: TripleResult {
                triple: "A".into(),
                predictor: "requested".into(),
                correction: Some("req-time".into()),
                variant: "easy".into(),
                ave_bsld: 3.0,
                max_bsld: 12.5,
                extreme_fraction: 0.0,
                mean_wait: 100.25,
                utilization: 0.5,
                corrections: 2,
                mae: 1.0,
                mean_eloss: 2.0,
            },
            predictions: vec![10, -20, 30],
        };
        let key = cell.key();
        let text = cell.encode();
        assert!(decode(text.as_bytes(), &key).is_some());
        let value: Value = serde_json::from_str(&text).unwrap();
        let Value::Map(entries) = &value else {
            panic!("a cell file is an object")
        };
        let reordered = Value::Map(entries.iter().rev().cloned().collect());
        let same_cell_elsewhere = [
            serde_json::to_string_pretty(&value).unwrap(),
            serde_json::to_string(&reordered).unwrap(),
            text.replacen(':', ": ", 1),
            format!(" {text}"),
            format!("{text}\n"),
            text.replace('/', "\\/"),
            text.replace("\"A\"", "\"\\u0041\""),
            text.replace("3.0", "3"),
            text.replace("12.5", "1.25e1"),
            text.replace("100.25", "100.250"),
        ];
        for other in &same_cell_elsewhere {
            assert!(decode(other.as_bytes(), &key).is_none(), "{other}");
            let theirs = vendored_read(other.as_bytes()).expect(other);
            assert!(same_result(&theirs.result, &cell.result), "{other}");
        }
        for broken in [
            text.replace("3.0", "null"),
            text.replace("\"A\"", "\"\\q\""),
            text.replace("[10,", "[1.0,"),
            text.replace("[10,", "[10,,"),
            text.replace("[10,", "[-0,"),
            text.replace("0.0", "-0"),
            format!("{text}}}"),
            text.replace("single", "sin\u{1}gle"),
            text.replace("[10,", "[010,"),
            text.replace("\"corrections\":2", "\"corrections\":02"),
        ] {
            assert!(decode(broken.as_bytes(), &key).is_none(), "{broken}");
        }
    }

    proptest! {
        #[test]
        fn cells_round_trip_byte_for_byte_and_bit_for_bit(cell in cell()) {
            round_trips(&cell)?;
        }

        #[test]
        fn damaged_cell_files_are_refused_or_read_as_the_vendored_parser_reads_them(
            cell in cell(),
            edits in edits(),
            noise in noise(),
        ) {
            survives_damage(&cell, &edits, &noise)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The deep variant, for release builds: `cargo test --release
        /// -p predictsim-experiments --lib cache::codec -- --ignored`.
        #[test]
        #[ignore]
        fn codec_survives_damage_deep(cell in cell(), edits in edits(), noise in noise()) {
            round_trips(&cell)?;
            survives_damage(&cell, &edits, &noise)?;
        }
    }
}
