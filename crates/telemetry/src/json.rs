//! A minimal JSON value, its parser and its printer.
//!
//! The offline build environment has no serde, so the workspace's one JSON
//! report, [`crate::Telemetry::to_json`], is built as a [`Json`] value and
//! printed by the one printer here — compact through
//! [`Display`](fmt::Display), laid out for a reader through
//! [`Json::pretty`]. The parser reads documents back: trace validation
//! ([`crate::perfetto::validate`]) and tests. Numbers keep their **raw
//! token** ([`Json::Num`] holds the text) so 64-bit counters and decimal
//! values print exactly as built and survive parse → print bit-exactly
//! instead of being squeezed through an `f64`.
//! (The Perfetto exporter writes its trace bytes itself; they are a pinned
//! contract.)

use core::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token (see module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first violation — malformed
    /// text, or arrays/objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            b: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number token that parses as one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in a JSON document (quotes not included).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Json {
    /// An object with `fields`, in the order given.
    #[must_use]
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The document laid out for a reader, its closing bracket at column
    /// `indent`: an array holding no object, or an object holding no array
    /// or object, stays on one line (`[1, 2]`, `{ "k": 1 }`); any other
    /// container puts each member on its own line, two columns deeper.
    /// Parses back to `self`, like the compact [`Display`](fmt::Display)
    /// form.
    #[must_use]
    pub fn pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Block(indent));
        out
    }

    /// Whether [`Json::pretty`] keeps the value on one line.
    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(items) => items
                .iter()
                .all(|v| !matches!(v, Json::Obj(_)) && v.is_flat()),
            Json::Obj(fields) => fields
                .iter()
                .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_))),
            _ => true,
        }
    }

    /// The one printer behind [`Display`](fmt::Display) and
    /// [`Json::pretty`].
    fn write(&self, out: &mut String, layout: Layout) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => return out.push_str(s),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
        };
        let layout = match layout {
            Layout::Block(_) if self.is_flat() => Layout::Line,
            layout => layout,
        };
        // A one-line object pads its braces, a one-line array does not.
        let padded = open == '{' && !members.is_empty();
        let newline = |out: &mut String, column: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', column));
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match layout {
                Layout::Compact => {}
                Layout::Line if i > 0 || padded => out.push(' '),
                Layout::Line => {}
                Layout::Block(indent) => newline(out, indent + 2),
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(if matches!(layout, Layout::Compact) {
                    ":"
                } else {
                    ": "
                });
            }
            let inner = match layout {
                Layout::Block(indent) => Layout::Block(indent + 2),
                layout => layout,
            };
            value.write(out, inner);
        }
        match layout {
            Layout::Compact => {}
            Layout::Line if padded => out.push(' '),
            Layout::Line => {}
            Layout::Block(indent) => newline(out, indent),
        }
        out.push(close);
    }
}

/// How [`Json::write`] lays a container out.
#[derive(Clone, Copy)]
enum Layout {
    /// No whitespace: `{"k":[1,2]}`.
    Compact,
    /// One spaced line: `{ "k": [1, 2] }`.
    Line,
    /// One member per line, the closing bracket at this column.
    Block(usize),
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact single-line serialization (inverse of [`Json::parse`] up to
    /// whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, Layout::Compact);
        f.write_str(&out)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::from(u64::from(v))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    /// An array of the items.
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so hostile input must hit this bound, not the
/// end of the stack; every emitter in the workspace stays under ten.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    /// `text.as_bytes()`.
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.i
                    ));
                }
                self.depth += 1;
                let v = if self.b[self.i] == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", *c as char, self.i)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("expected '{word}' at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| -> Result<(), String> {
            let d0 = p.i;
            while p.b.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            if p.i == d0 {
                Err(format!("expected digits at byte {}", p.i))
            } else {
                Ok(())
            }
        };
        digits(self)?;
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            digits(self)?;
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            digits(self)?;
        }
        Ok(Json::Num(self.text[start..self.i].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| format!("truncated \\u at byte {}", self.i))?;
                            let hex = core::str::from_utf8(hex)
                                .map_err(|_| format!("bad \\u at byte {}", self.i))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u at byte {}", self.i))?;
                            // Surrogate pairs are not needed by our emitters.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("bad codepoint at byte {}", self.i))?;
                            out.push(c);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one
                    // slice: both are ASCII, so they never fall inside a
                    // multi-byte sequence and the cut is on a char boundary.
                    let start = self.i;
                    while !matches!(self.b.get(self.i), None | Some(b'"' | b'\\')) {
                        self.i += 1;
                    }
                    out.push_str(&self.text[start..self.i]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn u64_precision_survives() {
        // A value an f64 cannot represent exactly: full-width mixed seed.
        let seed = 0xDEAD_BEEF_CAFE_F00Du64;
        let v = Json::parse(&format!("{{\"seed\": {seed}}}")).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(seed));
        // And it re-serializes to the identical token.
        assert_eq!(v.to_string(), format!("{{\"seed\":{seed}}}"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("01a").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn display_round_trips() {
        let text = r#"{"k":["v",1,true,null],"n":-2.5e3}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }
}
