//! The workspace's one JSON module: a [`Value`] tree, one writer
//! ([`render`]) and one strict reader ([`parse`]).
//!
//! The workspace is registry-free (no serde). Every machine-readable
//! document it writes — the `siro-bench` records, the `difftest-v1` report
//! of `siro difftest -o` and the `loadtest-v1` report of `siro loadgen -o`
//! — is built as a [`Value`] and written by [`render`]. `siro
//! trace-report` reads Chrome trace files back with [`parse`], and the
//! Chrome exporter ([`crate::export`]) quotes its strings with [`quote`].
//!
//! Objects keep their keys in insertion order, and integers are held
//! exactly (every `u64` and `i64`), so a rendered document parses back
//! equal. The reader implements just enough of RFC 8259 for that: objects,
//! arrays, strings with the common escapes, numbers, booleans and null. It
//! is a recursive-descent parser, not a streaming one; the documents are
//! bounded by what one process writes.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, held exactly: every `u64` and every `i64` fits.
    Int(i128),
    /// A number with a fraction. [`render`] writes it with three
    /// decimals, and a non-finite one as `null`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; its keys keep their insertion order.
    Obj(Vec<(String, Value)>),
}

/// Builds an object from `(key, value)` members, in the order given.
pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n.into())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as i128)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::Arr(items.into_iter().collect())
    }
}

impl Value {
    /// The object members in order, if this value is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this value is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this value is an integer in range or a
    /// non-negative fractional number (truncated).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` on anything else).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }
}

/// `s` as a quoted JSON string: `"`, `\` and newline are escaped, other
/// control characters become `\u00XX`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes `value` as a JSON document: two-space indent, one member or
/// item per line (so every member but the last of its object ends in a
/// comma), a trailing newline.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Value, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x:.3}");
        }
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => out.push_str(&quote(s)),
        Value::Arr(items) => write_members(out, ('[', ']'), depth, items.iter().map(|v| (None, v))),
        Value::Obj(members) => write_members(
            out,
            ('{', '}'),
            depth,
            members.iter().map(|(k, v)| (Some(k.as_str()), v)),
        ),
    }
}

fn write_members<'a>(
    out: &mut String,
    (open, close): (char, char),
    depth: usize,
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
) {
    out.push(open);
    let len = members.len();
    if len > 0 {
        out.push('\n');
        for (i, (key, value)) in members.enumerate() {
            out.push_str(&"  ".repeat(depth + 1));
            if let Some(key) = key {
                out.push_str(&quote(key));
                out.push_str(": ");
            }
            write_value(out, value, depth + 1);
            out.push_str(if i + 1 < len { ",\n" } else { "\n" });
        }
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Parses one JSON document.
///
/// # Errors
///
/// A human-readable description with the byte offset of the problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates never appear in our writer's output;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unknown escape `\\{}`", char::from(other))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let int = !text.contains(['.', 'e', 'E']);
        match text.parse::<i128>() {
            Ok(n) if int => Ok(Value::Int(n)),
            _ => text
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number `{text}` at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
        let raw = parse(r#""Aé""#).unwrap();
        assert_eq!(raw.as_str(), Some("Aé"));
    }

    fn round_trip(v: &Value) -> String {
        let text = render(v);
        assert_eq!(&parse(&text).unwrap(), v, "rendered:\n{text}");
        text
    }

    #[test]
    fn rendered_objects_keep_key_order() {
        let v = obj([
            ("zeta", 1u64.into()),
            ("alpha", true.into()),
            ("mid", Value::Null),
            ("empty", obj([])),
        ]);
        let text = round_trip(&v);
        let back = parse(&text).unwrap();
        let keys: Vec<&str> = back
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["zeta", "alpha", "mid", "empty"]);
        assert_eq!(
            text,
            "{\n  \"zeta\": 1,\n  \"alpha\": true,\n  \"mid\": null,\n  \"empty\": {}\n}\n"
        );
    }

    #[test]
    fn arrays_of_objects_round_trip() {
        let v = obj([
            ("schema", "demo-v1".into()),
            (
                "rows",
                (0..3u64)
                    .map(|i| obj([("hops", i.into()), ("p50", 2.5.into())]))
                    .collect(),
            ),
            ("none", Value::Arr(Vec::new())),
        ]);
        let text = round_trip(&v);
        assert!(text.contains("\"p50\": 2.500\n"), "{text}");
        assert!(text.contains("\"none\": []\n"), "{text}");
    }

    #[test]
    fn awkward_strings_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t cr \r bell \u{7} nul \u{0} é";
        let text = round_trip(&obj([(s, s.into())]));
        assert!(
            text.contains("\\u0007") && text.contains("\\u0000"),
            "{text}"
        );
        assert!(!text.contains('\t'), "control characters are escaped");
    }

    #[test]
    fn integers_above_two_to_the_53_stay_exact() {
        let big = (1u64 << 53) + 1;
        let v = obj([("big", big.into()), ("max", u64::MAX.into())]);
        let text = round_trip(&v);
        assert!(text.contains("\"big\": 9007199254740993,"), "{text}");
        assert!(text.contains("\"max\": 18446744073709551615\n"), "{text}");
        let back = parse(&text).unwrap();
        assert_eq!(back.get("big").and_then(Value::as_u64), Some(big));
        assert_eq!(back.get("max").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
    }

    #[test]
    fn fractions_use_three_decimals_and_non_finite_is_null() {
        let v = obj([("x", (1.0 / 3.0).into()), ("inf", f64::INFINITY.into())]);
        assert_eq!(render(&v), "{\n  \"x\": 0.333,\n  \"inf\": null\n}\n");
        assert_eq!(parse("100.000").unwrap(), Value::Num(100.0));
    }
}
