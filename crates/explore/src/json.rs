//! The hand-rolled flat-JSON codec of the `gals-serve` wire protocol
//! and the checked-in workload definitions.
//!
//! Scope is deliberately tiny: one object, string keys, scalar values
//! (string / number / boolean / null) — no nesting, no arrays. That is
//! exactly what the line-delimited serve protocol needs, and it keeps
//! the workspace free of external dependencies (the build environment
//! has no registry access).

/// A scalar JSON value in a flat object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string.
    Str(String),
    /// A JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }
}

/// Incremental writer for one flat JSON object.
///
/// # Example
///
/// ```
/// use gals_explore::json::ObjectWriter;
/// let mut w = ObjectWriter::new();
/// w.field_str("op", "status");
/// w.field_num("window", 120000.0);
/// assert_eq!(w.finish(), r#"{"op":"status","window":120000.0}"#);
/// ```
#[derive(Debug)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_json_string(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Appends a string field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_json_string(&mut self.buf, value);
        self
    }

    /// Appends a numeric field (shortest round-trip formatting).
    pub fn field_num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&format_json_number(value));
        self
    }

    /// Appends a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Emits `v` so that parsing it back yields the identical `f64` (Rust's
/// shortest round-trip float formatting), with a `.0` suffix on integral
/// values so the file stays unambiguously float-typed.
pub fn format_json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Parses one flat object of scalar values. Returns `None` on any
/// malformation — callers treat that as "not a valid message/file".
pub fn parse_flat_object(text: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut chars = text.chars().peekable();
    let mut out = Vec::new();
    skip_ws(&mut chars);
    if chars.next()? != '{' {
        return None;
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        skip_ws(&mut chars);
        return chars.next().is_none().then_some(out);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_json_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let value = match chars.peek()? {
            '"' => JsonValue::Str(parse_json_string(&mut chars)?),
            't' | 'f' | 'n' => {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if !c.is_ascii_alphabetic() {
                        break;
                    }
                    word.push(c);
                    chars.next();
                }
                match word.as_str() {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    "null" => JsonValue::Null,
                    _ => return None,
                }
            }
            _ => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                JsonValue::Num(num.parse().ok()?)
            }
        };
        out.push((key, value));
        skip_ws(&mut chars);
        match chars.next()? {
            ',' => continue,
            '}' => {
                skip_ws(&mut chars);
                return chars.next().is_none().then_some(out);
            }
            _ => return None,
        }
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while matches!(chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
        chars.next();
    }
}

fn parse_json_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut s = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(s),
            '\\' => match chars.next()? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                '/' => s.push('/'),
                'n' => s.push('\n'),
                'r' => s.push('\r'),
                't' => s.push('\t'),
                'u' => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    let v = u32::from_str_radix(&code, 16).ok()?;
                    s.push(char::from_u32(v)?);
                }
                _ => return None,
            },
            c => s.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_writer_round_trips() {
        let mut w = ObjectWriter::new();
        w.field_str("op", "run_config")
            .field_num("window", 2000.0)
            .field_bool("done", true)
            .field_str("weird", "a\"b\\c\td");
        let text = w.finish();
        let parsed = parse_flat_object(&text).expect("valid json");
        assert_eq!(
            parsed,
            vec![
                ("op".into(), JsonValue::Str("run_config".into())),
                ("window".into(), JsonValue::Num(2000.0)),
                ("done".into(), JsonValue::Bool(true)),
                ("weird".into(), JsonValue::Str("a\"b\\c\td".into())),
            ]
        );
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_flat_object("{}"), Some(vec![]));
        assert_eq!(parse_flat_object(" { } "), Some(vec![]));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "}",
            "not json",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a":1}{"b":2}"#,
            r#"{"a":tru}"#,
            r#"{"a":"unterminated"#,
        ] {
            assert_eq!(parse_flat_object(bad), None, "{bad:?} should be rejected");
        }
    }

    #[test]
    fn number_map_rejects_non_numbers() {
        // Numeric fields (workload definitions) are read with `as_num`,
        // which must refuse a string that merely looks numeric.
        let parsed = parse_flat_object(r#"{"a":1.5,"b":"2.0"}"#).expect("valid json");
        assert_eq!(parsed[0].1.as_num(), Some(1.5));
        assert_eq!(parsed[1].1.as_num(), None);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [0.1 + 0.2, 1.0 / 3.0, 4.0, f64::MIN_POSITIVE] {
            let text = format!(r#"{{"k":{}}}"#, format_json_number(v));
            let parsed = parse_flat_object(&text).unwrap();
            assert_eq!(parsed[0].1.as_num(), Some(v));
        }
    }
}
