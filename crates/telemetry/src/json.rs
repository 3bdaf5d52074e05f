//! Minimal JSON emit/parse.
//!
//! The telemetry crate is dependency-free by design, so it carries its
//! own small JSON value type: it renders a [`Report`], and the evaluation
//! journal and the `verify` report write and read their files with it.

use crate::registry::Report;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integers (all report fields are unsigned).
    Int(u64),
    /// Non-integer numbers.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Float(x) => {
                if x.is_finite() {
                    // `{:?}` keeps a `.0` on integral floats, so the
                    // value parses back as Float, not Int.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must be a single value, whole input).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Builds the JSON tree of a report.
    pub fn from_report(report: &Report) -> JsonValue {
        let counters = JsonValue::Obj(
            report
                .counters
                .iter()
                .map(|(name, v)| (name.clone(), JsonValue::Int(*v)))
                .collect(),
        );
        let timers = JsonValue::Obj(
            report
                .timers
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        JsonValue::Obj(vec![
                            ("count".into(), JsonValue::Int(t.count)),
                            ("total_ns".into(), JsonValue::Int(t.total_ns)),
                            ("max_ns".into(), JsonValue::Int(t.max_ns)),
                        ]),
                    )
                })
                .collect(),
        );
        JsonValue::Obj(vec![
            ("counters".into(), counters),
            ("timers".into(), timers),
        ])
    }
}

fn render_string(s: &str, out: &mut String) {
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

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{token}`")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid UTF-8"))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    if text.is_empty() {
        return Err(err(start, "expected value"));
    }
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::Int(n));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| err(start, "bad number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        let v = JsonValue::Obj(vec![
            ("a".into(), JsonValue::Int(42)),
            (
                "b".into(),
                JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
            (
                "c".into(),
                JsonValue::Str("weird \"quotes\"\nand lines".into()),
            ),
            ("d".into(), JsonValue::Float(1.5)),
        ]);
        let text = v.render();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn integral_floats_keep_their_type() {
        let v = JsonValue::Arr(vec![JsonValue::Float(2.0), JsonValue::Int(2)]);
        let text = v.render();
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back, v, "rendered as {text}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }

    #[test]
    fn report_json_holds_its_counters_and_timers() {
        let report = Report {
            counters: vec![("dse/iteration".into(), 17), ("eval/cache/hit".into(), 3)],
            timers: vec![crate::TimerStat {
                name: "eval/simulate".into(),
                count: 5,
                total_ns: 123_456_789,
                max_ns: 99_999_999,
            }],
        };
        let json = JsonValue::parse(&report.to_json()).expect("parses");
        let counters = json.get("counters").expect("counters object");
        assert_eq!(counters.get("dse/iteration"), Some(&JsonValue::Int(17)));
        assert_eq!(counters.get("eval/cache/hit"), Some(&JsonValue::Int(3)));
        let simulate = json
            .get("timers")
            .and_then(|t| t.get("eval/simulate"))
            .expect("timer object");
        for (field, value) in [
            ("count", 5),
            ("total_ns", 123_456_789),
            ("max_ns", 99_999_999),
        ] {
            assert_eq!(simulate.get(field), Some(&JsonValue::Int(value)), "{field}");
        }
    }
}
