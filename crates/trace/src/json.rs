//! The workspace's one JSON reader and its string escaper.
//!
//! Writers across the workspace render JSON with `format!` and
//! [`json_escape`]; readers (certificate loaders, `pde serve` request
//! lines) parse with [`Json::parse`] and check the shape they expect on
//! the resulting tree. Numbers are restricted to unsigned integers: no
//! format in the workspace carries any other kind.

use std::fmt::Write as _;

/// Escape `s` as a JSON string literal (including the quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u128),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document; anything but whitespace after it is an
    /// error. Errors name the byte offset where parsing failed.
    pub fn parse(src: &str) -> Result<Json, String> {
        let b = src.as_bytes();
        let mut at = 0usize;
        let v = value(b, &mut at, 0)?;
        skip_ws(b, &mut at);
        if at != b.len() {
            return Err(format!("trailing content at byte {at}"));
        }
        Ok(v)
    }

    /// `self`, checked to be an object (`what` names it in the error).
    pub fn as_obj(&self, what: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(_) => Ok(self),
            _ => Err(format!("{what} must be an object")),
        }
    }

    /// The member `key` of an object (`None` on anything else).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member `key`, required.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// The array member `key`.
    pub fn get_arr(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("missing array field '{key}'")),
        }
    }

    /// The string member `key`.
    pub fn get_str(&self, key: &str) -> Result<String, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(format!("field '{key}' must be a string")),
        }
    }

    /// The boolean member `key`.
    pub fn get_bool(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("field '{key}' must be a boolean")),
        }
    }

    /// The unsigned member `key`, saturated to `usize`.
    pub fn get_num(&self, key: &str) -> Result<usize, String> {
        match self.field(key)? {
            Json::Num(n) => Ok(usize::try_from(*n).unwrap_or(usize::MAX)),
            _ => Err(format!("field '{key}' must be an unsigned integer")),
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The reader
/// recurses once per level, and `pde serve` parses lines from any client:
/// without a cap a line of a few thousand `[` would overflow the stack,
/// which aborts the process. Every format in the workspace nests a few
/// levels.
const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], at: &mut usize) {
    while matches!(b.get(*at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *at += 1;
    }
}

fn value(b: &[u8], at: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, at);
    match b.get(*at) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!("nesting too deep at byte {at}")),
        Some(b'{') => {
            *at += 1;
            let member = |b: &[u8], at: &mut usize| {
                skip_ws(b, at);
                let key = string(b, at)?;
                skip_ws(b, at);
                if b.get(*at) != Some(&b':') {
                    return Err(format!("expected ':' at byte {at}"));
                }
                *at += 1;
                Ok((key, value(b, at, depth + 1)?))
            };
            items(b, at, b'}', member).map(Json::Obj)
        }
        Some(b'[') => {
            *at += 1;
            items(b, at, b']', |b, at| value(b, at, depth + 1)).map(Json::Arr)
        }
        Some(b'"') => string(b, at).map(Json::Str),
        Some(c) if c.is_ascii_digit() => {
            let start = *at;
            while b.get(*at).is_some_and(u8::is_ascii_digit) {
                *at += 1;
            }
            let digits = std::str::from_utf8(&b[start..*at]).expect("ascii digits");
            digits
                .parse::<u128>()
                .map(Json::Num)
                .map_err(|_| format!("number out of range at byte {start}"))
        }
        Some(b't') if b[*at..].starts_with(b"true") => {
            *at += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*at..].starts_with(b"false") => {
            *at += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*at..].starts_with(b"null") => {
            *at += 4;
            Ok(Json::Null)
        }
        _ => Err(format!("unexpected input at byte {at}")),
    }
}

/// The comma-separated items of an array or object, after its opening
/// bracket, through the `close` bracket.
fn items<T>(
    b: &[u8],
    at: &mut usize,
    close: u8,
    item: impl Fn(&[u8], &mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    skip_ws(b, at);
    if b.get(*at) == Some(&close) {
        *at += 1;
        return Ok(out);
    }
    loop {
        out.push(item(b, at)?);
        skip_ws(b, at);
        match b.get(*at) {
            Some(b',') => *at += 1,
            Some(&c) if c == close => {
                *at += 1;
                return Ok(out);
            }
            _ => return Err(format!("expected ',' or '{}' at byte {at}", close as char)),
        }
    }
}

/// A string literal with the standard escapes, starting at its opening
/// quote.
fn string(b: &[u8], at: &mut usize) -> Result<String, String> {
    if b.get(*at) != Some(&b'"') {
        return Err(format!("expected string at byte {at}"));
    }
    *at += 1;
    let mut out = String::new();
    loop {
        match b.get(*at) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                match b.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = b
                            .get(*at + 1..*at + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u code point at byte {at}"))?,
                        );
                        *at += 4;
                    }
                    _ => return Err(format!("bad escape at byte {at}")),
                }
                *at += 1;
            }
            Some(_) => {
                // A run of plain characters up to the next quote or escape.
                // Both are ASCII, so the run ends on a scalar boundary of
                // the `&str` that `b` came from.
                let end = b[*at..]
                    .iter()
                    .position(|c| matches!(c, b'"' | b'\\'))
                    .map_or(b.len(), |n| *at + n);
                out.push_str(std::str::from_utf8(&b[*at..end]).expect("scalar boundaries"));
                *at = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_escape("Σt"), "\"Σt\"");
        // What the escaper writes, the reader reads back.
        for s in ["q\"uo\\te", "line\nbreak\t", "\u{1}", "Σt"] {
            assert_eq!(Json::parse(&json_escape(s)), Ok(Json::Str(s.into())));
        }
    }

    #[test]
    fn parses_nested_documents_and_rejects_malformed_ones() {
        let v = Json::parse(r#" {"a": [1, true, null], "b": {"c": "\u00e9"}} "#);
        let a = Json::Arr(vec![Json::Num(1), Json::Bool(true), Json::Null]);
        let b = Json::Obj(vec![("c".into(), Json::Str("é".into()))]);
        assert_eq!(v, Ok(Json::Obj(vec![("a".into(), a), ("b".into(), b)])));
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let too_deep = nested(MAX_DEPTH + 1);
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "\"open",
            "\"\\q\"",
            "\"\\u12\"",
            "-1",
            "1.5",
            "{} {}",
            &too_deep,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn typed_accessors_name_the_field_they_reject() {
        let v = Json::parse(r#"{"s": "x", "n": 7, "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get_str("s"), Ok("x".into()));
        assert_eq!(v.get_num("n"), Ok(7));
        assert_eq!(v.get_bool("b"), Ok(true));
        assert_eq!(v.get_arr("a"), Ok(&[Json::Num(1)][..]));
        assert_eq!(v.get_str("n"), Err("field 'n' must be a string".into()));
        assert_eq!(v.get_num("z"), Err("missing field 'z'".into()));
        assert_eq!(
            Json::Null.as_obj("top"),
            Err("top must be an object".into())
        );
    }
}
