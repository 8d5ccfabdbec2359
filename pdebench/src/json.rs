//! A small JSON reader for `pde serve` responses, access-log records and
//! the replay children's span lines.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document.
    pub fn parse(src: &str) -> Result<Json, String> {
        let b = src.as_bytes();
        let mut at = 0;
        let v = value(b, &mut at)?;
        ws(b, &mut at);
        if at != b.len() {
            return Err(format!("trailing input at byte {at}"));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn value(b: &[u8], at: &mut usize) -> Result<Json, String> {
    ws(b, at);
    match b.get(*at) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *at += 1;
            let mut members = Vec::new();
            ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                ws(b, at);
                let key = string(b, at)?;
                ws(b, at);
                expect(b, at, b':')?;
                members.push((key, value(b, at)?));
                ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {at}")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(value(b, at)?);
                ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {at}")),
                }
            }
        }
        Some(b'"') => string(b, at).map(Json::Str),
        Some(b't') => literal(b, at, "true", Json::Bool(true)),
        Some(b'f') => literal(b, at, "false", Json::Bool(false)),
        Some(b'n') => literal(b, at, "null", Json::Null),
        Some(_) => {
            let start = *at;
            while *at < b.len() && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *at += 1;
            }
            std::str::from_utf8(&b[start..*at])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

fn expect(b: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*at) == Some(&c) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {at}", c as char))
    }
}

fn literal(b: &[u8], at: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*at..].starts_with(word.as_bytes()) {
        *at += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {at}"))
    }
}

fn string(b: &[u8], at: &mut usize) -> Result<String, String> {
    expect(b, at, b'"')?;
    let mut out = Vec::new();
    loop {
        match b.get(*at) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *at += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                let esc = b.get(*at + 1).ok_or("unterminated escape")?;
                *at += 2;
                match esc {
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'u' => {
                        let hex = b.get(*at..*at + 4).ok_or("short \\u escape")?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).unwrap_or("?"), 16)
                            .map_err(|e| e.to_string())?;
                        *at += 4;
                        let c = char::from_u32(code).unwrap_or('\u{fffd}');
                        out.extend_from_slice(c.to_string().as_bytes());
                    }
                    other => out.push(*other),
                }
            }
            Some(&c) => {
                out.push(c);
                *at += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_serve_response() {
        let v = Json::parse(r#"{"ok":true,"id":3,"answers":[["P1","org2"]],"x":null,"e":-1.5e3}"#)
            .unwrap();
        assert_eq!(v.get("ok").and_then(Json::bool), Some(true));
        assert_eq!(v.get("id").and_then(Json::num), Some(3.0));
        assert_eq!(v.get("e").and_then(Json::num), Some(-1500.0));
        let rows = v.get("answers").and_then(Json::arr).unwrap();
        assert_eq!(rows[0].arr().unwrap()[1].str(), Some("org2"));
        assert!(Json::parse("{\"a\":1} x").is_err());
    }
}
