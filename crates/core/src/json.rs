//! The one JSON reader behind [`crate::api::DetectorConfig::from_json`] and
//! [`crate::summary::RaceSummary::from_json`]. Both parse bytes from a
//! socket or a checkpoint, so malformed input is an `Err`, never a panic.

use std::collections::BTreeMap;

/// The top-level `"key": value` pairs of a JSON object. The scan is
/// string-aware and skips nested objects and arrays whole, so neither a
/// key-like string value nor a key inside a nested value can shadow a
/// top-level key; a key that appears twice at the top level is an error.
/// Values come back as their trimmed raw text: a string keeps its quotes
/// (escapes as written), an object or array its brackets.
pub(crate) fn fields(json: &str) -> Result<BTreeMap<&str, &str>, String> {
    let bytes = json.as_bytes();
    let skip_ws = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        i
    };
    let mut i = skip_ws(0);
    if bytes.get(i) != Some(&b'{') {
        return Err("expected a JSON object".into());
    }
    let mut fields = BTreeMap::new();
    i += 1;
    loop {
        i = skip_ws(i);
        match bytes.get(i) {
            Some(b'}') => return Ok(fields),
            Some(b'"') => {}
            _ => return Err(format!("expected a key at byte {i}")),
        }
        let key_end = string_end(bytes, i)?;
        let key = &json[i + 1..key_end];
        i = skip_ws(key_end + 1);
        if bytes.get(i) != Some(&b':') {
            return Err(format!("expected ':' after {key:?}"));
        }
        i = skip_ws(i + 1);
        let (value, next) = match bytes.get(i) {
            Some(b'"') => {
                let end = string_end(bytes, i)? + 1;
                (&json[i..end], end)
            }
            Some(b'{' | b'[') => {
                let end = nested_end(bytes, i)?;
                (&json[i..end], end)
            }
            _ => {
                // A quote inside a bare value is malformed: stop there so
                // the separator check below rejects it.
                let end = json[i..]
                    .find([',', '}', '"'])
                    .map_or(json.len(), |e| i + e);
                (json[i..end].trim(), end)
            }
        };
        if fields.insert(key, value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        i = skip_ws(next);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok(fields),
            _ => return Err(format!("expected ',' or '}}' after {key:?}")),
        }
    }
}

/// The raw value of field `key`.
pub(crate) fn value<'a>(fields: &BTreeMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    fields
        .get(key)
        .copied()
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Index of the quote closing the JSON string that opens at `start`.
fn string_end(bytes: &[u8], start: usize) -> Result<usize, String> {
    let mut j = start + 1;
    while let Some(&b) = bytes.get(j) {
        match b {
            b'\\' => j += 2,
            b'"' => return Ok(j),
            _ => j += 1,
        }
    }
    Err("unterminated string".into())
}

/// One past the bracket closing the object or array that opens at `start`.
fn nested_end(bytes: &[u8], start: usize) -> Result<usize, String> {
    let mut depth = 0usize;
    let mut j = start;
    while let Some(&b) = bytes.get(j) {
        match b {
            b'"' => j = string_end(bytes, j)?,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    Err("unterminated nested value".into())
}
