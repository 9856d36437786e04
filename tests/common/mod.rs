//! Helpers shared by the root integration tests (`mod common;`).

/// Consumes one JSON value from the front of `b` and returns the rest;
/// `None` where the grammar breaks. (The workspace has no JSON
/// dependency and the exporters write by hand, so a stray comma or an
/// unescaped quote is the failure this catches.)
fn json_value(b: &[u8]) -> Option<&[u8]> {
    let b = b.trim_ascii_start();
    let close = match *b.first()? {
        b'{' => b'}',
        b'[' => b']',
        b'"' => return json_string(b),
        b'-' | b'0'..=b'9' | b't' | b'f' | b'n' => {
            let n = b
                .iter()
                .take_while(|c| matches!(c, b'-' | b'+' | b'.' | b'0'..=b'9' | b'a'..=b'z' | b'E'))
                .count();
            let token = std::str::from_utf8(&b[..n]).ok()?;
            let ok = matches!(token, "true" | "false" | "null")
                || (!token.contains(|c: char| c.is_ascii_lowercase() && c != 'e')
                    && token.parse::<f64>().is_ok());
            return ok.then_some(&b[n..]);
        }
        _ => return None,
    };
    let mut rest = b[1..].trim_ascii_start();
    if *rest.first()? == close {
        return Some(&rest[1..]);
    }
    loop {
        if close == b'}' {
            rest = json_string(rest.trim_ascii_start())?
                .trim_ascii_start()
                .strip_prefix(b":")?;
        }
        rest = json_value(rest)?.trim_ascii_start();
        match *rest.first()? {
            c if c == close => return Some(&rest[1..]),
            b',' => rest = &rest[1..],
            _ => return None,
        }
    }
}

fn json_string(b: &[u8]) -> Option<&[u8]> {
    let mut rest = b.strip_prefix(b"\"")?;
    loop {
        match *rest.first()? {
            b'"' => return Some(&rest[1..]),
            b'\\' => rest = rest.get(2..)?,
            c if c < 0x20 => return None,
            _ => rest = &rest[1..],
        }
    }
}

/// Whether `doc` is exactly one JSON value.
pub fn is_json(doc: &str) -> bool {
    json_value(doc.as_bytes()).is_some_and(|rest| rest.trim_ascii().is_empty())
}
