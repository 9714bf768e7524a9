//! Minimal deterministic JSON writer and a small recursive-descent parser.
//!
//! The service serializes by hand, with no serialization framework.
//! Determinism is the point: the cache, the tests and the benchmark all
//! assert that identical queries produce **bytewise-identical** response
//! bodies, so every field is emitted in a fixed order with a fixed float
//! formatting (Rust's shortest round-trip `{}`), no maps with
//! nondeterministic iteration order anywhere.
//!
//! The parser ([`JsonValue::parse`]) exists for the one endpoint that takes
//! a JSON request body, `POST /batch`. It keeps numbers as raw text so a
//! 64-bit seed survives without a detour through `f64`, and it preserves
//! object key order (batch members are positional).

/// Incremental writer for one JSON document.
///
/// Objects and arrays are driven by the caller (`begin_object` / `key` /
/// `end_object`, …); commas are inserted automatically. The writer does not
/// validate nesting — it is an internal tool for fixed response shapes, and
/// the unit tests pin those shapes.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Whether the next value at each nesting level needs a leading comma.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Finishes the document and returns the bytes.
    pub fn finish(self) -> String {
        self.buf
    }

    fn before_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) -> &mut Self {
        self.before_value();
        self.buf.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) -> &mut Self {
        self.before_value();
        self.buf.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push(']');
        self
    }

    /// Emits an object key. The following call must emit its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.before_value();
        write_escaped(&mut self.buf, name);
        self.buf.push(':');
        // The value that follows the key must not get a comma of its own.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Emits a string value.
    pub fn string(&mut self, value: &str) -> &mut Self {
        self.before_value();
        write_escaped(&mut self.buf, value);
        self
    }

    /// Emits an unsigned integer value.
    pub fn uint(&mut self, value: u64) -> &mut Self {
        self.before_value();
        self.buf.push_str(&value.to_string());
        self
    }

    /// Emits a float value with Rust's shortest round-trip formatting
    /// (non-finite values, which valid responses never contain, become
    /// `null`).
    pub fn float(&mut self, value: f64) -> &mut Self {
        self.before_value();
        if value.is_finite() {
            let s = format!("{value}");
            // `{}` prints integral floats without a dot; keep them floats.
            self.buf.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                self.buf.push_str(".0");
            }
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Emits a boolean value.
    pub fn boolean(&mut self, value: bool) -> &mut Self {
        self.before_value();
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Convenience: `key` + `string`.
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name).string(value)
    }

    /// Convenience: `key` + `uint`.
    pub fn field_uint(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name).uint(value)
    }

    /// Convenience: `key` + `float`.
    pub fn field_float(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name).float(value)
    }

    /// Convenience: `key` + `boolean`.
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name).boolean(value)
    }

    /// Splices pre-rendered JSON in as one value, verbatim. The batch
    /// envelope uses this to embed member response bodies byte-for-byte as
    /// they would be served by `/query` — the property the e2e tests pin.
    pub fn raw(&mut self, rendered: &str) -> &mut Self {
        self.before_value();
        self.buf.push_str(rendered);
        self
    }
}

/// Writes `s` as a JSON string literal (quotes + escapes) into `out`.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders the unified error document shared by every endpoint:
/// `{"error":{"code":"...","reason":"..."}}`.
///
/// `code` is a stable machine vocabulary (`bad_request`, `not_found`,
/// `method_not_allowed`, `forbidden`, `overloaded`, `deadline_exceeded`,
/// `cancelled`, `internal`); `reason` is the human-readable message.
pub fn error_body(code: &str, reason: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("error")
        .begin_object()
        .field_str("code", code)
        .field_str("reason", reason)
        .end_object()
        .end_object();
    w.finish()
}

/// A parsed JSON value. Numbers stay raw text (see module doc); objects are
/// ordered key/value lists (duplicate keys are rejected by the accessors).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let value = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing data at byte {at}"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for missing keys and non-objects.
    /// Duplicate keys are an error (a request must not smuggle two values
    /// past a first-match lookup).
    pub fn get(&self, key: &str) -> Result<Option<&JsonValue>, String> {
        let JsonValue::Object(fields) = self else {
            return Ok(None);
        };
        let mut found = None;
        for (k, v) in fields {
            if k == key {
                if found.is_some() {
                    return Err(format!("duplicate key {key:?}"));
                }
                found = Some(v);
            }
        }
        Ok(found)
    }

    /// The value as a string, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            JsonValue::String(s) => Ok(s),
            other => Err(format!("{what}: expected a string, got {other:?}")),
        }
    }

    /// The value as a `u64` (digits only — floats and signs are errors).
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            JsonValue::Number(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("{what}: expected an unsigned integer, got {raw}")),
            other => Err(format!("{what}: expected a number, got {other:?}")),
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self, what: &str) -> Result<usize, String> {
        self.as_u64(what).map(|v| v as usize)
    }

    /// The value as a boolean.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected a boolean, got {other:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self, what: &str) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(format!("{what}: expected an array, got {other:?}")),
        }
    }
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while let Some(b) = bytes.get(*at) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *at += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], at: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*at) == Some(&want) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {at}", want as char))
    }
}

fn parse_value(bytes: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, at),
        Some(b'[') => parse_array(bytes, at),
        Some(b'"') => parse_string(bytes, at).map(JsonValue::String),
        Some(b't') => parse_literal(bytes, at, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, at, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, at, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, at),
    }
}

fn parse_literal(
    bytes: &[u8],
    at: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*at..].starts_with(word.as_bytes()) {
        *at += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {at}"))
    }
}

fn parse_object(bytes: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, at, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(JsonValue::Object(fields));
    }
    loop {
        skip_ws(bytes, at);
        let key = parse_string(bytes, at)?;
        skip_ws(bytes, at);
        expect(bytes, at, b':')?;
        let value = parse_value(bytes, at)?;
        fields.push((key, value));
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b'}') => {
                *at += 1;
                return Ok(JsonValue::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {at}")),
        }
    }
}

fn parse_array(bytes: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, at, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, at)?);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b']') => {
                *at += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {at}")),
        }
    }
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    expect(bytes, at, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*at) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                match bytes.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*at + 1..*at + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Basic-plane only; surrogate pairs are not request
                        // vocabulary (dataset names are ASCII-ish).
                        out.push(char::from_u32(code).ok_or(format!("bad \\u escape {hex}"))?);
                        *at += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *at += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&bytes[*at..])
                    .map_err(|_| "string is not UTF-8".to_string())?;
                let c = rest.chars().next().unwrap();
                if (c as u32) < 0x20 {
                    return Err("unescaped control character in string".to_string());
                }
                out.push(c);
                *at += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    let start = *at;
    if bytes.get(*at) == Some(&b'-') {
        *at += 1;
    }
    while matches!(
        bytes.get(*at),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *at += 1;
    }
    if *at == start {
        return Err(format!("expected a value at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*at]).unwrap();
    // Validate by round-tripping through f64 (raw text is what callers use).
    raw.parse::<f64>()
        .map_err(|_| format!("bad number {raw:?}"))?;
    Ok(JsonValue::Number(raw.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_shape() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("name", "a\"b")
            .field_uint("n", 3)
            .key("results")
            .begin_array();
        for (nodes, score) in [(vec![1u64, 3], 0.42), (vec![2], 0.5)] {
            w.begin_object().key("nodes").begin_array();
            for v in nodes {
                w.uint(v);
            }
            w.end_array().field_float("score", score).end_object();
        }
        w.end_array().field_bool("ok", true).end_object();
        assert_eq!(
            w.finish(),
            "{\"name\":\"a\\\"b\",\"n\":3,\"results\":[{\"nodes\":[1,3],\"score\":0.42},{\"nodes\":[2],\"score\":0.5}],\"ok\":true}"
        );
    }

    #[test]
    fn floats_stay_floats_and_escapes_cover_controls() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_float("one", 1.0)
            .field_float("nan", f64::NAN)
            .field_str("ctl", "a\u{1}\tb")
            .end_object();
        assert_eq!(
            w.finish(),
            "{\"one\":1.0,\"nan\":null,\"ctl\":\"a\\u0001\\tb\"}"
        );
    }

    #[test]
    fn error_body_shape() {
        // One nested typed error object, nothing at the top level beside it.
        assert_eq!(
            error_body("bad_request", "bad"),
            "{\"error\":{\"code\":\"bad_request\",\"reason\":\"bad\"}}"
        );
        // Parseable by the strict duplicate-rejecting parser (the loopback
        // tests read error bodies through it).
        let doc = JsonValue::parse(&error_body("internal", "boom")).unwrap();
        let error = doc.get("error").unwrap().unwrap();
        assert_eq!(
            error.get("code").unwrap().unwrap().as_str("code").unwrap(),
            "internal"
        );
        assert_eq!(
            error
                .get("reason")
                .unwrap()
                .unwrap()
                .as_str("reason")
                .unwrap(),
            "boom"
        );
        assert!(doc.get("reason").unwrap().is_none());
    }

    #[test]
    fn raw_splices_verbatim_with_commas() {
        let mut w = JsonWriter::new();
        w.begin_object().key("results").begin_array();
        w.raw("{\"a\":1}").raw("{\"b\":2.5}");
        w.end_array().field_uint("n", 2).end_object();
        assert_eq!(w.finish(), "{\"results\":[{\"a\":1},{\"b\":2.5}],\"n\":2}");
    }

    #[test]
    fn parser_round_trips_a_batch_shaped_document() {
        let doc = JsonValue::parse(
            "{\"dataset\":\"karate\",\"theta\":64,\"seed\":18446744073709551615,\
             \"members\":[{\"algo\":\"mpds\",\"k\":3},{\"algo\":\"nds\",\"lm\":2}]}",
        )
        .unwrap();
        assert_eq!(
            doc.get("dataset")
                .unwrap()
                .unwrap()
                .as_str("dataset")
                .unwrap(),
            "karate"
        );
        assert_eq!(
            doc.get("theta")
                .unwrap()
                .unwrap()
                .as_usize("theta")
                .unwrap(),
            64
        );
        // u64::MAX survives: numbers are raw text, never f64.
        assert_eq!(
            doc.get("seed").unwrap().unwrap().as_u64("seed").unwrap(),
            u64::MAX
        );
        let members = doc
            .get("members")
            .unwrap()
            .unwrap()
            .as_array("members")
            .unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(
            members[1]
                .get("lm")
                .unwrap()
                .unwrap()
                .as_usize("lm")
                .unwrap(),
            2
        );
        assert_eq!(doc.get("absent").unwrap(), None);
    }

    #[test]
    fn parser_handles_strings_escapes_and_whitespace() {
        let doc = JsonValue::parse(
            " { \"s\" : \"a\\n\\\"b\\u0041\" , \"t\" : true , \
                                    \"nil\" : null , \"xs\" : [ 1 , -2.5e1 ] } ",
        )
        .unwrap();
        assert_eq!(
            doc.get("s").unwrap().unwrap().as_str("s").unwrap(),
            "a\n\"bA"
        );
        assert!(doc.get("t").unwrap().unwrap().as_bool("t").unwrap());
        assert_eq!(doc.get("nil").unwrap(), Some(&JsonValue::Null));
        let xs = doc.get("xs").unwrap().unwrap().as_array("xs").unwrap();
        assert_eq!(xs[0], JsonValue::Number("1".to_string()));
        assert_eq!(xs[1], JsonValue::Number("-2.5e1".to_string()));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{\"a\":1,}").is_err());
        assert!(JsonValue::parse("[1 2]").is_err());
        assert!(JsonValue::parse("{\"a\":1} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nulle").is_err());
        assert!(JsonValue::parse("{\"a\":bogus}").is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected_by_get() {
        let doc = JsonValue::parse("{\"a\":1,\"a\":2}").unwrap();
        assert!(doc.get("a").unwrap_err().contains("duplicate key"));
    }

    #[test]
    fn typed_accessors_name_the_field_in_errors() {
        let v = JsonValue::String("x".to_string());
        assert!(v.as_u64("theta").unwrap_err().contains("theta"));
        assert!(v.as_bool("heuristic").unwrap_err().contains("heuristic"));
        let n = JsonValue::Number("-3".to_string());
        assert!(n.as_u64("seed").unwrap_err().contains("seed"));
        assert!(JsonValue::Null.as_array("members").is_err());
        assert!(JsonValue::Null.as_str("dataset").is_err());
    }
}
