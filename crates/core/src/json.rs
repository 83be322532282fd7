//! Minimal JSON rendering and parsing.
//!
//! CI systems want machine-readable gate results, and the `lisa serve`
//! daemon speaks newline-delimited JSON over its unix socket. This is a
//! small, dependency-free writer plus a strict recursive-descent reader
//! (the workspace deliberately avoids a JSON crate): correct string
//! escaping, stable key order, no floats beyond millisecond durations.

use std::fmt::Write as _;

use crate::enforce::EnforcementReport;
use crate::verdict::{ChainVerdict, RuleReport};

/// Version of the machine-readable gate report schema. Bumped whenever a
/// field is removed or its meaning changes; additive fields do not bump
/// it. CI consumers should pin on this, not on incidental key order.
pub const SCHEMA_VERSION: u64 = 1;

/// Escape a string per RFC 8259.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn str_field(out: &mut String, key: &str, value: &str, comma: bool) {
    let _ = write!(out, "\"{}\":\"{}\"{}", key, escape(value), if comma { "," } else { "" });
}

fn num_field(out: &mut String, key: &str, value: u64, comma: bool) {
    let _ = write!(out, "\"{key}\":{value}{}", if comma { "," } else { "" });
}

/// Render one rule report.
pub fn rule_report_json(r: &RuleReport) -> String {
    let mut out = String::from("{");
    str_field(&mut out, "rule", &r.rule_id, true);
    str_field(&mut out, "description", &r.rule_description, true);
    str_field(&mut out, "target", &r.target, true);
    str_field(&mut out, "condition", &r.condition, true);
    num_field(&mut out, "verified", r.verified_count() as u64, true);
    num_field(&mut out, "violated", r.violated_count() as u64, true);
    num_field(&mut out, "not_covered", r.not_covered_count() as u64, true);
    num_field(&mut out, "engine_errors", r.engine_error_count() as u64, true);
    let _ = write!(out, "\"degraded\":{},", r.degraded);
    num_field(&mut out, "retries", r.retries as u64, true);
    let _ = write!(out, "\"sanity_ok\":{},", r.sanity_ok);
    out.push_str("\"chains\":[");
    for (i, c) in r.chains.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        str_field(&mut out, "path", &c.rendered, true);
        str_field(&mut out, "entry", &c.entry, true);
        str_field(&mut out, "verdict", c.verdict.label(), true);
        out.push_str("\"covering_tests\":[");
        for (j, t) in c.covering_tests.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape(t));
        }
        out.push(']');
        match &c.verdict {
            ChainVerdict::Violated(v) => {
                out.push(',');
                str_field(&mut out, "test", &v.test, true);
                str_field(&mut out, "pi", &v.pi.to_string(), true);
                str_field(&mut out, "witness", &v.witness.to_string(), false);
            }
            ChainVerdict::EngineError { reason } => {
                out.push(',');
                str_field(&mut out, "reason", reason, false);
            }
            _ => {}
        }
        out.push('}');
    }
    out.push_str("],");
    out.push_str("\"stats\":{");
    num_field(&mut out, "static_chains", r.stats.static_chains, true);
    num_field(&mut out, "tests_selected", r.stats.tests_selected, true);
    num_field(&mut out, "tests_executed", r.stats.tests_executed, true);
    num_field(&mut out, "branches_seen", r.stats.branches_seen, true);
    num_field(&mut out, "branches_recorded", r.stats.branches_recorded, true);
    num_field(&mut out, "target_hits", r.stats.target_hits, true);
    num_field(&mut out, "solver_calls", r.stats.solver_calls, true);
    num_field(&mut out, "solver_unknowns", r.stats.solver_unknowns, true);
    num_field(&mut out, "wall_ms", r.stats.wall.as_millis() as u64, false);
    out.push_str("}}");
    out
}

/// Render a full enforcement (gate) report.
pub fn enforcement_json(e: &EnforcementReport) -> String {
    let mut out = String::from("{");
    num_field(&mut out, "schema_version", SCHEMA_VERSION, true);
    str_field(&mut out, "version", &e.version, true);
    str_field(&mut out, "decision", &e.decision.to_string(), true);
    str_field(&mut out, "fail_mode", &e.fail_mode.to_string(), true);
    num_field(&mut out, "review_needed", e.review_needed as u64, true);
    num_field(&mut out, "engine_errors", e.engine_errors as u64, true);
    num_field(&mut out, "degraded_rules", e.degraded_rules as u64, true);
    num_field(&mut out, "retries", e.retries, true);
    out.push_str("\"warnings\":[");
    for (i, w) in e.warnings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape(w));
    }
    out.push_str("],");
    out.push_str("\"rules\":[");
    for (i, r) in e.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&rule_report_json(r));
    }
    out.push_str("]}");
    out
}

/// A parsed JSON value — the reader side of the module, used by the
/// `lisa serve` NDJSON socket protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (None on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience: string member of an object.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Convenience: numeric member of an object.
    pub fn u64_of(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound one request line of
/// `[`s overflows the stack; nothing this repository writes nests
/// deeper than a handful of levels.
const MAX_JSON_DEPTH: usize = 128;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn eat_word(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected `{word}` at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_word("null").map(|_| Json::Null),
            Some(b't') => self.eat_word("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_word("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => self.nested(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// An array or object, one level deeper than its parent.
    fn nested(&mut self) -> Result<Json, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!("nesting deeper than {MAX_JSON_DEPTH} at offset {}", self.pos));
        }
        self.depth += 1;
        let v = if self.peek() == Some(b'[') { self.array() } else { self.object() };
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else { return Err("unterminated string".to_string()) };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else { return Err("truncated escape".to_string()) };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: take the whole sequence verbatim.
                    let start = self.pos - 1;
                    while matches!(self.bytes.get(self.pos), Some(c) if c & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| format!("invalid utf-8 in string: {e}"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let chunk = self.bytes.get(self.pos..end).ok_or("truncated \\u escape")?;
        // Exactly four ASCII hex digits: `from_str_radix` would also take
        // a leading `+`.
        let mut code = 0;
        for &b in chunk {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u{}", String::from_utf8_lossy(chunk)))?;
            code = code * 16 + digit;
        }
        self.pos = end;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&hi) {
            // Surrogate pair: expect an immediately following \uXXXX low half.
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(format!("unpaired surrogate \\u{hi:04x}"));
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("invalid codepoint {code:#x}"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig, TestSelection};
    use lisa_analysis::TargetSpec;
    use lisa_concolic::{discover_tests, SystemVersion};
    use lisa_lang::Program;
    use lisa_oracle::SemanticRule;

    fn sample_report() -> RuleReport {
        let src = "struct S { ok: bool }\n\
             global store: map<int, S>;\n\
             fn act(e: S) {}\n\
             fn drive(i: int) { let e: S = store.get(i); if (e == null) { return; } act(e); }\n\
             fn test_drive() { store.put(1, new S { ok: true }); drive(1); }";
        let p = Program::parse_single("m", src).expect("parse");
        let v = SystemVersion::new("v", p.clone(), discover_tests(&p, "test_"));
        let rule = SemanticRule::new(
            "R \"quoted\"",
            "desc with\nnewline",
            TargetSpec::Call { callee: "act".into() },
            "e != null && e.ok == true",
        )
        .expect("rule");
        Pipeline::new(PipelineConfig { selection: TestSelection::All, ..Default::default() })
            .check_rule(&v, &rule)
    }

    #[test]
    fn escaping_is_correct() {
        assert_eq!(escape("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn parser_reads_what_writer_writes() {
        let j = Json::parse(&rule_report_json(&sample_report())).expect("parse");
        assert!(j.str_of("rule").is_some());
        assert!(j.u64_of("violated").is_some());
        assert!(matches!(j.get("chains"), Some(Json::Arr(_))));
        // The tricky escapes round-trip through write → parse.
        assert_eq!(j.str_of("rule"), Some("R \"quoted\""));
        assert_eq!(j.str_of("description"), Some("desc with\nnewline"));
    }

    #[test]
    fn parser_handles_scalars_nesting_and_unicode() {
        let j = Json::parse(r#"{"a":[1,-2.5,true,false,null],"b":{"c":"\u0041\ud83d\ude00\n"}}"#)
            .expect("parse");
        let Some(Json::Arr(items)) = j.get("a") else { panic!("a") };
        assert_eq!(items[0], Json::Num(1.0));
        assert_eq!(items[1], Json::Num(-2.5));
        assert_eq!(items[2], Json::Bool(true));
        assert_eq!(items[4], Json::Null);
        assert_eq!(j.get("b").and_then(|b| b.str_of("c")), Some("A\u{1f600}\n"));
        assert_eq!(Json::parse("\"caf\u{e9}\"").expect("utf8"), Json::Str("caf\u{e9}".into()));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "1 2", "\"\\q\"", "\"\\ud800x\"",
            "{\"a\":1}garbage",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#, r#""\ud83d\u+e00""#] {
            assert!(Json::parse(bad).is_err(), "{bad} should not parse");
        }
        assert_eq!(Json::parse(r#""\u004a\u004A""#).expect("hex"), Json::Str("JJ".into()));
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_JSON_DEPTH + 1)).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_JSON_DEPTH + 1), "}".repeat(MAX_JSON_DEPTH + 1));
        assert!(Json::parse(&objects).is_err());
        // One unterminated request line that fits under the serve line cap,
        // parsed on a small stack: an error, not a stack overflow.
        let line = "[".repeat(65_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&line).map(|_| ()))
            .expect("spawn")
            .join()
            .expect("parse must not overflow the stack");
        assert!(parsed.unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn rule_report_json_has_expected_fields() {
        let j = rule_report_json(&sample_report());
        for key in [
            "\"rule\":", "\"target\":", "\"condition\":", "\"violated\":",
            "\"chains\":[", "\"verdict\":", "\"stats\":{", "\"wall_ms\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Escapes applied to the tricky rule id and description.
        assert!(j.contains("R \\\"quoted\\\""), "{j}");
        assert!(j.contains("desc with\\nnewline"), "{j}");
    }

    #[test]
    fn violation_details_serialized() {
        let j = rule_report_json(&sample_report());
        assert!(j.contains("\"verdict\":\"VIOLATED\""), "{j}");
        assert!(j.contains("\"witness\":"), "{j}");
        assert!(j.contains("\"pi\":"), "{j}");
    }

    #[test]
    fn json_is_structurally_balanced() {
        let j = rule_report_json(&sample_report());
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in j.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced at {j}");
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
