//! `check_trace` — validate a `dpfill-xfill --trace` JSONL file.
//!
//! The CI trace job runs the streaming suite with `--trace` and feeds
//! the result here: every line must parse as a JSON object matching
//! the documented event schema (README "Observability"), every `exit`
//! must pair with a prior `enter` of the same id and name, and every
//! span opened must be closed by end of file. Exit 0 prints a one-line
//! summary; any violation exits 1 naming the offending line.
//!
//! ```sh
//! cargo run -p dpfill-harness --example check_trace -- run.jsonl
//! ```
//!
//! The parser is a self-contained recursive-descent JSON reader — the
//! workspace is dependency-free by policy, so no serde.

use std::collections::HashMap;
use std::process::ExitCode;

/// A parsed JSON value. Numbers keep their raw text: the schema only
/// ever asks "is it an unsigned integer", which the text answers
/// without committing to a float representation.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
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
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        raw.parse::<f64>()
            .map_err(|_| format!("bad number {raw:?} at byte {start}"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences
                    // never contain '"' or '\\' continuation bytes).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-UTF-8 string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn parse_line(text: &str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes after value at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Requires `obj[key]` to be an unsigned integer, returning it.
fn want_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .ok_or_else(|| format!("missing {key:?}"))?
        .as_u64()
        .ok_or_else(|| format!("{key:?} is not an unsigned integer"))
}

/// Requires `obj[key]` to be a non-empty string, returning it.
fn want_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    let s = obj
        .get(key)
        .ok_or_else(|| format!("missing {key:?}"))?
        .as_str()
        .ok_or_else(|| format!("{key:?} is not a string"))?;
    if s.is_empty() {
        return Err(format!("{key:?} is empty"));
    }
    Ok(s)
}

/// Validates one event line against the schema, updating the open-span
/// table. Returns the event kind for the summary.
fn check_event(obj: &Json, open: &mut HashMap<u64, String>) -> Result<&'static str, String> {
    if !matches!(obj, Json::Obj(_)) {
        return Err("line is not a JSON object".to_string());
    }
    match want_str(obj, "ev")? {
        "enter" => {
            let id = want_u64(obj, "id")?;
            want_u64(obj, "parent")?;
            want_u64(obj, "tid")?;
            want_u64(obj, "ts")?;
            let name = want_str(obj, "name")?;
            match obj.get("attrs") {
                None | Some(Json::Obj(_)) => {}
                Some(_) => return Err("\"attrs\" is not an object".to_string()),
            }
            if open.insert(id, name.to_string()).is_some() {
                return Err(format!("span id {id} entered twice"));
            }
            Ok("enter")
        }
        "exit" => {
            let id = want_u64(obj, "id")?;
            want_u64(obj, "tid")?;
            want_u64(obj, "ts")?;
            want_u64(obj, "dur_ns")?;
            let name = want_str(obj, "name")?;
            match obj.get("attrs") {
                None | Some(Json::Obj(_)) => {}
                Some(_) => return Err("\"attrs\" is not an object".to_string()),
            }
            match open.remove(&id) {
                Some(entered) if entered == name => Ok("exit"),
                Some(entered) => Err(format!(
                    "span id {id} entered as {entered:?} but exited as {name:?}"
                )),
                None => Err(format!("span id {id} exited without an enter")),
            }
        }
        "counter" => {
            want_str(obj, "name")?;
            want_u64(obj, "value")?;
            Ok("counter")
        }
        other => Err(format!("unknown event kind {other:?}")),
    }
}

fn run() -> Result<String, String> {
    let path = std::env::args()
        .nth(1)
        .ok_or("usage: check_trace FILE.jsonl")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut open: HashMap<u64, String> = HashMap::new();
    let mut counts: HashMap<&'static str, u64> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = Parser::parse_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let kind =
            check_event(&obj, &mut open).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        *counts.entry(kind).or_insert(0) += 1;
    }
    if !open.is_empty() {
        let mut ids: Vec<&u64> = open.keys().collect();
        ids.sort();
        return Err(format!(
            "{path}: {} span(s) never exited (ids {:?})",
            open.len(),
            ids
        ));
    }
    let enters = counts.get("enter").copied().unwrap_or(0);
    let exits = counts.get("exit").copied().unwrap_or(0);
    let counters = counts.get("counter").copied().unwrap_or(0);
    Ok(format!(
        "{path}: ok — {enters} spans ({exits} exits), {counters} counters"
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("check_trace: {message}");
            ExitCode::FAILURE
        }
    }
}
