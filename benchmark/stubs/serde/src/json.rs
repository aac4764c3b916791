//! The JSON data model, writer and parser shared by the `serde` and
//! `serde_json` stand-ins.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Deserialize, Serialize};

/// Object members, sorted by key (the published `serde_json` default).
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON number: integers keep their exact value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(u) => Some(u),
            Number::I(i) => u64::try_from(i).ok(),
            Number::F(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(u) => i64::try_from(u).ok(),
            Number::I(i) => Some(i),
            Number::F(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        })
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::new(f.alternate());
        self.ser(&mut w);
        f.write_str(&w.finish())
    }
}

impl Serialize for Value {
    fn ser(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(Number::U(u)) => w.u64(*u),
            Value::Number(Number::I(i)) => w.i64(*i),
            Value::Number(Number::F(x)) => w.f64(*x),
            Value::String(s) => w.str(s),
            Value::Array(a) => {
                w.begin_array();
                for v in a {
                    w.elem();
                    v.ser(w);
                }
                w.end_array();
            }
            Value::Object(m) => {
                w.begin_object();
                for (k, v) in m {
                    w.key(k);
                    v.ser(w);
                }
                w.end_object();
            }
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn de(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------- errors

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Category {
    Eof,
    Syntax,
    Data,
}

/// Why parsing or rebuilding failed.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
    category: Category,
    line: usize,
    column: usize,
}

impl Error {
    /// The JSON was well formed but does not fit the requested type.
    pub fn data(msg: impl Into<String>) -> Self {
        Error {
            msg: msg.into(),
            category: Category::Data,
            line: 0,
            column: 0,
        }
    }

    pub fn invalid_type(found: &Value, expected: &str) -> Self {
        Error::data(format!(
            "invalid type: {}, expected {expected}",
            found.kind()
        ))
    }

    pub fn unknown_variant(found: &str, of: &str) -> Self {
        Error::data(format!("unknown variant `{found}` of {of}"))
    }

    /// Prefix the message with the member it arose in.
    #[must_use]
    pub fn context(mut self, field: &str) -> Self {
        self.msg = format!("{field}: {}", self.msg);
        self
    }

    /// The input ended before the value did.
    pub fn is_eof(&self) -> bool {
        self.category == Category::Eof
    }

    pub fn is_syntax(&self) -> bool {
        self.category == Category::Syntax
    }

    pub fn is_data(&self) -> bool {
        self.category == Category::Data
    }

    pub fn line(&self) -> usize {
        self.line
    }

    pub fn column(&self) -> usize {
        self.column
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.msg)
        } else {
            write!(
                f,
                "{} at line {} column {}",
                self.msg, self.line, self.column
            )
        }
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------- writer

/// Streaming JSON writer, compact or pretty (two-space indent).
pub struct Writer {
    out: String,
    pretty: bool,
    /// One entry per open array/object: whether it has a member yet.
    open: Vec<bool>,
}

impl Writer {
    pub fn new(pretty: bool) -> Self {
        Writer {
            out: String::with_capacity(256),
            pretty,
            open: Vec::new(),
        }
    }

    pub fn finish(self) -> String {
        self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.open.len() {
                self.out.push_str("  ");
            }
        }
    }

    fn member(&mut self) {
        let has = self.open.last_mut().expect("member outside a container");
        if *has {
            self.out.push(',');
        }
        *has = true;
        self.newline();
    }

    fn close(&mut self, c: char) {
        let had = self.open.pop().expect("close without open");
        if had {
            self.newline();
        }
        self.out.push(c);
    }

    pub fn begin_object(&mut self) {
        self.out.push('{');
        self.open.push(false);
    }

    /// Start the next member of the open object; its value follows.
    pub fn key(&mut self, k: &str) {
        self.member();
        self.str(k);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    pub fn end_object(&mut self) {
        self.close('}');
    }

    pub fn begin_array(&mut self) {
        self.out.push('[');
        self.open.push(false);
    }

    /// Start the next element of the open array; its value follows.
    pub fn elem(&mut self) {
        self.member();
    }

    pub fn end_array(&mut self) {
        self.close(']');
    }

    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    pub fn u64(&mut self, v: u64) {
        use fmt::Write;
        let _ = write!(self.out, "{v}");
    }

    pub fn i64(&mut self, v: i64) {
        use fmt::Write;
        let _ = write!(self.out, "{v}");
    }

    /// Shortest text that parses back to the same bits; non-finite values
    /// become `null`, as in the published crate.
    pub fn f64(&mut self, v: f64) {
        use fmt::Write;
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.null();
        }
    }

    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut from = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc: &str = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[from..i]);
            if esc.is_empty() {
                use fmt::Write;
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(esc);
            }
            from = i + 1;
        }
        self.out.push_str(&s[from..]);
        self.out.push('"');
    }
}

/// Serialize `value` to a string.
pub fn to_string<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer::new(pretty);
    value.ser(&mut w);
    w.finish()
}

// ---------------------------------------------------------------- parser

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    depth: usize,
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(s: &[u8]) -> Result<Value, Error> {
    let mut p = Parser { s, i: 0, depth: 0 };
    let v = p.value()?;
    p.ws();
    if p.i < p.s.len() {
        return Err(p.err(Category::Syntax, "trailing characters"));
    }
    Ok(v)
}

impl Parser<'_> {
    fn err(&self, category: Category, msg: &str) -> Error {
        let upto = &self.s[..self.i.min(self.s.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let column = upto.iter().rev().take_while(|&&b| b != b'\n').count();
        Error {
            msg: msg.to_owned(),
            category,
            line,
            column,
        }
    }

    fn eof(&self, what: &str) -> Error {
        self.err(Category::Eof, &format!("EOF while parsing {what}"))
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.s.get(self.i) {
            self.i += 1;
        }
    }

    fn lit(&mut self, text: &str, v: Value) -> Result<Value, Error> {
        let end = self.i + text.len();
        if self.s.len() < end {
            if text.as_bytes().starts_with(&self.s[self.i..]) {
                self.i = self.s.len();
                return Err(self.eof("a value"));
            }
            return Err(self.err(Category::Syntax, "expected ident"));
        }
        if &self.s[self.i..end] != text.as_bytes() {
            return Err(self.err(Category::Syntax, "expected ident"));
        }
        self.i = end;
        Ok(v)
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.ws();
        match self.s.get(self.i) {
            None => Err(self.eof("a value")),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err(Category::Syntax, "expected value")),
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(Category::Syntax, "recursion limit exceeded"));
        }
        self.i += 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.enter()?;
        let mut out = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            self.depth -= 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(self.value()?);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(out));
                }
                None => return Err(self.eof("a list")),
                Some(_) => return Err(self.err(Category::Syntax, "expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.enter()?;
        let mut out = Map::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            self.depth -= 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.ws();
            match self.s.get(self.i) {
                Some(b'"') => {}
                None => return Err(self.eof("an object")),
                Some(_) => return Err(self.err(Category::Syntax, "key must be a string")),
            }
            let key = self.string()?;
            self.ws();
            match self.s.get(self.i) {
                Some(b':') => self.i += 1,
                None => return Err(self.eof("an object")),
                Some(_) => return Err(self.err(Category::Syntax, "expected `:`")),
            }
            let v = self.value()?;
            out.insert(key, v);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(out));
                }
                None => return Err(self.eof("an object")),
                Some(_) => return Err(self.err(Category::Syntax, "expected `,` or `}`")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.i;
        if self.s[self.i] == b'-' {
            self.i += 1;
        }
        let digits_from = self.i;
        while let Some(b'0'..=b'9') = self.s.get(self.i) {
            self.i += 1;
        }
        if self.i == digits_from {
            return Err(if self.i == self.s.len() {
                self.eof("a value")
            } else {
                self.err(Category::Syntax, "invalid number")
            });
        }
        if self.s[digits_from] == b'0' && self.i - digits_from > 1 {
            return Err(self.err(Category::Syntax, "invalid number"));
        }
        let mut float = false;
        if self.s.get(self.i) == Some(&b'.') {
            float = true;
            self.i += 1;
            let frac_from = self.i;
            while let Some(b'0'..=b'9') = self.s.get(self.i) {
                self.i += 1;
            }
            if self.i == frac_from {
                return Err(if self.i == self.s.len() {
                    self.eof("a value")
                } else {
                    self.err(Category::Syntax, "invalid number")
                });
            }
        }
        if let Some(b'e' | b'E') = self.s.get(self.i) {
            float = true;
            self.i += 1;
            if let Some(b'+' | b'-') = self.s.get(self.i) {
                self.i += 1;
            }
            let exp_from = self.i;
            while let Some(b'0'..=b'9') = self.s.get(self.i) {
                self.i += 1;
            }
            if self.i == exp_from {
                return Err(if self.i == self.s.len() {
                    self.eof("a value")
                } else {
                    self.err(Category::Syntax, "invalid number")
                });
            }
        }
        // The slice is ASCII digits, sign, '.', 'e': always valid UTF-8.
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(i)));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Number(Number::F(f))),
            _ => Err(self.err(Category::Syntax, "number out of range")),
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.s.len() < self.i + 4 {
            self.i = self.s.len();
            return Err(self.eof("a string"));
        }
        let mut n = 0u32;
        for _ in 0..4 {
            let d = (self.s[self.i] as char)
                .to_digit(16)
                .ok_or_else(|| self.err(Category::Syntax, "invalid escape"))?;
            n = n * 16 + d;
            self.i += 1;
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.i += 1; // opening quote
        let mut out: Vec<u8> = Vec::new();
        loop {
            let run_from = self.i;
            while let Some(&b) = self.s.get(self.i) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.i += 1;
            }
            out.extend_from_slice(&self.s[run_from..self.i]);
            match self.s.get(self.i) {
                None => return Err(self.eof("a string")),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out)
                        .map_err(|_| self.err(Category::Syntax, "invalid unicode code point"));
                }
                Some(b'\\') => {
                    self.i += 1;
                    let Some(&e) = self.s.get(self.i) else {
                        return Err(self.eof("a string"));
                    };
                    self.i += 1;
                    let c = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut n = self.hex4()?;
                            if (0xD800..0xDC00).contains(&n) {
                                if self.s.get(self.i) == Some(&b'\\')
                                    && self.s.get(self.i + 1) == Some(&b'u')
                                {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(
                                            self.err(Category::Syntax, "lone leading surrogate")
                                        );
                                    }
                                    n = 0x10000 + ((n - 0xD800) << 10) + (lo - 0xDC00);
                                } else {
                                    return Err(
                                        self.err(Category::Syntax, "lone leading surrogate")
                                    );
                                }
                            }
                            char::from_u32(n).ok_or_else(|| {
                                self.err(Category::Syntax, "invalid unicode code point")
                            })?
                        }
                        _ => return Err(self.err(Category::Syntax, "invalid escape")),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                Some(_) => {
                    return Err(self.err(
                        Category::Syntax,
                        "control character found while parsing a string",
                    ))
                }
            }
        }
    }
}

// ------------------------------------------------- helpers for the derive

/// A required member: absent means `None` for `Option`, else an error.
pub fn field<'de, T: Deserialize<'de>>(obj: &Map<String, Value>, name: &str) -> Result<T, Error> {
    match obj.get(name) {
        Some(v) => T::de(v).map_err(|e| e.context(name)),
        None => T::de_missing(name),
    }
}

/// A `#[serde(default)]` member.
pub fn field_or<'de, T: Deserialize<'de>>(
    obj: &Map<String, Value>,
    name: &str,
    default: impl FnOnce() -> T,
) -> Result<T, Error> {
    match obj.get(name) {
        Some(v) => T::de(v).map_err(|e| e.context(name)),
        None => Ok(default()),
    }
}

/// The object behind a struct, or a type error naming it.
pub fn object<'v>(v: &'v Value, expected: &str) -> Result<&'v Map<String, Value>, Error> {
    match v {
        Value::Object(m) => Ok(m),
        other => Err(Error::invalid_type(other, expected)),
    }
}
