//! `#[derive(Serialize, Deserialize)]` for the local `serde` stand-in.
//!
//! Written against `proc_macro` alone (no `syn`/`quote`: the sandbox has
//! no registry). It parses what the workspace declares — non-generic
//! structs with named fields, newtype structs, and enums with unit,
//! newtype and struct variants — and these attributes: on containers
//! `rename_all = "snake_case"` and `tag = "..."`; on fields `default`,
//! `default = "path"`, `skip`, `skip_serializing_if = "path"`, `flatten`
//! and `rename = "..."`. Anything else is a compile error, not a silent
//! difference from the published crate.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    rename_all_snake: bool,
    tag: Option<String>,
    rename: Option<String>,
    /// `Some(None)` is `default`, `Some(Some(path))` is `default = "path"`.
    default: Option<Option<String>>,
    skip: bool,
    skip_serializing_if: Option<String>,
    flatten: bool,
}

struct Field {
    name: String,
    attrs: Attrs,
}

enum Shape {
    Unit,
    /// Tuple with this many members.
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    attrs: Attrs,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: Attrs,
    body: Body,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn unquote(lit: &str) -> String {
    let inner = lit
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or_else(|| panic!("serde stand-in: expected a string literal, got {lit}"));
    assert!(
        !inner.contains('\\'),
        "serde stand-in: escapes in attribute strings are not supported: {lit}"
    );
    inner.to_owned()
}

/// Consume leading `#[...]` attributes, folding `#[serde(...)]` into `Attrs`.
fn take_attrs(it: &mut Tokens) -> Attrs {
    let mut attrs = Attrs::default();
    while matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            panic!("serde stand-in: malformed attribute");
        };
        let mut inner = g.stream().into_iter();
        match inner.next() {
            Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            panic!("serde stand-in: malformed #[serde] attribute");
        };
        let mut args = args.stream().into_iter().peekable();
        while let Some(tt) = args.next() {
            let key = match tt {
                TokenTree::Ident(i) => i.to_string(),
                TokenTree::Punct(p) if p.as_char() == ',' => continue,
                other => panic!("serde stand-in: unexpected `{other}` in #[serde]"),
            };
            let value = match args.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                    args.next();
                    match args.next() {
                        Some(TokenTree::Literal(l)) => Some(unquote(&l.to_string())),
                        other => panic!("serde stand-in: bad value for `{key}`: {other:?}"),
                    }
                }
                _ => None,
            };
            match (key.as_str(), value) {
                ("rename_all", Some(v)) if v == "snake_case" => attrs.rename_all_snake = true,
                ("tag", Some(v)) => attrs.tag = Some(v),
                ("rename", Some(v)) => attrs.rename = Some(v),
                ("default", v) => attrs.default = Some(v),
                ("skip", None) => attrs.skip = true,
                ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
                ("flatten", None) => attrs.flatten = true,
                (k, v) => panic!("serde stand-in: unsupported attribute `{k}` ({v:?})"),
            }
        }
    }
    attrs
}

fn skip_visibility(it: &mut Tokens) {
    if matches!(it.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Skip one type (or discriminant expression) up to a top-level comma.
fn skip_to_comma(it: &mut Tokens) {
    let mut angle = 0i32;
    for tt in it.by_ref() {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
        }
    }
}

fn named_fields(stream: TokenStream) -> Vec<Field> {
    let mut it = stream.into_iter().peekable();
    let mut out = Vec::new();
    loop {
        let attrs = take_attrs(&mut it);
        skip_visibility(&mut it);
        let Some(tt) = it.next() else { break };
        let TokenTree::Ident(name) = tt else {
            panic!("serde stand-in: expected a field name, got `{tt}`");
        };
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde stand-in: expected `:` after field, got {other:?}"),
        }
        skip_to_comma(&mut it);
        out.push(Field {
            name: name.to_string(),
            attrs,
        });
    }
    out
}

fn tuple_arity(stream: TokenStream) -> usize {
    let mut it = stream.into_iter().peekable();
    let mut n = 0;
    while it.peek().is_some() {
        let _ = take_attrs(&mut it);
        skip_visibility(&mut it);
        if it.peek().is_none() {
            break;
        }
        skip_to_comma(&mut it);
        n += 1;
    }
    n
}

fn variants(stream: TokenStream) -> Vec<Variant> {
    let mut it = stream.into_iter().peekable();
    let mut out = Vec::new();
    loop {
        let attrs = take_attrs(&mut it);
        let Some(tt) = it.next() else { break };
        let TokenTree::Ident(name) = tt else {
            panic!("serde stand-in: expected a variant name, got `{tt}`");
        };
        let shape = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = tuple_arity(g.stream());
                it.next();
                Shape::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = named_fields(g.stream());
                it.next();
                Shape::Named(f)
            }
            _ => Shape::Unit,
        };
        skip_to_comma(&mut it); // discriminant, if any, and the comma
        out.push(Variant {
            name: name.to_string(),
            attrs,
            shape,
        });
    }
    out
}

fn parse(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    let attrs = take_attrs(&mut it);
    skip_visibility(&mut it);
    let kind = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in: expected struct or enum, got {other:?}"),
    };
    let name = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in: expected a type name, got {other:?}"),
    };
    if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde stand-in: generic type `{name}` is not supported");
    }
    let body = match (kind.as_str(), it.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Shape::Named(named_fields(g.stream())))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Shape::Tuple(tuple_arity(g.stream())))
        }
        ("struct", _) => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) => Body::Enum(variants(g.stream())),
        (k, _) => panic!("serde stand-in: cannot derive for `{k} {name}`"),
    };
    Item { name, attrs, body }
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

fn variant_key(item: &Item, v: &Variant) -> String {
    match &v.attrs.rename {
        Some(r) => r.clone(),
        None if item.attrs.rename_all_snake => snake_case(&v.name),
        None => v.name.clone(),
    }
}

fn field_key(f: &Field) -> String {
    f.attrs.rename.clone().unwrap_or_else(|| f.name.clone())
}

/// Statements writing each field as `key: value`; `access` maps a field
/// name to the expression holding a reference to it.
fn ser_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    for f in fields {
        if f.attrs.skip {
            continue;
        }
        let r = access(&f.name);
        if f.attrs.flatten {
            out += &format!("::serde::Serialize::ser_fields({r}, w);");
            continue;
        }
        let write = format!(
            "w.key({:?}); ::serde::Serialize::ser({r}, w);",
            field_key(f)
        );
        match &f.attrs.skip_serializing_if {
            Some(pred) => out += &format!("if !{pred}({r}) {{ {write} }}"),
            None => out += &write,
        }
    }
    out
}

/// `name: expr,` initialisers reading each field from `obj` (a `&Map`)
/// or, for flattened fields, from `v` (the enclosing `&Value`).
fn de_named(fields: &[Field]) -> String {
    let mut out = String::new();
    for f in fields {
        let default = match &f.attrs.default {
            Some(Some(path)) => Some(path.clone()),
            Some(None) => Some("::core::default::Default::default".to_owned()),
            None => None,
        };
        let expr = if f.attrs.skip {
            format!(
                "{}()",
                default.unwrap_or_else(|| "::core::default::Default::default".to_owned())
            )
        } else if f.attrs.flatten {
            "::serde::Deserialize::de(v)?".to_owned()
        } else if let Some(d) = default {
            format!("::serde::json::field_or(obj, {:?}, {d})?", field_key(f))
        } else {
            format!("::serde::json::field(obj, {:?})?", field_key(f))
        };
        out += &format!("{}: {expr},", f.name);
    }
    out
}

fn binders(fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| f.name.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn derive_serialize(item: &Item) -> String {
    let name = &item.name;
    let (ser, ser_fields) = match &item.body {
        Body::Struct(Shape::Named(fields)) => (
            "w.begin_object(); ::serde::Serialize::ser_fields(self, w); w.end_object();".to_owned(),
            Some(ser_named(fields, |f| format!("&self.{f}"))),
        ),
        Body::Struct(Shape::Tuple(1)) => ("::serde::Serialize::ser(&self.0, w);".to_owned(), None),
        Body::Struct(_) => panic!("serde stand-in: unsupported struct shape for `{name}`"),
        Body::Enum(vs) => {
            let mut arms = String::new();
            for v in vs {
                let key = variant_key(item, v);
                let vn = &v.name;
                let arm = match (&item.attrs.tag, &v.shape) {
                    (None, Shape::Unit) => format!("{name}::{vn} => w.str({key:?}),"),
                    (None, Shape::Tuple(1)) => format!(
                        "{name}::{vn}(x) => {{ w.begin_object(); w.key({key:?}); \
                         ::serde::Serialize::ser(x, w); w.end_object(); }}"
                    ),
                    (None, Shape::Named(fs)) => format!(
                        "{name}::{vn} {{ {} }} => {{ w.begin_object(); w.key({key:?}); \
                         w.begin_object(); {} w.end_object(); w.end_object(); }}",
                        binders(fs),
                        ser_named(fs, str::to_owned)
                    ),
                    (Some(tag), Shape::Unit) => format!(
                        "{name}::{vn} => {{ w.begin_object(); w.key({tag:?}); w.str({key:?}); \
                         w.end_object(); }}"
                    ),
                    (Some(tag), Shape::Tuple(1)) => format!(
                        "{name}::{vn}(x) => {{ w.begin_object(); w.key({tag:?}); w.str({key:?}); \
                         ::serde::Serialize::ser_fields(x, w); w.end_object(); }}"
                    ),
                    (Some(tag), Shape::Named(fs)) => format!(
                        "{name}::{vn} {{ {} }} => {{ w.begin_object(); w.key({tag:?}); \
                         w.str({key:?}); {} w.end_object(); }}",
                        binders(fs),
                        ser_named(fs, str::to_owned)
                    ),
                    (_, Shape::Tuple(_)) => {
                        panic!("serde stand-in: unsupported tuple variant `{name}::{vn}`")
                    }
                };
                arms += &arm;
            }
            (format!("match self {{ {arms} }}"), None)
        }
    };
    let ser_fields = ser_fields
        .map(|body| format!("fn ser_fields(&self, w: &mut ::serde::json::Writer) {{ {body} }}"))
        .unwrap_or_default();
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
           fn ser(&self, w: &mut ::serde::json::Writer) {{ {ser} }} {ser_fields} }}"
    )
}

fn derive_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Named(fields)) => format!(
            "let obj = ::serde::json::object(v, \"struct {name}\")?; let _ = obj; \
             Ok({name} {{ {} }})",
            de_named(fields)
        ),
        Body::Struct(Shape::Tuple(1)) => format!("Ok({name}(::serde::Deserialize::de(v)?))"),
        Body::Struct(_) => panic!("serde stand-in: unsupported struct shape for `{name}`"),
        Body::Enum(vs) => match &item.attrs.tag {
            None => {
                let mut unit_arms = String::new();
                let mut keyed_arms = String::new();
                for v in vs {
                    let key = variant_key(item, v);
                    let vn = &v.name;
                    match &v.shape {
                        Shape::Unit => {
                            unit_arms += &format!("{key:?} => Ok({name}::{vn}),");
                            keyed_arms += &format!("{key:?} => Ok({name}::{vn}),");
                        }
                        Shape::Tuple(1) => {
                            keyed_arms += &format!(
                                "{key:?} => Ok({name}::{vn}(::serde::Deserialize::de(v)\
                                 .map_err(|e| e.context({key:?}))?)),"
                            );
                        }
                        Shape::Named(fs) => {
                            keyed_arms += &format!(
                                "{key:?} => {{ let obj = ::serde::json::object(v, \
                                 \"struct variant {name}::{vn}\")?; let _ = obj; \
                                 Ok({name}::{vn} {{ {} }}) }}",
                                de_named(fs)
                            );
                        }
                        Shape::Tuple(_) => {
                            panic!("serde stand-in: unsupported tuple variant `{name}::{vn}`")
                        }
                    }
                }
                format!(
                    "match v {{ \
                       ::serde::json::Value::String(s) => match s.as_str() {{ {unit_arms} \
                         other => Err(::serde::json::Error::unknown_variant(other, \"{name}\")) }}, \
                       ::serde::json::Value::Object(m) if m.len() == 1 => {{ \
                         let (k, v) = m.iter().next().expect(\"one member\"); \
                         match k.as_str() {{ {keyed_arms} \
                           other => Err(::serde::json::Error::unknown_variant(other, \"{name}\")) }} }}, \
                       other => Err(::serde::json::Error::invalid_type(other, \"enum {name}\")) }}"
                )
            }
            Some(tag) => {
                let mut arms = String::new();
                for v in vs {
                    let key = variant_key(item, v);
                    let vn = &v.name;
                    arms += &match &v.shape {
                        Shape::Unit => format!("{key:?} => Ok({name}::{vn}),"),
                        Shape::Tuple(1) => {
                            format!("{key:?} => Ok({name}::{vn}(::serde::Deserialize::de(v)?)),")
                        }
                        Shape::Named(fs) => {
                            format!("{key:?} => Ok({name}::{vn} {{ {} }}),", de_named(fs))
                        }
                        Shape::Tuple(_) => {
                            panic!("serde stand-in: unsupported tuple variant `{name}::{vn}`")
                        }
                    };
                }
                format!(
                    "let obj = ::serde::json::object(v, \"enum {name}\")?; \
                     let tag: ::std::string::String = ::serde::json::field(obj, {tag:?})?; \
                     match tag.as_str() {{ {arms} \
                       other => Err(::serde::json::Error::unknown_variant(other, \"{name}\")) }}"
                )
            }
        },
    };
    format!(
        "#[automatically_derived] impl<'de> ::serde::Deserialize<'de> for {name} {{ \
           fn de(v: &::serde::json::Value) \
             -> ::core::result::Result<Self, ::serde::json::Error> {{ {body} }} }}"
    )
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(input: TokenStream) -> TokenStream {
    derive_serialize(&parse(input))
        .parse()
        .expect("serde stand-in: generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(input: TokenStream) -> TokenStream {
    derive_deserialize(&parse(input))
        .parse()
        .expect("serde stand-in: generated Deserialize impl parses")
}
