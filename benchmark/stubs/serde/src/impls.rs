//! `Serialize` / `Deserialize` for the std types the workspace stores.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{Error, Number, Value, Writer};
use crate::{Deserialize, Serialize};

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn de(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => n
                        .as_u64()
                        .and_then(|u| <$t>::try_from(u).ok())
                        .ok_or_else(|| Error::data(format!(
                            "invalid value: {n:?}, expected {}", stringify!($t)
                        ))),
                    other => Err(Error::invalid_type(other, stringify!($t))),
                }
            }
        }
    )*};
}

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser(&self, w: &mut Writer) {
                w.i64(*self as i64);
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn de(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => n
                        .as_i64()
                        .and_then(|i| <$t>::try_from(i).ok())
                        .ok_or_else(|| Error::data(format!(
                            "invalid value: {n:?}, expected {}", stringify!($t)
                        ))),
                    other => Err(Error::invalid_type(other, stringify!($t))),
                }
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, usize);
signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn ser(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn de(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(Number::F(f)) => Ok(*f),
            Value::Number(Number::U(u)) => Ok(*u as f64),
            Value::Number(Number::I(i)) => Ok(*i as f64),
            other => Err(Error::invalid_type(other, "f64")),
        }
    }
}

impl Serialize for bool {
    fn ser(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl<'de> Deserialize<'de> for bool {
    fn de(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::invalid_type(v, "a boolean"))
    }
}

impl Serialize for str {
    fn ser(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for String {
    fn ser(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<'de> Deserialize<'de> for String {
    fn de(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::invalid_type(v, "a string"))
    }
}

/// The published crate borrows a `&'static str` from `'static` input only,
/// which no caller in the workspace has; the stand-in parses into an owned
/// tree and so can never lend one.
impl<'de> Deserialize<'de> for &'static str {
    fn de(_v: &Value) -> Result<Self, Error> {
        Err(Error::data(
            "serde stand-in: cannot borrow a &'static str from parsed JSON",
        ))
    }
}

impl Serialize for Cow<'_, str> {
    fn ser(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Serialize for Path {
    fn ser(&self, w: &mut Writer) {
        w.str(&self.to_string_lossy());
    }
}

impl Serialize for PathBuf {
    fn ser(&self, w: &mut Writer) {
        self.as_path().ser(w);
    }
}

impl<'de> Deserialize<'de> for PathBuf {
    fn de(v: &Value) -> Result<Self, Error> {
        String::de(v).map(PathBuf::from)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn ser(&self, w: &mut Writer) {
        (**self).ser(w);
    }
    fn ser_fields(&self, w: &mut Writer) {
        (**self).ser_fields(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn ser(&self, w: &mut Writer) {
        match self {
            Some(x) => x.ser(w),
            None => w.null(),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn de(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::de(other).map(Some),
        }
    }
    fn de_missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn ser(&self, w: &mut Writer) {
        w.begin_array();
        for x in self {
            w.elem();
            x.ser(w);
        }
        w.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn ser(&self, w: &mut Writer) {
        self.as_slice().ser(w);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn ser(&self, w: &mut Writer) {
        self.as_slice().ser(w);
    }
}

fn array<'v>(v: &'v Value, expected: &str) -> Result<&'v [Value], Error> {
    match v {
        Value::Array(a) => Ok(a),
        other => Err(Error::invalid_type(other, expected)),
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn de(v: &Value) -> Result<Self, Error> {
        array(v, "a sequence")?.iter().map(T::de).collect()
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn de(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::de(v)?;
        let n = items.len();
        items.try_into().map_err(|_| {
            Error::data(format!(
                "invalid length {n}, expected an array of length {N}"
            ))
        })
    }
}

macro_rules! tuple {
    ($n:literal: $($t:ident $i:tt),*) => {
        impl<$($t: Serialize),*> Serialize for ($($t,)*) {
            fn ser(&self, w: &mut Writer) {
                w.begin_array();
                $( w.elem(); self.$i.ser(w); )*
                w.end_array();
            }
        }
        impl<'de, $($t: Deserialize<'de>),*> Deserialize<'de> for ($($t,)*) {
            fn de(v: &Value) -> Result<Self, Error> {
                let a = array(v, concat!("a tuple of size ", $n))?;
                if a.len() != $n {
                    return Err(Error::data(format!(
                        "invalid length {}, expected a tuple of size {}", a.len(), $n
                    )));
                }
                Ok(($($t::de(&a[$i])?,)*))
            }
        }
    };
}

tuple!(2: A 0, B 1);

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn ser(&self, w: &mut Writer) {
        w.begin_object();
        for (k, v) in self {
            w.key(k);
            v.ser(w);
        }
        w.end_object();
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn de(v: &Value) -> Result<Self, Error> {
        crate::json::object(v, "a map")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::de(v).map_err(|e| e.context(k))?)))
            .collect()
    }
}
