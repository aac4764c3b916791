//! Local stand-in for `serde_json`: the functions, `Value` and `json!`
//! forms the workspace calls, over the data model in the `serde` stand-in.

pub use serde::json::{Error, Map, Number, Value};

use serde::de::DeserializeOwned;
use serde::Serialize;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(serde::json::to_string(value, false))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(serde::json::to_string(value, true))
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Through text: the writer is the only serializer the stand-in has, and
/// its floats parse back to the same bits.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    serde::json::parse(serde::json::to_string(&value, false).as_bytes())
}

pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    T::de(&value)
}

pub fn from_slice<T: DeserializeOwned>(data: &[u8]) -> Result<T> {
    T::de(&serde::json::parse(data)?)
}

pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

/// Build a [`Value`] from JSON-like syntax. Object keys are string
/// literals; a value is `null`, a nested `{...}` / `[...]`, or any
/// serializable expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $crate::json_members!(m $($tt)*);
        $crate::Value::Object(m)
    }};
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut a = ::std::vec::Vec::new();
        $crate::json_elems!(a $($tt)*);
        $crate::Value::Array(a)
    }};
    ($e:expr) => {
        $crate::to_value(&$e).expect("serializable expression")
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_members {
    ($m:ident) => {};
    ($m:ident $k:literal : null $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::String::from($k), $crate::Value::Null);
        $crate::json_members!($m $($($rest)*)?);
    };
    ($m:ident $k:literal : { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::String::from($k), $crate::json!({ $($v)* }));
        $crate::json_members!($m $($($rest)*)?);
    };
    ($m:ident $k:literal : [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::String::from($k), $crate::json!([ $($v)* ]));
        $crate::json_members!($m $($($rest)*)?);
    };
    ($m:ident $k:literal : $v:expr $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::String::from($k), $crate::json!($v));
        $crate::json_members!($m $($($rest)*)?);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_elems {
    ($a:ident) => {};
    ($a:ident null $(, $($rest:tt)*)?) => {
        $a.push($crate::Value::Null);
        $crate::json_elems!($a $($($rest)*)?);
    };
    ($a:ident { $($v:tt)* } $(, $($rest:tt)*)?) => {
        $a.push($crate::json!({ $($v)* }));
        $crate::json_elems!($a $($($rest)*)?);
    };
    ($a:ident [ $($v:tt)* ] $(, $($rest:tt)*)?) => {
        $a.push($crate::json!([ $($v)* ]));
        $crate::json_elems!($a $($($rest)*)?);
    };
    ($a:ident $v:expr $(, $($rest:tt)*)?) => {
        $a.push($crate::json!($v));
        $crate::json_elems!($a $($($rest)*)?);
    };
}
