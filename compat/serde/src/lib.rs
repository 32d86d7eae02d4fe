//! Offline shim of the `serde` facade used by this workspace.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal serialization framework under the `serde`/`serde_json` names:
//! a JSON [`Value`] model, the [`Serialize`] trait over it with a derive
//! macro (re-exported from the vendored `serde_derive`), and a
//! [`Deserialize`] trait that only [`Value`] implements. The visible API —
//! `#[derive(Serialize)]`, `serde_json::to_string`, and `from_str` into a
//! `Value` — matches what the workspace uses; the wire format is standard
//! JSON with struct fields in declaration order, so exports stay
//! byte-deterministic. Nothing in the workspace parses JSON into a record
//! type: JSON lines are a write-only export.

pub use serde_derive::Serialize;

/// An owned JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map), which
/// both keeps output deterministic and avoids a hashed container in a
/// serialization path — see the determinism lints in `cloudy-audit`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Negative integers.
    Int(i64),
    /// Non-negative integers.
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types convertible to a JSON [`Value`].
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Types constructible from a JSON [`Value`]; only [`Value`] itself is.
///
/// The lifetime parameter mirrors upstream serde's `Deserialize<'de>` so
/// that bounds like `for<'de> Deserialize<'de>` written against real serde
/// keep compiling; this shim only deserializes from owned values.
pub trait Deserialize<'de>: Sized {
    fn from_value(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Serialize impls for std types
// ---------------------------------------------------------------------------

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::UInt(v as u64) } else { Value::Int(v) }
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for std::net::Ipv4Addr {
    /// Human-readable form, matching upstream serde ("a.b.c.d").
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}
