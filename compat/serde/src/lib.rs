//! Offline shim of the `serde` facade used by this workspace.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal serialization framework under the `serde`/`serde_json` names:
//! a JSON [`Value`] model, [`Serialize`]/[`Deserialize`] traits over it, and
//! derive macros (re-exported from the vendored `serde_derive`). The visible
//! API — `#[derive(Serialize, Deserialize)]`, `serde_json::to_string` and
//! `from_str` — matches what the workspace uses; the wire format is
//! standard JSON with struct fields in declaration order, so exports stay
//! byte-deterministic.

pub use serde_derive::{Deserialize, Serialize};

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

impl Error {
    pub fn custom(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

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

/// Types constructible from a JSON [`Value`].
///
/// The lifetime parameter mirrors upstream serde's `Deserialize<'de>` so
/// that bounds like `for<'de> Deserialize<'de>` written against real serde
/// keep compiling; this shim only deserializes from owned values.
pub trait Deserialize<'de>: Sized {
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Fetch and deserialize a field of an object (used by the derive).
pub fn object_field<T: for<'de> Deserialize<'de>>(v: &Value, name: &str) -> Result<T, Error> {
    match v.get(name) {
        Some(field) => T::from_value(field)
            .map_err(|e| Error::custom(format!("field `{name}`: {e}"))),
        None => match v {
            Value::Object(_) => Err(Error::custom(format!("missing field `{name}`"))),
            other => Err(Error::custom(format!("expected object, found {other:?}"))),
        },
    }
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

// ---------------------------------------------------------------------------
// Deserialize impls for std types
// ---------------------------------------------------------------------------

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let v = match *value {
                    Value::UInt(v) => v,
                    Value::Int(v) if v >= 0 => v as u64,
                    Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                        f as u64
                    }
                    ref other => {
                        return Err(Error::custom(format!(
                            "expected unsigned integer, found {other:?}"
                        )))
                    }
                };
                <$t>::try_from(v)
                    .map_err(|_| Error::custom(format!("integer {v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let v = match *value {
                    Value::Int(v) => v,
                    Value::UInt(v) if v <= i64::MAX as u64 => v as i64,
                    Value::Float(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => f as i64,
                    ref other => {
                        return Err(Error::custom(format!("expected integer, found {other:?}")))
                    }
                };
                <$t>::try_from(v)
                    .map_err(|_| Error::custom(format!("integer {v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match *value {
            Value::Float(f) => Ok(f),
            Value::UInt(v) => Ok(v as f64),
            Value::Int(v) => Ok(v as f64),
            ref other => Err(Error::custom(format!("expected number, found {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        f64::from_value(value).map(|f| f as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, found {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, found {other:?}"))),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!("expected array, found {other:?}"))),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a> + Default + Copy, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) if items.len() == N => {
                let mut out = [T::default(); N];
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = T::from_value(item)?;
                }
                Ok(out)
            }
            other => Err(Error::custom(format!("expected array of length {N}, found {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for std::net::Ipv4Addr {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => s
                .parse()
                .map_err(|e| Error::custom(format!("bad IPv4 address {s:?}: {e}"))),
            other => Err(Error::custom(format!("expected IPv4 string, found {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}
