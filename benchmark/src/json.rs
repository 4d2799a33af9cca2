//! JSON in and out, over the vendored serde value tree.

use serde::{DeError, Deserialize, Serialize, Value};

/// A value tree that serializes as itself.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

/// Parses JSON text into a value tree.
///
/// # Errors
///
/// Returns the parser's message on malformed text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// Renders a value tree as compact JSON.
pub fn compact(v: &Value) -> String {
    serde_json::to_string(&Json(v.clone())).expect("value trees render")
}

/// Renders a value tree as indented JSON.
pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Json(v.clone())).expect("value trees render")
}

/// An object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number.
pub fn num(x: f64) -> Value {
    Value::F64(x)
}

/// A string.
pub fn string(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// A list of numbers.
pub fn nums(xs: &[f64]) -> Value {
    Value::Array(xs.iter().copied().map(Value::F64).collect())
}

/// The entry `key` of an object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, x)| x)
}
