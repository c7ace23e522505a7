//! The workspace's one JSON writer for measurement records.
//!
//! Run reports, their rows, compact reports, stream checkpoints and
//! metrics snapshots are written through [`ToJson`] for golden digests
//! and byte-level equality checks. Nothing parses the output back, so
//! the format needs only to be deterministic:
//!
//! * integers and `bool` as `Display` writes them;
//! * `f64` as `f64::to_string` writes it (`1`, `2.5`, `-0`), and `null`
//!   when not finite, since JSON has no NaN or infinity;
//! * strings quoted by `write_str`, the one escaper;
//! * `Option` as the value or `null`, sequences as `[...]`, and
//!   `BTreeMap<String, _>` as an object in key order;
//! * named structs as an object with one key per field, in the order
//!   [`json_struct!`](crate::json_struct) lists them.
//!
//! ```
//! use clamshell_sim::json;
//!
//! struct Point {
//!     x: u32,
//!     y: Vec<f64>,
//! }
//! clamshell_sim::json_struct!(Point { x, y });
//!
//! assert_eq!(json::to_string(&Point { x: 3, y: vec![1.0, 2.5] }), r#"{"x":3,"y":[1,2.5]}"#);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A value with one JSON encoding.
pub trait ToJson {
    /// Append the JSON encoding of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// The JSON encoding of `value`.
pub fn to_string<T: ?Sized + ToJson>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Append `s` to `out` as a quoted JSON string: short escapes for `"`,
/// `\`, `\n`, `\r` and `\t`, `\u00XX` for other control characters, and
/// everything else as is.
///
/// ```
/// assert_eq!(clamshell_sim::json::to_string("a\"b\n"), r#""a\"b\n""#);
/// ```
fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Implement [`ToJson`] for a named struct as an object of its fields,
/// in the order listed, which should be declaration order. The impl
/// destructures `Self { .. }` with every listed field and no `..`, so a
/// field left out of the list is a compile error:
///
/// ```compile_fail,E0027
/// struct Pair {
///     a: u32,
///     b: u32,
/// }
/// clamshell_sim::json_struct!(Pair { a });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $first:ident $(, $field:ident)* $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut ::std::string::String) {
                let Self { $first, $($field),* } = self;
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::json::ToJson::write_json($first, out);
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    $crate::json::ToJson::write_json($field, out);
                )*
                out.push('}');
            }
        }
    };
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_to_json!(u32, u64, usize, i64, bool);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: ?Sized + ToJson> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, k);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_and_containers() {
        let mut s = String::new();
        1u32.write_json(&mut s);
        (-2i64).write_json(&mut s);
        1.5f64.write_json(&mut s);
        true.write_json(&mut s);
        "a\"b".write_json(&mut s);
        assert_eq!(s, r#"1-21.5true"a\"b""#);

        assert_eq!(to_string(&vec![Some(1u32), None]), "[1,null]");
        assert_eq!(to_string(&[0u64; 0][..]), "[]");
        let map: BTreeMap<String, u64> = [("b".into(), 2), ("a".into(), 1)].into();
        assert_eq!(to_string(&map), r#"{"a":1,"b":2}"#);
        assert_eq!(to_string(&BTreeMap::<String, u64>::new()), "{}");
    }

    #[test]
    fn floats_keep_to_string_and_non_finite_is_null() {
        assert_eq!(to_string(&1.0f64), "1");
        assert_eq!(to_string(&0.1f64), "0.1");
        assert_eq!(to_string(&1e21f64), "1000000000000000000000");
        assert_eq!(to_string(&0.0f64), "0");
        assert_eq!(to_string(&-0.0f64), "-0");
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(to_string(&f64::NEG_INFINITY), "null");
    }

    #[test]
    fn every_escape_branch() {
        assert_eq!(to_string("\""), r#""\"""#);
        assert_eq!(to_string("\\"), r#""\\""#);
        assert_eq!(to_string("\n"), r#""\n""#);
        assert_eq!(to_string("\r"), r#""\r""#);
        assert_eq!(to_string("\t"), r#""\t""#);
        assert_eq!(to_string("\u{0}\u{8}\u{1f}"), r#""\u0000\u0008\u001f""#);
        assert_eq!(to_string(" ~\u{7f}é→😀"), "\" ~\u{7f}é→😀\"");
    }

    struct Inner {
        v: f64,
    }
    json_struct!(Inner { v });

    struct Outer {
        name: &'static str,
        inner: Inner,
        list: Vec<Inner>,
        maybe: Option<Inner>,
    }
    json_struct!(Outer { name, inner, list, maybe });

    #[test]
    fn struct_shapes() {
        let outer = Outer {
            name: "o",
            inner: Inner { v: 0.5 },
            list: vec![Inner { v: 1.0 }, Inner { v: f64::NAN }],
            maybe: None,
        };
        assert_eq!(
            to_string(&outer),
            r#"{"name":"o","inner":{"v":0.5},"list":[{"v":1},{"v":null}],"maybe":null}"#
        );
    }
}
