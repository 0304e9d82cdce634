//! Just enough JSON output for the result line and the run record.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum J {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> J {
        J::Arr(values.iter().map(|&v| J::Num(v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{:?}` prints every digit an f64 holds and keeps a `.0` on
            // whole numbers; JSON has no NaN or infinity.
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            J::Num(_) => out.push_str("null"),
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    J::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let j = J::obj([
            ("a", J::Num(1.0)),
            ("b", J::Arr(vec![J::Int(2), J::Bool(true)])),
            ("c", J::Str("x\"y".into())),
        ]);
        assert_eq!(j.render(), r#"{"a": 1.0, "b": [2, true], "c": "x\"y"}"#);
    }
}
