//! Minimal JSON object writer for the benchmark's output lines.

#[derive(Default)]
pub struct Obj {
    fields: Vec<String>,
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.fields.push(format!("{}:{json}", quote(key)));
        self
    }

    /// A number; non-finite values become `null`, which the result check
    /// rejects.
    pub fn num(self, key: &str, v: f64) -> Self {
        if v.is_finite() {
            self.raw(key, &format!("{v}"))
        } else {
            self.raw(key, "null")
        }
    }

    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, &quote(v))
    }

    pub fn bool(self, key: &str, v: bool) -> Self {
        self.raw(key, if v { "true" } else { "false" })
    }

    pub fn obj(self, key: &str, o: Obj) -> Self {
        self.raw(key, &o.finish())
    }

    pub fn strs(self, key: &str, items: &[String]) -> Self {
        let items: Vec<String> = items.iter().map(|s| quote(s)).collect();
        self.raw(key, &format!("[{}]", items.join(",")))
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}
