//! Lint corpus: a hot-path file. Exercises no-unwrap, hot-alloc,
//! wall-clock, and journal-flush, plus the exemptions (test scope, exempt
//! constructors) and same-line / next-line waivers. Its findings are
//! pinned line by line in `tests/lint_workspace.rs`.
//! This file is test data — it is never compiled.

pub struct Sim {
    slots: Vec<u64>,
}

impl Sim {
    pub fn new() -> Self {
        // Exempt constructor: allocation here is fine for both scanners.
        Sim {
            slots: Vec::with_capacity(64),
        }
    }

    pub fn step(&mut self, x: Option<u64>) -> u64 {
        let v = x.unwrap();
        let mut log = Vec::new();
        let name = v.to_string();
        let t = Instant::now();
        let boxed = Box::new(v);
        v
    }

    pub fn waived_step(&mut self, x: Option<u64>) -> u64 {
        x.unwrap() // lint: allow(no-unwrap)
    }

    pub fn waived_alloc(&mut self) {
        // lint: allow(hot-alloc)
        let scratch = vec![0u8; 16];
    }

    pub fn save(&self, out: &mut W, rec: &R) {
        writeln!(out, "{}", rec.to_json_line());
        out.flush();
    }

    pub fn save_late_flush(&self, out: &mut W, rec: &R) {
        writeln!(out, "{}", rec.to_json_line());
        self.touch();
        out.flush();
    }

    pub fn save_unflushed(&self, out: &mut W, rec: &R) {
        writeln!(out, "{}", rec.to_json_line());
        self.touch();
        self.touch();
        self.touch();
        out.flush();
    }

    pub fn decoys(&self) {
        let s = "calling .unwrap() or Vec::new( here is fine";
        let c = '"';
        /* Instant::now( inside a block comment is fine */
        // and .to_string( in a line comment too
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_scope_is_exempt() {
        let v = Some(3u64).unwrap();
        let buf = Vec::new();
        let s = String::from("ok");
    }
}
