//! Lint corpus: an ordinary production file (not hot, not perf.rs).
//! Allocation is allowed here; no-unwrap, wall-clock, and journal-flush
//! still apply — wall-clock even inside test scope. Mixes in lexical
//! forms a line-by-line scanner gets wrong: raw strings, char literals,
//! lifetimes, and block comments. Findings are pinned line by line.
//! This file is test data — it is never compiled.

pub fn alloc_freely() -> Vec<String> {
    let mut v = Vec::new();
    v.push(String::from("allocating off the hot path is fine"));
    v
}

pub fn bad_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn bad_expect(x: Option<u32>) -> u32 {
    x.expect("boom")
}

pub fn good_variants(x: Option<u32>) -> u32 {
    x.unwrap_or(0);
    x.unwrap_or_else(|| 1);
    x.unwrap_or_default()
}

pub fn lexical_decoys<'a>(s: &'a str) -> &'a str {
    let raw = r"no .unwrap() fires from a raw string";
    let rawer = r#"nor from r# form: Instant::now( stays data"#;
    let q = '\'';
    let lifetime_not_char: &'static str = "x";
    /* a block comment
       with .expect( spread
       over lines */
    s
}

pub fn timed_loop() {
    let t0 = Instant::now();
    let wall = SystemTime::now();
}

#[cfg(test)]
mod tests {
    #[test]
    fn clocks_fire_even_here() {
        let t = Instant::now();
        let v = Some(1).unwrap();
    }
}
