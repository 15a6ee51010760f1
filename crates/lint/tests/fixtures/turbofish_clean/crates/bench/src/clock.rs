//! Fixture clock helpers that share their names with std methods.

/// Times a sum; the binary calls it by name.
pub fn sum(xs: &[usize]) -> usize {
    let start = Instant::now();
    xs.len()
}

/// Times a parse; the binary calls it by name.
pub fn parse(text: &str) -> usize {
    let start = Instant::now();
    text.len()
}
