//! Fixture library whose every public function some target reaches.

use std::fmt;

/// Called from the binary.
pub fn from_bin() -> u32 {
    1
}

/// Called from the bench.
pub fn from_bench() -> u32 {
    2
}

/// Called from the example.
pub fn from_example() -> u32 {
    3
}

/// Called only from the nested `perf/` workspace, which the walk skips.
pub fn from_nested() -> u32 {
    4
}

/// A stack of values.
#[derive(Debug, Default)]
pub struct Stack {
    items: Vec<u32>,
}

impl Stack {
    /// Shares its name with `Vec::len`, which the call resolver never
    /// links: R12 matches the binary's `.len()` by name.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Named only as a value, in `map(Self::decode)`.
    pub fn decode(x: u32) -> u32 {
        x + 1
    }

    /// Decodes every value.
    pub fn decode_all(xs: &[u32]) -> Vec<u32> {
        xs.iter().copied().map(Self::decode).collect()
    }
}

/// A total, shown through `Display`.
pub struct Total(pub u32);

impl fmt::Display for Total {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", scaled(self.0))
    }
}

/// Reached through a trait impl, which runs without a call by name.
pub fn scaled(x: u32) -> u32 {
    x * 10
}

/// Only tests call this, under a waiver that says why.
// nc-lint: allow(R12, reason = "serial reference that tests/api.rs compares decode_all against")
pub fn decode_serially(xs: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(xs.len());
    for &x in xs {
        out.push(x + 1);
    }
    out
}

/// Crate-visible only: rustc's dead-code lint covers it, not R12.
pub(crate) fn crate_only() -> u32 {
    5
}
