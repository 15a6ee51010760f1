//! Fixture library with public functions no deliverable target runs.

/// Only the test file calls this: an R12 finding.
pub fn test_only() -> u32 {
    7
}

/// Nothing calls `outer`, and only `outer` calls `inner`: R12 flags
/// both, since an unreached caller reaches nothing.
pub fn outer() -> u32 {
    inner() + 1
}

/// Reached only through the unreached `outer`.
pub fn inner() -> u32 {
    1
}

/// The binary calls this: no finding.
pub fn served() -> u32 {
    3
}
