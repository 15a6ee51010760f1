//! Fixture test: calls that never root R12.

#[test]
fn test_only_is_seven() {
    assert_eq!(snn::helpers::test_only(), 7);
}
