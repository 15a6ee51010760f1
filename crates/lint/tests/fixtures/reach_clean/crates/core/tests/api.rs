//! Fixture test: the waived reference's only caller.

use core::api::{decode_serially, Stack};

#[test]
fn decode_all_matches_the_serial_reference() {
    assert_eq!(Stack::decode_all(&[1, 2]), decode_serially(&[1, 2]));
}
