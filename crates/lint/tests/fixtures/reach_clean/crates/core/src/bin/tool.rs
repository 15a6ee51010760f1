//! Fixture binary.

use core::api::{from_bin, Stack, Total};

fn main() {
    let stack = Stack::default();
    println!("{} {} {}", from_bin(), stack.len(), Total(1));
    println!("{:?}", Stack::decode_all(&[1, 2]));
}
