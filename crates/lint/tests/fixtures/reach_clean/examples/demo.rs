//! Fixture example.

fn main() {
    println!("{}", core::api::from_example());
}
