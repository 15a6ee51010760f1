//! Fixture driver in a nested workspace.

fn main() {
    println!("{}", core::api::from_nested());
}
