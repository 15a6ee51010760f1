//! Fixture bench.

fn main() {
    println!("{}", core::api::from_bench());
}
