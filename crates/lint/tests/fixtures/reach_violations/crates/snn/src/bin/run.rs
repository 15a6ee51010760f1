//! Fixture binary: the only root of the tree.

fn main() {
    println!("{}", snn::helpers::served());
}
