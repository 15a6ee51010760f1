//! Fixture binary: every library call is a turbofish call.

use core::generic::{widen, Gauge, Lanes, Meter, Probe};

fn main() {
    let free = widen::<4>(1);
    let assoc = Lanes::<4>::fill(1);
    let method = Meter.tally::<4>(9);
    let qualified = <Gauge as Probe>::read(8);
    let mut mlp = Mlp::default();
    let batch = mlp.evaluate_batch(&[1, 2]);
    println!("{free} {assoc} {method} {qualified} {batch}");
    println!("{} {}", sum(&[1]), parse("7"));
}
