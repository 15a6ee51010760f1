//! Mesh acceptance tests: the partition / place / route pipeline must
//! reproduce the single-core reference event loop spike-for-spike on a
//! healthy fabric, for every coding scheme and grid size, must unlock
//! networks larger than one core can hold, and must degrade
//! deterministically under fabric faults.

use nc_faults::{FaultModel, FaultPlan};
use nc_hw::mesh::{partition_snn, place_greedy, Fabric, Grid, MeshSnn, MAX_CLUSTER_NEURONS};
use nc_snn::{CodingScheme, SnnNetwork, SnnParams};

const ALL_CODINGS: [CodingScheme; 4] = [
    CodingScheme::PoissonRate,
    CodingScheme::GaussianRate,
    CodingScheme::RankOrder,
    CodingScheme::TimeToFirstSpike,
];

/// A small network with thresholds low enough that presentations fire
/// many times — the inhibition/undo machinery gets real exercise.
fn test_net(inputs: usize, neurons: usize, coding: CodingScheme, seed: u64) -> SnnNetwork {
    let mut params = SnnParams::for_neurons(neurons);
    params.initial_threshold = 600.0;
    SnnNetwork::with_coding(inputs, 10, params, coding, seed)
}

/// A deterministic non-uniform test image.
fn test_pixels(inputs: usize, salt: u64) -> Vec<u8> {
    (0..inputs)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(2654435761)
                .wrapping_add(salt.wrapping_mul(97));
            u8::try_from((x >> 3) & 0xFF).unwrap()
        })
        .collect()
}

#[test]
fn mesh_is_bit_exact_vs_reference_for_all_codings_and_grids() {
    for coding in ALL_CODINGS {
        let mut net = test_net(64, 30, coding, 7);
        for grid in [Grid::new(1, 1), Grid::new(2, 2), Grid::new(4, 4)] {
            let mut mesh = MeshSnn::compile(&net, grid);
            for pseed in [0u64, 1, 2, 0xABCD] {
                let pixels = test_pixels(64, pseed);
                let reference = net.present(&pixels, pseed);
                let routed = mesh.present(&pixels, pseed);
                assert_eq!(
                    routed.winner, reference.winner,
                    "{coding:?} {grid:?} p{pseed}"
                );
                assert_eq!(
                    routed.fires, reference.fires,
                    "{coding:?} {grid:?} p{pseed}"
                );
                // Potentials to the last bit: the mesh's pass and scan
                // must reproduce the reference arithmetic exactly.
                assert_eq!(
                    routed.potentials, reference.potentials,
                    "{coding:?} {grid:?} p{pseed}"
                );
                assert_eq!(
                    routed.readout,
                    reference.readout(),
                    "{coding:?} {grid:?} p{pseed}"
                );
            }
        }
    }
}

#[test]
fn mesh_presentations_do_fire_and_bill_the_fabric() {
    // Guard against the bit-exactness test passing vacuously on
    // silent no-spike presentations.
    let mut net = test_net(64, 30, CodingScheme::PoissonRate, 7);
    let mut mesh = MeshSnn::compile(&net, Grid::new(2, 2));
    let pixels = test_pixels(64, 1);
    let reference = net.present(&pixels, 1);
    assert!(!reference.fires.is_empty(), "test network never fired");
    let routed = mesh.present(&pixels, 1);
    assert!(routed.cost.packets > 0);
    assert_eq!(routed.cost.dropped_packets, 0);
    assert!(
        routed.cost.hops > 0,
        "multi-core spikes must traverse links"
    );
    assert!(routed.cost.sram_rows > 0 && routed.cost.neuron_updates > 0);
    assert!(routed.cost.energy_uj() > 0.0);
    assert!(
        routed.cost.delivery_ok(),
        "tiny net must meet the tick deadline"
    );
    assert!(mesh.area_mm2() > 0.0);
    assert_eq!(mesh.used_cores(), 4);
}

#[test]
fn mesh_unlocks_networks_beyond_one_core() {
    // 320 neurons exceed the 256-neuron core: impossible on a 1x1 grid,
    // bit-exact on a 4x4.
    let mut net = test_net(32, 320, CodingScheme::GaussianRate, 11);
    let mut mesh = MeshSnn::compile(&net, Grid::new(4, 4));
    // `compile` partitions over the grid's cores, so the partition is
    // recomputable.
    let partition = partition_snn(&net, Grid::new(4, 4).cores());
    assert!(partition.num_clusters() > 1);
    assert!(partition
        .clusters()
        .iter()
        .all(|c| c.len() <= MAX_CLUSTER_NEURONS));
    let pixels = test_pixels(32, 5);
    let reference = net.present(&pixels, 3);
    let routed = mesh.present(&pixels, 3);
    assert_eq!(routed.winner, reference.winner);
    assert_eq!(routed.fires, reference.fires);
    assert_eq!(routed.potentials, reference.potentials);
}

#[test]
#[should_panic(expected = "cannot fit")]
fn oversized_networks_are_rejected_on_one_core() {
    let net = test_net(8, 320, CodingScheme::PoissonRate, 11);
    let _ = MeshSnn::compile(&net, Grid::new(1, 1));
}

#[test]
fn routed_trace_is_placement_invariant() {
    let net = test_net(64, 24, CodingScheme::PoissonRate, 9);
    let grid = Grid::new(2, 2);
    let partition = partition_snn(&net, grid.cores());
    // The same partition on a larger grid sits on other cores and routes.
    let wide = Grid::new(3, 3);
    let greedy = place_greedy(&partition, grid);
    let spread = place_greedy(&partition, wide);
    let mut mesh_a = MeshSnn::compiled(&net, partition.clone(), greedy, Fabric::healthy(grid));
    let mut mesh_b = MeshSnn::compiled(&net, partition, spread, Fabric::healthy(wide));
    let pixels = test_pixels(64, 2);
    let pa = mesh_a.present(&pixels, 4);
    let pb = mesh_b.present(&pixels, 4);
    assert!(!pa.fires.is_empty(), "the presentation should fire");
    // The logical spike schedule is a property of the partition, not of
    // where its clusters physically sit; only the hop bill may differ.
    assert_eq!(pa.winner, pb.winner);
    assert_eq!(pa.fires, pb.fires);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&pa.potentials), bits(&pb.potentials));
    assert_eq!((pa.readout, pa.label), (pb.readout, pb.label));
    assert_eq!(pa.cost.sram_rows, pb.cost.sram_rows);
    assert_eq!(pa.cost.neuron_updates, pb.cost.neuron_updates);
}

#[test]
fn zero_rate_fabric_plans_are_healthy() {
    let mut net = test_net(64, 30, CodingScheme::PoissonRate, 7);
    let plan = FaultPlan::new(FaultModel::DeadLink, 0.0, 5).unwrap_or_else(|_| unreachable!());
    let mut mesh = MeshSnn::compile_faulty(&net, Grid::new(2, 2), &plan);
    let pixels = test_pixels(64, 3);
    let reference = net.present(&pixels, 6);
    let routed = mesh.present(&pixels, 6);
    assert_eq!(routed.fires, reference.fires);
    assert_eq!(routed.potentials, reference.potentials);
    assert_eq!(routed.cost.dropped_packets, 0);
}

#[test]
fn fabric_faults_degrade_deterministically() {
    let net = test_net(64, 30, CodingScheme::PoissonRate, 7);
    let pixels = test_pixels(64, 8);
    for model in [FaultModel::DeadLink, FaultModel::DeadRouter] {
        let plan = FaultPlan::new(model, 0.4, 21).unwrap_or_else(|_| unreachable!());
        let mut a = MeshSnn::compile_faulty(&net, Grid::new(4, 4), &plan);
        let mut b = MeshSnn::compile_faulty(&net, Grid::new(4, 4), &plan);
        let pa = a.present(&pixels, 2);
        let pb = b.present(&pixels, 2);
        assert_eq!(pa, pb, "{model:?} not deterministic");
        assert!(
            pa.cost.dropped_packets > 0,
            "{model:?} at 40% should drop packets on a 4x4 grid"
        );
    }
}

#[test]
fn saturated_dead_links_isolate_the_ingress_core() {
    // With every link dead only the injector core (which hosts the
    // grid-center cluster on a 2x2: core 0) still hears the input.
    let net = test_net(64, 30, CodingScheme::PoissonRate, 7);
    let plan = FaultPlan::new(FaultModel::DeadLink, 1.0, 2).unwrap_or_else(|_| unreachable!());
    let mut mesh = MeshSnn::compile_faulty(&net, Grid::new(2, 2), &plan);
    let pixels = test_pixels(64, 4);
    let p = mesh.present(&pixels, 9);
    assert!(p.cost.dropped_packets > 0);
    assert_eq!(p.cost.hops, 0, "all first hops are dead");
    // Only neurons hosted on core 0 can ever fire.
    // `compile_faulty` partitions over the grid's cores and places
    // greedily, so the partition and placement are recomputable.
    let partition = partition_snn(&net, Grid::new(2, 2).cores());
    let placement = place_greedy(&partition, Grid::new(2, 2));
    let locals: &[usize] = {
        let cluster = (0..partition.num_clusters())
            .find(|&c| placement.core_of(c) == 0)
            .unwrap_or(0);
        &partition.clusters()[cluster]
    };
    for &(_, j) in &p.fires {
        assert!(locals.contains(&j), "neuron {j} fired without input");
    }
}
