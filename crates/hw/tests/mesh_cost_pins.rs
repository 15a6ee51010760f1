//! Pins the exact mesh bill: spikes, potentials, labels and every
//! `MeshCost` counter, hashed per coding scheme and fabric condition.
//!
//! `fig_mesh.csv` rounds energy to 0.001 µJ and hops to 0.1 per
//! presentation, so a drift of a few neuron updates or SRAM rows would
//! pass the golden snapshot. These hashes do not round: any change to
//! the simulator's arithmetic or billing shows here. They were computed
//! with the per-event simulator the tick-at-a-time one replaced.

use nc_dataset::digits::DigitsSpec;
use nc_dataset::{Dataset, Difficulty};
use nc_faults::{FaultModel, FaultPlan};
use nc_hw::mesh::{Fabric, Grid, MeshPresentation, MeshSnn};
use nc_snn::{CodingScheme, SnnNetwork, SnnParams};

const CODINGS: [CodingScheme; 4] = [
    CodingScheme::PoissonRate,
    CodingScheme::GaussianRate,
    CodingScheme::RankOrder,
    CodingScheme::TimeToFirstSpike,
];

/// Healthy, dead links at 5% and 25%, dead routers at 15% — the
/// fig_mesh fault ladder.
const FABRICS: [Option<(FaultModel, f64)>; 4] = [
    None,
    Some((FaultModel::DeadLink, 0.05)),
    Some((FaultModel::DeadLink, 0.25)),
    Some((FaultModel::DeadRouter, 0.15)),
];

const GRID_SIDES: [usize; 3] = [1, 2, 4];

/// fig_mesh's network and fabric fault seeds.
const NET_SEED: u64 = 0x3E5A;
const FAULT_SEED: u64 = 0x0F_AB;

const TRAIN_IMAGES: usize = 60;
const TEST_IMAGES: usize = 24;

/// One hash per `(grid, fabric)`, grid-major, per coding in `CODINGS`
/// order.
const PINS: [[u64; 12]; 4] = [
    [
        0xe2330d83212ad3e5,
        0xe2330d83212ad3e5,
        0xe2330d83212ad3e5,
        0xe2330d83212ad3e5,
        0xec3dbaf58a24f0c4,
        0xec3dbaf58a24f0c4,
        0x05606448f1b494bf,
        0xa78e1e64aec0a25b,
        0xfac2f3ea3523e98e,
        0x9075c6b807b16bc6,
        0x444e1f37010a80c6,
        0x702b7a5df54221ae,
    ],
    [
        0x8bdc6968a5d19388,
        0x8bdc6968a5d19388,
        0x8bdc6968a5d19388,
        0x8bdc6968a5d19388,
        0x1ef0ceda15cf0512,
        0x1ef0ceda15cf0512,
        0xb92fe4db1f071b34,
        0x8636920485ba6886,
        0x0704cf80ea8aef16,
        0x79214ffc89f7559b,
        0xa2ced7b9287d0d4c,
        0x107394bcbf325cfe,
    ],
    [
        0x63e1a5f52f045727,
        0x63e1a5f52f045727,
        0x63e1a5f52f045727,
        0x63e1a5f52f045727,
        0xb635fa48bd246e34,
        0xb635fa48bd246e34,
        0x69f315df8cc7ffb4,
        0x98aaaee619ea41a8,
        0xd12f3da0aa59232b,
        0xe5d6f3b8233060d1,
        0x64ffe6f7fdf5088e,
        0xda312a9e681caa65,
    ],
    [
        0x7562d7b8434ed7a9,
        0x7562d7b8434ed7a9,
        0x7562d7b8434ed7a9,
        0x7562d7b8434ed7a9,
        0x7ba98ab69d8f3da4,
        0x7ba98ab69d8f3da4,
        0x07f3233285a04287,
        0x51efd6d06ad876ca,
        0x69806d716af6f1f6,
        0xb7fd1bbb603c98d1,
        0xd0fb0dd3891006b5,
        0x061ff568aeb29b85,
    ],
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn presentation(&mut self, p: &MeshPresentation) {
        self.u64(p.fires.len() as u64);
        for &(t, j) in &p.fires {
            self.u64(u64::from(t));
            self.u64(j as u64);
        }
        for v in &p.potentials {
            self.u64(v.to_bits());
        }
        self.u64(p.winner.map_or(u64::MAX, |w| w as u64));
        self.u64(p.readout as u64);
        self.u64(p.label as u64);
        let c = &p.cost;
        for x in [
            c.packets,
            c.dropped_packets,
            c.hops,
            c.peak_link_load,
            c.sram_rows,
            c.neuron_updates,
        ] {
            self.u64(x);
        }
    }
}

/// The fig_mesh recipe, shrunk: 20 tuned neurons, one short STDP pass.
fn trained(coding: CodingScheme, train: &Dataset) -> SnnNetwork {
    let mut net = SnnNetwork::with_coding(
        train.input_dim(),
        train.num_classes(),
        SnnParams::tuned(20),
        coding,
        NET_SEED,
    );
    net.set_stdp_delta(6);
    net.train_stdp(train, 1);
    net.self_label(train);
    net
}

#[test]
fn mesh_bill_matches_the_pinned_hashes() {
    let (train, test) = DigitsSpec {
        train: TRAIN_IMAGES,
        test: TEST_IMAGES,
        seed: NET_SEED,
        difficulty: Difficulty::default(),
    }
    .generate();
    let mut got = [[0u64; 12]; 4];
    let mut fires = 0usize;
    for (ci, &coding) in CODINGS.iter().enumerate() {
        let net = trained(coding, &train);
        for (gi, &side) in GRID_SIDES.iter().enumerate() {
            let grid = Grid::new(side, side);
            for (fi, fault) in FABRICS.iter().enumerate() {
                let fabric = match fault {
                    None => Fabric::healthy(grid),
                    Some((model, rate)) => {
                        Fabric::with_plan(grid, &FaultPlan::new(*model, *rate, FAULT_SEED).unwrap())
                    }
                };
                let partition = nc_hw::mesh::partition_snn(&net, grid.cores());
                let placement = nc_hw::mesh::place_greedy(&partition, grid);
                let mut mesh = MeshSnn::compiled(&net, partition, placement, fabric);
                let mut h = Fnv::new();
                for (i, sample) in test.samples().iter().enumerate() {
                    let p = mesh.present(&sample.pixels, i as u64);
                    fires += p.fires.len();
                    h.presentation(&p);
                }
                got[ci][gi * FABRICS.len() + fi] = h.0;
            }
        }
    }
    assert!(fires > 0, "the pinned presentations never fire");
    assert!(
        got == PINS,
        "mesh bill drifted; hashes now:\n{}",
        got.iter()
            .map(|row| format!(
                "    [{}],",
                row.iter()
                    .map(|h| format!("{h:#018x}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
