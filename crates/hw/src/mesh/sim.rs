//! The many-core mesh event simulator.
//!
//! [`MeshSnn`] runs a compiled (partitioned + placed) WTA SNN over the
//! routing fabric and is, on a healthy fabric, **bit-exact** against
//! the single-core reference event loop (`nc_snn::network`): the same
//! spikes at the same milliseconds, the same final potentials to the
//! last bit, the same tie-broken readout. The per-hop/per-read/per-
//! update work is tallied into a [`MeshCost`] as a side effect.
//!
//! # One fabric tick at a time
//!
//! Each [`SpikeCalendar`] bucket is one 1 ms tick of `k` input events.
//! Neuron state is a [`TickState`] in global id order next to
//! column-major `f64` weights.
//!
//! A neuron on a core the input multicast cannot reach is *parked* at
//! compile time: the mesh's own weight copy zeroes its column entries
//! and its threshold is `+inf`. It stays open, so it rides the pass's
//! shared decay factor with everyone else, and its potential stays
//! exactly `+0.0`, as a neuron that never integrates. Gating it instead
//! would pin the latest gate for the whole presentation and force the
//! per-neuron path on every tick. An unreached core is never billed, so
//! an inhibition packet that reaches one changes nothing there.
//!
//! * Every tick first goes through the gated whole-tick pass
//!   ([`TickState::try_tick`]) that the reference loop runs too. If
//!   no open neuron ends at or above threshold, the tick had no fire and
//!   commits.
//! * Otherwise it is scanned event by event as below, through the
//!   reference's own per-event scan ([`TickState::scan_event`]): the only
//!   code that resolves fires and fault cascades.
//! * Every input event is the same multicast from the ingress core, so
//!   its packets, hops, drops, link loads and reached (listening) cores
//!   are routed once at compile time and billed once per presentation:
//!   times the input events, and its busiest link times the widest tick.
//!   A committed tick adds `k ×` the SRAM rows of the listening cores
//!   that are not skipping and `k ×` its open neurons, parked ones
//!   excepted, as updates. The listening rows are cached: recomputed
//!   only after a crossing tick or once a skipping core's `skip_until`
//!   lapses.
//!
//! A core also skips events until `skip_until`: `t + min(Trefrac,
//! Tinhibit)` after its own fire, `t + Tinhibit` after an inhibition.
//! Each fire raises all the core's gates at least that far and gates
//! never fall, so `skip_until` never exceeds a local's gate: per-neuron
//! gating gets the potentials right and the core skip only trims the
//! SRAM bill.
//!
//! # A crossing tick
//!
//! Each event runs [`TickState::scan_event`], which integrates the open
//! neurons in ascending global id, as the reference does, and stops at
//! each fire. A fire of `j` gates its own core's other locals until
//! `t + Tinhibit` (`j` until `t + Trefrac`, the core's skip until
//! `t + min`) and sends an inhibition packet to every other used core,
//! gating each core it reaches until `t + Tinhibit`: on a healthy fabric,
//! the reference's inhibition of every later neuron. The scan then
//! resumes the event at `j + 1`. Under fabric faults it degrades
//! *deterministically*, as a real mesh would misbehave: a core the input
//! packet misses never integrates, and a core an inhibition packet
//! misses keeps integrating and may fire in the same event (a cascade
//! resolved in ascending id).
//!
//! The bill is that of cores that speculate and revert: each listening
//! core past its skip reads its rows and updates its open locals in
//! order up to and including its own first crossing, even locals a lower
//! fire then gates. A read-only count from the state before the event
//! bills that work, which the scan never does. The count assumes at most
//! one fire per core per event, hence `Tinhibit, Trefrac >= 1`.

use crate::mesh::partition::{partition_snn, Partition};
use crate::mesh::place::{place_greedy, Grid, Placement};
use crate::mesh::route::{Fabric, PORTS_PER_ROUTER};
use crate::mesh::{
    HOP_ENERGY_PJ, LINK_CYCLES_PER_TICK, NEURON_AREA_UM2, NEURON_UPDATE_PJ, ROUTER_AREA_UM2,
};
use crate::sram::{bank_area_um2, bank_read_energy_pj};
use nc_faults::FaultPlan;
use nc_snn::{tie_broken_readout, CodingScheme, SnnNetwork, SnnParams, SpikeCalendar, TickState};

/// Synaptic SRAM bank depth (rows per bank), the TrueNorth-style core
/// geometry shared with [`crate::truenorth`].
const BANK_DEPTH: usize = 784;

/// 8-bit weights per 128-bit SRAM row.
const WEIGHTS_PER_ROW: usize = 16;

/// Work and traffic tallies for one presentation (or, via
/// [`MeshCost::absorb`], an aggregate of many).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeshCost {
    /// Spike packets injected into the fabric (input multicasts plus
    /// inhibition multicasts; core-local deliveries included).
    pub packets: u64,
    /// Packets that died on a dead link or dead router.
    pub dropped_packets: u64,
    /// Router-to-router link traversals actually performed.
    pub hops: u64,
    /// Worst per-link load inside any one 1 ms tick.
    pub peak_link_load: u64,
    /// Synaptic SRAM row reads (one weight-column burst per delivered,
    /// non-skipped core event).
    pub sram_rows: u64,
    /// LIF membrane updates, speculative ones included — work a lower
    /// fire on another core then gates still burned energy.
    pub neuron_updates: u64,
}

impl MeshCost {
    /// Dynamic energy of the tallied work in µJ: hops at
    /// [`HOP_ENERGY_PJ`], SRAM rows at the 65 nm bank read cost, and
    /// membrane updates at [`NEURON_UPDATE_PJ`].
    pub fn energy_uj(&self) -> f64 {
        (self.hops as f64 * HOP_ENERGY_PJ
            + self.sram_rows as f64 * bank_read_energy_pj(BANK_DEPTH)
            + self.neuron_updates as f64 * NEURON_UPDATE_PJ)
            * 1e-6
    }

    /// Whether every link stayed within its per-tick cycle budget
    /// ([`LINK_CYCLES_PER_TICK`]) — i.e. worst-case delivery still lands
    /// inside the biological tick.
    pub fn delivery_ok(&self) -> bool {
        self.peak_link_load <= LINK_CYCLES_PER_TICK
    }

    /// Folds another tally into this one (sums, except the peak link
    /// load which takes the max).
    pub fn absorb(&mut self, other: &MeshCost) {
        self.packets = self.packets.wrapping_add(other.packets);
        self.dropped_packets = self.dropped_packets.wrapping_add(other.dropped_packets);
        self.hops = self.hops.wrapping_add(other.hops);
        self.peak_link_load = self.peak_link_load.max(other.peak_link_load);
        self.sram_rows = self.sram_rows.wrapping_add(other.sram_rows);
        self.neuron_updates = self.neuron_updates.wrapping_add(other.neuron_updates);
    }
}

/// Outcome of presenting one image to the mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshPresentation {
    /// First neuron to fire (global id), if any.
    pub winner: Option<usize>,
    /// Readout neuron: the winner, else highest potential with seeded
    /// tie-breaking — the reference readout, bit for bit.
    pub readout: usize,
    /// Predicted class label (`labels[readout]`, unlabeled → 0).
    pub label: usize,
    /// Every output spike as `(time_ms, global neuron)`.
    pub fires: Vec<(u32, usize)>,
    /// Final membrane potentials in global neuron order.
    pub potentials: Vec<f64>,
    /// Work and traffic of this presentation.
    pub cost: MeshCost,
}

/// Every neuron's synapses and state, in global id order.
#[derive(Debug, Clone)]
struct Neurons {
    /// Weights column-major, `w[input * n + j]`: the network's own
    /// [`SnnNetwork::weights_t`], with parked neurons' entries zeroed.
    w: Vec<f64>,
    /// The reference decay table (`SnnNetwork::decay_lut`).
    lut: Vec<f64>,
    /// The network's thresholds; `+inf` for parked neurons.
    thresholds: Vec<f64>,
    /// Neurons on cores the input multicast never reaches.
    parked: usize,
    state: TickState,
}

/// One simulated core: its neurons, its SRAM geometry and its skip.
#[derive(Debug, Clone, PartialEq, Default)]
struct CoreNode {
    /// Hosted neurons, ascending global ids.
    locals: Vec<usize>,
    /// SRAM rows in one weight-column burst.
    rows: u64,
    /// First ms at which any local can respond again (see module doc).
    skip_until: u32,
}

impl CoreNode {
    /// Handles global neuron `j`'s fire (an inhibition packet, or the
    /// core's own fire): gates every other local until at least `until`
    /// and the core until at least `skip`.
    fn inhibit(&mut self, state: &mut TickState, j: usize, until: u32, skip: u32) {
        for &k in self.locals.iter().filter(|&&k| k != j) {
            state.raise_gate(k, until);
        }
        self.skip_until = self.skip_until.max(skip);
    }
}

fn count_u64(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// The SRAM rows one input event reads at `t` on the reached cores that
/// are not skipping, and the first later ms at which a skipping one
/// listens again (`u32::MAX` if none).
fn listening_rows(reached: &[usize], cores: &[CoreNode], t: u32) -> (u64, u32) {
    let (mut rows, mut lapse) = (0u64, u32::MAX);
    for core in reached.iter().map(|&c| &cores[c]) {
        if t >= core.skip_until {
            rows = rows.wrapping_add(core.rows);
        } else {
            lapse = lapse.min(core.skip_until);
        }
    }
    (rows, lapse)
}

/// Sends one packet, billing hops and per-tick link occupancy along the
/// live path prefix. Returns whether the packet arrived.
fn route_packet(
    fabric: &Fabric,
    link_load: &mut [u64],
    from: usize,
    to: usize,
    cost: &mut MeshCost,
) -> bool {
    cost.packets = cost.packets.wrapping_add(1);
    for &link in fabric.links(from, to) {
        link_load[link] += 1;
        cost.hops = cost.hops.wrapping_add(1);
    }
    let delivered = fabric.delivered(from, to);
    if !delivered {
        cost.dropped_packets = cost.dropped_packets.wrapping_add(1);
    }
    delivered
}

/// One input multicast from the ingress core to every used core, routed
/// once at compile time.
#[derive(Debug, Clone, PartialEq)]
struct Multicast {
    /// Packets, hops, drops and busiest-link load of one multicast.
    cost: MeshCost,
    /// Per-link loads of one multicast.
    link_load: Vec<u64>,
    /// Used cores the multicast reaches, ascending: the listening cores.
    reached: Vec<usize>,
}

/// A trained SNN compiled onto a many-core mesh: partitioned, placed,
/// and simulated over the routing fabric.
#[derive(Debug, Clone)]
pub struct MeshSnn {
    grid: Grid,
    partition: Partition,
    placement: Placement,
    fabric: Fabric,
    coding: CodingScheme,
    params: SnnParams,
    labels: Vec<Option<usize>>,
    /// `presentation_stream_seed(0)`; the mixing is affine in the
    /// presentation seed, so stream `p` is `base.wrapping_add(p)`.
    stream_base: u64,
    inputs: usize,
    neurons: Neurons,
    cores: Vec<CoreNode>,
    /// Cores hosting at least one neuron, ascending.
    used: Vec<usize>,
    multicast: Multicast,
    // Reused presentation scratch.
    calendar: SpikeCalendar,
    link_load: Vec<u64>,
}

impl MeshSnn {
    /// Compiles `net` onto `grid` with the default pipeline: affinity
    /// partitioning, greedy traffic-weighted placement, healthy fabric.
    ///
    /// # Panics
    ///
    /// Panics if the network cannot fit (`neurons > cores * 256`) or if
    /// `Tinhibit`/`Trefrac` are zero (see [`MeshSnn::compiled`]).
    pub fn compile(net: &SnnNetwork, grid: Grid) -> MeshSnn {
        let partition = partition_snn(net, grid.cores());
        let placement = place_greedy(&partition, grid);
        MeshSnn::compiled(net, partition, placement, Fabric::healthy(grid))
    }

    /// Like [`MeshSnn::compile`], but with dead links and routers drawn
    /// from `plan` (non-fabric fault models leave the fabric healthy).
    ///
    /// # Panics
    ///
    /// As [`MeshSnn::compile`].
    pub fn compile_faulty(net: &SnnNetwork, grid: Grid, plan: &FaultPlan) -> MeshSnn {
        let partition = partition_snn(net, grid.cores());
        let placement = place_greedy(&partition, grid);
        MeshSnn::compiled(net, partition, placement, Fabric::with_plan(grid, plan))
    }

    /// Assembles a mesh from explicit pipeline stages — the seam the
    /// placement-invariance tests use.
    ///
    /// # Panics
    ///
    /// Panics on geometry mismatches between the stages, or if
    /// `Tinhibit` or `Trefrac` is zero: the crossing-tick bill is
    /// specified for at most one fire per core per event (see the module
    /// doc).
    pub fn compiled(
        net: &SnnNetwork,
        partition: Partition,
        placement: Placement,
        fabric: Fabric,
    ) -> MeshSnn {
        let params = *net.params();
        assert!(
            params.t_inhibit >= 1 && params.t_refrac >= 1,
            "mesh simulation requires Tinhibit >= 1 and Trefrac >= 1"
        );
        assert_eq!(
            partition.neurons(),
            params.neurons,
            "partition does not cover the network"
        );
        assert_eq!(
            placement.num_clusters(),
            partition.num_clusters(),
            "placement does not cover the partition"
        );
        assert_eq!(
            placement.grid(),
            fabric.grid(),
            "placement and fabric grids differ"
        );
        let grid = fabric.grid();
        let mut cores: Vec<CoreNode> = vec![CoreNode::default(); grid.cores()];
        for (cluster, members) in partition.clusters().iter().enumerate() {
            let core = &mut cores[placement.core_of(cluster)];
            core.locals.clone_from(members);
            core.rows = count_u64(members.len().div_ceil(WEIGHTS_PER_ROW));
        }
        let used: Vec<usize> = (0..grid.cores())
            .filter(|&c| !cores[c].locals.is_empty())
            .collect();
        // Off-chip input spikes enter the fabric at core 0.
        let mut mc_cost = MeshCost::default();
        let mut mc_load = vec![0u64; grid.cores() * PORTS_PER_ROUTER];
        let reached: Vec<usize> = used
            .iter()
            .copied()
            .filter(|&c| route_packet(&fabric, &mut mc_load, 0, c, &mut mc_cost))
            .collect();
        mc_cost.peak_link_load = mc_load.iter().copied().max().unwrap_or(0);

        // Park the neurons the input multicast never reaches.
        let n = params.neurons;
        let mut w = net.weights_t().to_vec();
        let mut thresholds = net.thresholds().to_vec();
        let mut parked = 0;
        for (c, core) in cores.iter().enumerate() {
            if reached.binary_search(&c).is_ok() {
                continue;
            }
            for &j in &core.locals {
                thresholds[j] = f64::INFINITY;
                for column in w.chunks_exact_mut(n) {
                    column[j] = 0.0;
                }
                parked += 1;
            }
        }

        /// Presentation seed whose stream is the affine base point.
        const STREAM_ORIGIN: u64 = 0;
        /// Arbitrary probe offset for the affinity self-check below.
        const AFFINITY_PROBE: u64 = 0x1234_5678;
        let stream_base = net.presentation_stream_seed(STREAM_ORIGIN);
        // The per-presentation reconstruction below relies on the stream
        // mixing being affine in the presentation seed.
        assert_eq!(
            net.presentation_stream_seed(AFFINITY_PROBE),
            stream_base.wrapping_add(AFFINITY_PROBE),
            "presentation stream mixing is no longer affine"
        );

        MeshSnn {
            grid,
            partition,
            placement,
            fabric,
            coding: net.coding(),
            params,
            labels: net.labels().to_vec(),
            stream_base,
            inputs: net.inputs(),
            neurons: Neurons {
                w,
                lut: net.decay_lut().to_vec(),
                thresholds,
                parked,
                state: TickState::default(),
            },
            cores,
            used,
            multicast: Multicast {
                cost: mc_cost,
                link_load: mc_load,
                reached,
            },
            calendar: SpikeCalendar::default(),
            link_load: vec![0u64; grid.cores() * PORTS_PER_ROUTER],
        }
    }

    /// The mesh grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The routing fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Number of cores hosting neurons.
    pub fn used_cores(&self) -> usize {
        self.used.len()
    }

    /// Silicon area of the whole mesh in mm²: every core pays the
    /// router share; used cores add their synaptic SRAM banks and LIF
    /// circuits — the TrueNorth core cost model, per core.
    pub fn area_mm2(&self) -> f64 {
        let mut um2 = 0.0;
        for core in &self.cores {
            um2 += ROUTER_AREA_UM2;
            let ln = core.locals.len();
            if ln == 0 {
                continue;
            }
            let bits = ln * self.inputs * 8;
            let banks = bits.div_ceil(128).div_ceil(BANK_DEPTH).max(1);
            um2 += banks as f64 * bank_area_um2(BANK_DEPTH) + ln as f64 * NEURON_AREA_UM2;
        }
        um2 / 1e6
    }

    /// Predicted class label for one image — bit-compatible with the
    /// reference `SnnNetwork::predict`.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` differs from the network's input count.
    pub fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
        self.present(pixels, presentation_seed).label
    }

    /// Presents one image without learning. The spikes, potentials and
    /// readout are *logical*, so on a healthy fabric they are identical
    /// across placements of the same partition; physical hops live only
    /// in the cost counters.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` differs from the network's input count.
    pub fn present(&mut self, pixels: &[u8], presentation_seed: u64) -> MeshPresentation {
        assert_eq!(pixels.len(), self.inputs, "pixel count mismatch");
        let seed = self.stream_base.wrapping_add(presentation_seed);
        let MeshSnn {
            partition,
            placement,
            coding,
            params,
            neurons: nrn,
            cores,
            used,
            multicast,
            fabric,
            calendar,
            link_load,
            labels,
            ..
        } = self;
        let n = nrn.thresholds.len();
        let (refrac, inhibit) = (params.t_refrac, params.t_inhibit);
        let s = &mut nrn.state;
        s.reset(n);
        for &c in used.iter() {
            cores[c].skip_until = 0;
        }
        let parked = count_u64(nrn.parked);

        calendar.fill(*coding, pixels, params, seed, None);

        let mut cost = MeshCost::default();
        let mut fires: Vec<(u32, usize)> = Vec::new();
        // The multicast's share of the bill, summed over the presentation:
        // input events, the widest tick, and the committed ticks' SRAM rows
        // and neuron updates.
        let (mut events, mut widest, mut rows, mut updates) = (0u64, 0u64, 0u64, 0u64);
        // The listening rows, valid until `lapse` or the next crossing.
        let (mut listening, mut lapse) = (0u64, 0u32);

        // One calendar bucket is one tick of the fabric.
        for (t, bucket) in calendar.buckets() {
            let k = count_u64(bucket.len());
            events = events.wrapping_add(k);
            widest = widest.max(k);
            if let Some(open) = s.try_tick(&nrn.w, &nrn.lut, &nrn.thresholds, bucket, t) {
                // No fire, so no other traffic: the tick reads `k` columns
                // on every listening core that is not skipping and updates
                // the open neurons but the parked ones `k` times.
                if t >= lapse {
                    (listening, lapse) = listening_rows(&multicast.reached, cores, t);
                }
                rows = rows.wrapping_add(k.wrapping_mul(listening));
                let billed = count_u64(open).wrapping_sub(parked);
                updates = updates.wrapping_add(k.wrapping_mul(billed));
                continue;
            }
            lapse = 0;
            for (load, &per_event) in link_load.iter_mut().zip(&multicast.link_load) {
                *load += k * per_event;
            }
            // A crossing: scan the tick event by event.
            for &input in bucket {
                let col = &nrn.w[input * n..][..n];
                // Bill each listening core's column read and its updates up
                // to its own first crossing, from the state before the event.
                for core in multicast.reached.iter().map(|&c| &cores[c]) {
                    if t < core.skip_until {
                        continue;
                    }
                    cost.sram_rows = cost.sram_rows.wrapping_add(core.rows);
                    for &j in core.locals.iter().filter(|&&j| t >= s.gate()[j]) {
                        cost.neuron_updates = cost.neuron_updates.wrapping_add(1);
                        if s.integrated(j, &nrn.lut, col[j], t) >= nrn.thresholds[j] {
                            break;
                        }
                    }
                }
                let mut from = 0;
                while let Some(j) = s.scan_event(&nrn.lut, &nrn.thresholds, t, from, |j| col[j]) {
                    fires.push((t, j));
                    s.potentials[j] = 0.0;
                    let home = placement.core_of(partition.cluster_of(j));
                    cores[home].inhibit(s, j, t + inhibit, t + refrac.min(inhibit));
                    // `j` was open at `t`, so its old deadlines have all passed.
                    s.raise_gate(j, t + refrac);
                    for &c in used.iter() {
                        if c != home
                            && route_packet(fabric, link_load, home, c, &mut cost)
                            && multicast.reached.binary_search(&c).is_ok()
                        {
                            cores[c].inhibit(s, j, t + inhibit, t + inhibit);
                        }
                    }
                    from = j + 1;
                }
            }
            // Close the tick: its busiest link, then clear the loads.
            let busiest = link_load.iter().copied().max().unwrap_or(0);
            cost.peak_link_load = cost.peak_link_load.max(busiest);
            link_load.fill(0);
        }
        let mc = &multicast.cost;
        cost.absorb(&MeshCost {
            packets: mc.packets.wrapping_mul(events),
            dropped_packets: mc.dropped_packets.wrapping_mul(events),
            hops: mc.hops.wrapping_mul(events),
            peak_link_load: mc.peak_link_load.wrapping_mul(widest),
            sram_rows: rows,
            neuron_updates: updates,
        });

        let winner = fires.first().map(|&(_, j)| j);
        let readout = tie_broken_readout(winner, &s.potentials, seed);
        MeshPresentation {
            winner,
            readout,
            label: labels[readout].unwrap_or(0),
            fires,
            potentials: s.potentials.clone(),
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `n`-neuron network with weights `w`, a flat decay table of
    /// `leak` and thresholds out of reach.
    fn neurons(n: usize, w: Vec<f64>, leak: f64) -> Neurons {
        let mut neurons = Neurons {
            w,
            lut: vec![leak; 501],
            thresholds: vec![1e9; n],
            parked: 0,
            state: TickState::default(),
        };
        neurons.state.reset(n);
        neurons
    }

    #[test]
    fn tick_pass_commits_below_threshold_and_declines_a_crossing() {
        // Two neurons, two inputs: w[input * 2 + j].
        let mut nrn = neurons(2, vec![1.0, 2.0, 3.0, 4.0], 0.5);
        nrn.thresholds = vec![100.0, 10.0];
        nrn.state.raise_gate(1, 7);
        let (w, lut, th) = (&nrn.w, &nrn.lut, &nrn.thresholds);
        // Neuron 1 is gated at t=3; neuron 0 absorbs both events.
        assert_eq!(nrn.state.try_tick(w, lut, th, &[0, 1], 3), Some(1));
        assert_eq!(nrn.state.potentials, vec![4.0, 0.0]);
        assert_eq!(nrn.state.last_update_mut(), [3, 0]);
        // At t=8 neuron 1 ends at 2 + 4 + 4 >= 10: nothing commits.
        assert_eq!(nrn.state.try_tick(w, lut, th, &[0, 1, 1], 8), None);
        assert_eq!(nrn.state.potentials, vec![4.0, 0.0]);
        assert_eq!(nrn.state.last_update_mut(), [3, 0]);
    }

    #[test]
    fn cost_energy_and_delivery_accounting() {
        let mut a = MeshCost {
            packets: 10,
            dropped_packets: 1,
            hops: 100,
            peak_link_load: 900,
            sram_rows: 50,
            neuron_updates: 200,
        };
        assert!(a.delivery_ok());
        let b = MeshCost {
            peak_link_load: 1200,
            ..MeshCost::default()
        };
        a.absorb(&b);
        assert_eq!(a.peak_link_load, 1200);
        assert!(!a.delivery_ok());
        assert_eq!(a.packets, 10);
        assert!(a.energy_uj() > 0.0);
        assert_eq!(MeshCost::default().energy_uj(), 0.0);
    }
}
