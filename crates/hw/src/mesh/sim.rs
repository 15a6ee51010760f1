//! The many-core mesh event simulator.
//!
//! [`MeshSnn`] runs a compiled (partitioned + placed) WTA SNN over the
//! routing fabric and is, on a healthy fabric, **bit-exact** against
//! the single-core reference event loop (`nc_snn::network`): the same
//! spikes at the same milliseconds, the same final potentials to the
//! last bit, the same tie-broken readout. The per-hop/per-read/per-
//! update work is tallied into a [`MeshCost`] as a side effect.
//!
//! # How bit-exactness survives distribution
//!
//! The reference loop scans all neurons in ascending id order per input
//! event; the first neuron to cross threshold fires, and every *later*
//! neuron in that same scan is already inhibited and therefore skipped
//! — its membrane never absorbs the event. A mesh core only sees its
//! own neurons, so each core instead applies the event to its locals
//! *tentatively* (recording an undo entry per touched neuron), stops at
//! its first local threshold crossing, and nominates that neuron. The
//! event's true firing neuron is the minimum nominated global id — the
//! same neuron the reference scan would have reached first. Commit then
//! replays the reference semantics exactly:
//!
//! * neurons with ids **below** the firer were updated by the reference
//!   scan before the fire — every core keeps those tentative updates;
//! * neurons with ids **above** the firer were gated by the fresh
//!   inhibition — every core reverts those tentative updates from its
//!   undo log (entries are pushed in ascending local order, so the
//!   revert is a tail pop).
//!
//! Per-core event skipping mirrors the reference's `skip_until` window:
//! the firing core can respond again at `t + min(Trefrac, Tinhibit)`,
//! a purely-inhibited core not before `t + Tinhibit`; both bounds are
//! exact, so skipped scans are provably no-ops. All of this requires at
//! most one fire per event, which holds whenever `Tinhibit >= 1` (the
//! compiler asserts it).
//!
//! Under fabric faults the lockstep degrades *deterministically*: a
//! core that never receives the input packet does not integrate it, a
//! core that misses an inhibition packet keeps its tentative updates
//! and may fire in the same event (a cascade resolved in ascending
//! neuron order), exactly as a real mesh would misbehave.

use std::fmt::Write as _;

use crate::mesh::partition::{partition_snn, Partition};
use crate::mesh::place::{place_greedy, Grid, Placement};
use crate::mesh::route::{Fabric, PORTS_PER_ROUTER};
use crate::mesh::{
    HOP_ENERGY_PJ, LINK_CYCLES_PER_TICK, NEURON_AREA_UM2, NEURON_UPDATE_PJ, ROUTER_AREA_UM2,
};
use crate::sram::{bank_area_um2, bank_read_energy_pj};
use nc_faults::FaultPlan;
use nc_snn::network::decay_with_lut;
use nc_snn::{tie_broken_readout, CodingScheme, SnnNetwork, SnnParams, SpikeCalendar};

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
    /// LIF membrane updates, speculative ones included — reverted work
    /// still burned energy.
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

/// One neuron's pre-update state, recorded so a core can revert the
/// tentative updates an inhibition packet retroactively gates.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Undo {
    slot: usize,
    potential: f64,
    last_update: u32,
}

/// One simulated core: its slice of the network plus scratch state.
#[derive(Debug, Clone, PartialEq)]
struct CoreNode {
    /// Hosted neurons, ascending global ids; slot `s` is `locals[s]`.
    locals: Vec<usize>,
    /// Weight columns, `wcols[input * locals.len() + slot]`.
    wcols: Vec<u8>,
    thresholds: Vec<f64>,
    potentials: Vec<f64>,
    last_update: Vec<u32>,
    refractory_until: Vec<u32>,
    inhibited_until: Vec<u32>,
    /// First ms at which any local can respond again (see module doc).
    skip_until: u32,
    /// Tentative updates of the current event, ascending slot order.
    undo: Vec<Undo>,
    /// Whether the current event's input packet reached this core.
    delivered_event: bool,
    /// Whether an inhibition for the current event reached this core
    /// (kills this core's own nomination).
    inhibited_event: bool,
}

impl CoreNode {
    fn empty() -> CoreNode {
        CoreNode {
            locals: Vec::new(),
            wcols: Vec::new(),
            thresholds: Vec::new(),
            potentials: Vec::new(),
            last_update: Vec::new(),
            refractory_until: Vec::new(),
            inhibited_until: Vec::new(),
            skip_until: 0,
            undo: Vec::new(),
            delivered_event: false,
            inhibited_event: false,
        }
    }

    fn host(locals: Vec<usize>, wcols: Vec<u8>, thresholds: Vec<f64>) -> CoreNode {
        let n = locals.len();
        CoreNode {
            locals,
            wcols,
            thresholds,
            potentials: vec![0.0; n],
            last_update: vec![0; n],
            refractory_until: vec![0; n],
            inhibited_until: vec![0; n],
            skip_until: 0,
            undo: Vec::new(),
            delivered_event: false,
            inhibited_event: false,
        }
    }

    fn reset(&mut self) {
        self.potentials.fill(0.0);
        self.last_update.fill(0);
        self.refractory_until.fill(0);
        self.inhibited_until.fill(0);
        self.skip_until = 0;
        self.undo.clear();
        self.delivered_event = false;
        self.inhibited_event = false;
    }

    /// Applies one input event tentatively to every un-gated local, in
    /// ascending slot order, stopping at (and nominating) the first
    /// threshold crossing. The reference per-neuron arithmetic, verbatim.
    fn scan(&mut self, input: usize, t: u32, lut: &[f64], cost: &mut MeshCost) -> Option<usize> {
        let ln = self.locals.len();
        // One burst read of the event's weight column.
        cost.sram_rows = cost
            .sram_rows
            .wrapping_add(count_u64(ln.div_ceil(WEIGHTS_PER_ROW)));
        let col = input * ln;
        for slot in 0..ln {
            if t < self.refractory_until[slot] || t < self.inhibited_until[slot] {
                continue;
            }
            self.undo.push(Undo {
                slot,
                potential: self.potentials[slot],
                last_update: self.last_update[slot],
            });
            let dt = u64::from(t - self.last_update[slot]);
            if dt > 0 {
                self.potentials[slot] = decay_with_lut(lut, self.potentials[slot], dt);
            }
            self.last_update[slot] = t;
            self.potentials[slot] += f64::from(self.wcols[col + slot]);
            cost.neuron_updates = cost.neuron_updates.wrapping_add(1);
            if self.potentials[slot] >= self.thresholds[slot] {
                return Some(self.locals[slot]);
            }
        }
        None
    }

    /// Commits a fire of local neuron `j` at `t`: locals above `j`
    /// un-integrate the event (they were gated in the reference scan),
    /// the firer resets and turns refractory, everyone else inhibits.
    fn commit_fire(&mut self, j: usize, t: u32, t_refrac: u32, t_inhibit: u32) {
        let slot = match self.locals.binary_search(&j) {
            Ok(s) => s,
            Err(_) => return, // not hosted here; nothing to commit
        };
        self.revert_from(slot + 1);
        self.potentials[slot] = 0.0;
        self.refractory_until[slot] = t + t_refrac;
        for (k, inh) in self.inhibited_until.iter_mut().enumerate() {
            if k != slot {
                *inh = (*inh).max(t + t_inhibit);
            }
        }
        self.skip_until = self.skip_until.max(t + t_refrac.min(t_inhibit));
        self.inhibited_event = true;
    }

    /// Handles an inhibition packet: global neuron `j` fired at `t`.
    /// Locals above `j` un-integrate the current event; all locals are
    /// inhibited. Safe to receive repeatedly (cascades under faults):
    /// reverts and window extensions are idempotent.
    fn receive_inhibition(&mut self, j: usize, t: u32, t_inhibit: u32) {
        // Revert from the first slot whose global id exceeds `j`.
        let first_above = self.locals.partition_point(|&g| g <= j);
        self.revert_from(first_above);
        for inh in self.inhibited_until.iter_mut() {
            *inh = (*inh).max(t + t_inhibit);
        }
        self.skip_until = self.skip_until.max(t + t_inhibit);
        self.inhibited_event = true;
    }

    /// Pops undo entries with `slot >= first_reverted`, restoring their
    /// state. Entries are pushed in ascending slot order, so this is
    /// the tail of the log.
    fn revert_from(&mut self, first_reverted: usize) {
        while let Some(&u) = self.undo.last() {
            if u.slot >= first_reverted {
                self.potentials[u.slot] = u.potential;
                self.last_update[u.slot] = u.last_update;
                self.undo.pop();
            } else {
                break;
            }
        }
    }
}

fn count_u64(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// Sends one packet, billing hops and per-tick link occupancy along the
/// live path prefix. Returns whether the packet arrived.
fn route_packet(
    fabric: &Fabric,
    link_load: &mut [u64],
    touched_links: &mut Vec<usize>,
    from: usize,
    to: usize,
    cost: &mut MeshCost,
) -> bool {
    cost.packets = cost.packets.wrapping_add(1);
    for &link in fabric.links(from, to) {
        if link_load[link] == 0 {
            touched_links.push(link);
        }
        link_load[link] += 1;
        cost.hops = cost.hops.wrapping_add(1);
    }
    let delivered = fabric.delivered(from, to);
    if !delivered {
        cost.dropped_packets = cost.dropped_packets.wrapping_add(1);
    }
    delivered
}

/// Closes the current 1 ms tick: folds per-link loads into the peak and
/// clears them for the next tick.
fn flush_tick(link_load: &mut [u64], touched_links: &mut Vec<usize>, cost: &mut MeshCost) {
    for &link in touched_links.iter() {
        cost.peak_link_load = cost.peak_link_load.max(link_load[link]);
        link_load[link] = 0;
    }
    touched_links.clear();
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
    decay_lut: Vec<f64>,
    labels: Vec<Option<usize>>,
    /// `presentation_stream_seed(0)`; the mixing is affine in the
    /// presentation seed, so stream `p` is `base.wrapping_add(p)`.
    stream_base: u64,
    inputs: usize,
    cores: Vec<CoreNode>,
    /// Cores hosting at least one neuron, ascending.
    used: Vec<usize>,
    /// Off-chip ingress: input spikes enter the fabric at core 0.
    injector: usize,
    // Reused presentation scratch.
    calendar: SpikeCalendar,
    candidates: Vec<(usize, usize)>,
    link_load: Vec<u64>,
    touched_links: Vec<usize>,
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
    /// `Tinhibit` or `Trefrac` is zero (the one-fire-per-event
    /// invariant the distributed commit protocol rests on).
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
        let inputs = net.inputs();
        let weights = net.weights();
        let thresholds = net.thresholds();

        let mut cores: Vec<CoreNode> = (0..grid.cores()).map(|_| CoreNode::empty()).collect();
        for (cluster, members) in partition.clusters().iter().enumerate() {
            let ln = members.len();
            let mut wcols = vec![0u8; inputs * ln];
            for input in 0..inputs {
                for (slot, &g) in members.iter().enumerate() {
                    wcols[input * ln + slot] = weights[g * inputs + input];
                }
            }
            let ths = members.iter().map(|&g| thresholds[g]).collect();
            cores[placement.core_of(cluster)] = CoreNode::host(members.clone(), wcols, ths);
        }
        let used: Vec<usize> = (0..grid.cores())
            .filter(|&c| !cores[c].locals.is_empty())
            .collect();

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

        let link_load = vec![0u64; grid.cores() * PORTS_PER_ROUTER];
        MeshSnn {
            grid,
            partition,
            placement,
            fabric,
            coding: net.coding(),
            params,
            decay_lut: net.decay_lut().to_vec(),
            labels: net.labels().to_vec(),
            stream_base,
            inputs,
            cores,
            used,
            injector: 0,
            calendar: SpikeCalendar::default(),
            candidates: Vec::new(),
            link_load,
            touched_links: Vec::new(),
        }
    }

    /// The mesh grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The compiled partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The compiled placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
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

    /// Presents one image without learning.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` differs from the network's input count.
    pub fn present(&mut self, pixels: &[u8], presentation_seed: u64) -> MeshPresentation {
        self.present_inner(pixels, presentation_seed, None)
    }

    /// Presents one image and also returns the routed-spike trace: one
    /// `E <t> <input>` line per injected input event and one
    /// `F <t> <neuron>` line per output spike. The trace is *logical* —
    /// physical hops live in the cost counters — so on a healthy fabric
    /// it is byte-identical across placements of the same partition and
    /// across engine thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` differs from the network's input count.
    pub fn present_traced(
        &mut self,
        pixels: &[u8],
        presentation_seed: u64,
    ) -> (MeshPresentation, String) {
        let mut trace = String::new();
        let p = self.present_inner(pixels, presentation_seed, Some(&mut trace));
        (p, trace)
    }

    /// Predicted class label for one image — bit-compatible with the
    /// reference `SnnNetwork::predict`.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` differs from the network's input count.
    pub fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
        self.present_inner(pixels, presentation_seed, None).label
    }

    fn present_inner(
        &mut self,
        pixels: &[u8],
        presentation_seed: u64,
        mut trace: Option<&mut String>,
    ) -> MeshPresentation {
        assert_eq!(
            pixels.len(),
            self.inputs,
            "pixel count {} does not match inputs {}",
            pixels.len(),
            self.inputs
        );
        let seed = self.stream_base.wrapping_add(presentation_seed);
        let t_refrac = self.params.t_refrac;
        let t_inhibit = self.params.t_inhibit;
        let n = self.params.neurons;
        let injector = self.injector;
        let MeshSnn {
            coding,
            params,
            cores,
            used,
            fabric,
            calendar,
            candidates,
            link_load,
            touched_links,
            decay_lut,
            labels,
            ..
        } = self;
        for &c in used.iter() {
            cores[c].reset();
        }
        link_load.fill(0);
        touched_links.clear();

        calendar.fill(*coding, pixels, params, seed, None);

        let mut cost = MeshCost::default();
        let mut winner: Option<usize> = None;
        let mut fires: Vec<(u32, usize)> = Vec::new();

        // One calendar bucket is one tick of the fabric.
        for (t, bucket) in calendar.buckets() {
            for &input in bucket {
                if let Some(tr) = trace.as_deref_mut() {
                    let _ = writeln!(tr, "E {t} {input}");
                }
                // Input multicast: ingress router to every populated core.
                for &c in used.iter() {
                    let delivered =
                        route_packet(fabric, link_load, touched_links, injector, c, &mut cost);
                    let core = &mut cores[c];
                    core.delivered_event = delivered;
                    core.inhibited_event = false;
                    core.undo.clear();
                }
                // Tentative local integration; each core nominates at most
                // one firing candidate.
                candidates.clear();
                for &c in used.iter() {
                    let core = &mut cores[c];
                    if !core.delivered_event || t < core.skip_until {
                        continue;
                    }
                    if let Some(global) = core.scan(input, t, decay_lut, &mut cost) {
                        candidates.push((global, c));
                    }
                }
                // Resolve in ascending global order — the reference scan
                // order. On a healthy fabric the first fire inhibits every
                // other candidate; a missed inhibition packet lets the next
                // candidate cascade, deterministically.
                candidates.sort_unstable();
                for &(j, cj) in candidates.iter() {
                    if cores[cj].inhibited_event {
                        continue;
                    }
                    fires.push((t, j));
                    if winner.is_none() {
                        winner = Some(j);
                    }
                    if let Some(tr) = trace.as_deref_mut() {
                        let _ = writeln!(tr, "F {t} {j}");
                    }
                    cores[cj].commit_fire(j, t, t_refrac, t_inhibit);
                    for &c2 in used.iter() {
                        if c2 == cj {
                            continue;
                        }
                        let delivered =
                            route_packet(fabric, link_load, touched_links, cj, c2, &mut cost);
                        if delivered {
                            cores[c2].receive_inhibition(j, t, t_inhibit);
                        }
                    }
                }
            }
            flush_tick(link_load, touched_links, &mut cost);
        }

        let mut potentials = vec![0.0f64; n];
        for &c in used.iter() {
            let core = &cores[c];
            for (slot, &g) in core.locals.iter().enumerate() {
                potentials[g] = core.potentials[slot];
            }
        }
        let readout = tie_broken_readout(winner, &potentials, seed);
        let label = labels[readout].unwrap_or(0);
        MeshPresentation {
            winner,
            readout,
            label,
            fires,
            potentials,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_reverts_only_slots_above_the_keeper() {
        let mut core = CoreNode::host(
            vec![3, 7, 9],
            vec![10, 20, 30], // one input column
            vec![1e9, 1e9, 1e9],
        );
        let lut = vec![1.0; 501];
        let mut cost = MeshCost::default();
        assert_eq!(core.scan(0, 5, &lut, &mut cost), None);
        assert_eq!(core.potentials, vec![10.0, 20.0, 30.0]);
        assert_eq!(cost.neuron_updates, 3);
        // Local neuron 7 (slot 1) fires at t=5.
        core.commit_fire(7, 5, 20, 5);
        // Slot 2 reverted, slot 1 reset to 0, slot 0 kept.
        assert_eq!(core.potentials, vec![10.0, 0.0, 0.0]);
        assert_eq!(core.last_update, vec![5, 5, 0]);
        assert_eq!(core.refractory_until, vec![0, 25, 0]);
        assert_eq!(core.inhibited_until, vec![10, 0, 10]);
        assert_eq!(core.skip_until, 10);
        assert!(core.inhibited_event);
    }

    #[test]
    fn inhibition_reverts_locals_above_the_firer_and_gates_all() {
        let mut core = CoreNode::host(vec![2, 8], vec![5, 7], vec![1e9, 1e9]);
        let lut = vec![1.0; 501];
        let mut cost = MeshCost::default();
        assert_eq!(core.scan(0, 3, &lut, &mut cost), None);
        assert_eq!(core.potentials, vec![5.0, 7.0]);
        // Global neuron 4 fired at t=3: local 8 un-integrates, local 2 keeps.
        core.receive_inhibition(4, 3, 5);
        assert_eq!(core.potentials, vec![5.0, 0.0]);
        assert_eq!(core.last_update, vec![3, 0]);
        assert_eq!(core.inhibited_until, vec![8, 8]);
        assert_eq!(core.skip_until, 8);
        // Receiving the same inhibition again is a no-op.
        core.receive_inhibition(4, 3, 5);
        assert_eq!(core.potentials, vec![5.0, 0.0]);
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
