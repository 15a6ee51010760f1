//! Cluster placement onto a W×H core grid.
//!
//! The placer's objective is the router's cost: total traffic-weighted
//! Manhattan distance, which under XY dimension-ordered routing is
//! exactly the hop count the fabric will pay. Placement is greedy and
//! deterministic — clusters in descending traffic order, each onto the
//! free core minimizing its weighted distance to everything already
//! placed, every tie broken by index.

use crate::mesh::partition::Partition;

/// A W×H grid of cores, row-major core ids (`core = y * width + x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Cores per row.
    pub width: usize,
    /// Rows.
    pub height: usize,
}

impl Grid {
    /// Builds a grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Grid {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        Grid { width, height }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.width * self.height
    }

    /// `(x, y)` of a core id.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn xy(&self, core: usize) -> (usize, usize) {
        assert!(core < self.cores(), "core {core} outside the grid");
        (core % self.width, core / self.width)
    }

    /// Core id at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn core_at(&self, x: usize, y: usize) -> usize {
        assert!(
            x < self.width && y < self.height,
            "({x},{y}) outside the grid"
        );
        y * self.width + x
    }

    /// Manhattan distance between two cores — the XY-routed hop count.
    ///
    /// # Panics
    ///
    /// Panics if either core is out of range.
    pub fn manhattan(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.xy(a);
        let (bx, by) = self.xy(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }
}

/// A mapping of every cluster to a distinct core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    grid: Grid,
    core_of_cluster: Vec<usize>,
}

impl Placement {
    /// The grid placed onto.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The core hosting `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn core_of(&self, cluster: usize) -> usize {
        self.core_of_cluster[cluster]
    }

    /// Number of placed clusters.
    pub fn num_clusters(&self) -> usize {
        self.core_of_cluster.len()
    }

    fn validate(partition: &Partition, grid: Grid) {
        assert!(
            partition.num_clusters() <= grid.cores(),
            "{} clusters cannot be placed on a {}x{} grid",
            partition.num_clusters(),
            grid.width,
            grid.height
        );
    }
}

fn hops_u64(hops: usize) -> u64 {
    u64::try_from(hops).unwrap_or(u64::MAX)
}

/// Greedy traffic-weighted placement: clusters in descending total
/// traffic (ties by id); the heaviest cluster takes the central core,
/// every next cluster the free core with the least traffic-weighted
/// distance to the already-placed set (ties by core id).
///
/// # Panics
///
/// Panics if the partition has more clusters than the grid has cores.
pub fn place_greedy(partition: &Partition, grid: Grid) -> Placement {
    Placement::validate(partition, grid);
    let k = partition.num_clusters();
    let mut totals: Vec<u64> = (0..k)
        .map(|a| (0..k).map(|b| partition.traffic(a, b)).sum())
        .collect();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_unstable_by_key(|&c| (std::cmp::Reverse(totals[c]), c));
    totals.clear();

    let mut core_of_cluster = vec![usize::MAX; k];
    let mut free = vec![true; grid.cores()];
    let center = grid.core_at((grid.width - 1) / 2, (grid.height - 1) / 2);
    for (rank, &cluster) in order.iter().enumerate() {
        let mut best: Option<(u64, usize)> = None; // (cost, core)
        for (core, &is_free) in free.iter().enumerate() {
            if !is_free {
                continue;
            }
            let cost = if rank == 0 {
                // Seed at the center: distance to the centroid stands in
                // for distance to the not-yet-placed rest.
                hops_u64(grid.manhattan(core, center))
            } else {
                order[..rank]
                    .iter()
                    .map(|&placed| {
                        partition
                            .traffic(cluster, placed)
                            .wrapping_mul(hops_u64(grid.manhattan(core, core_of_cluster[placed])))
                    })
                    .sum()
            };
            let better = best.is_none_or(|(bc, bk)| cost < bc || (cost == bc && core < bk));
            if better {
                best = Some((cost, core));
            }
        }
        let (_, core) = best.map_or((0, 0), |b| b);
        core_of_cluster[cluster] = core;
        free[core] = false;
    }
    Placement {
        grid,
        core_of_cluster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` featureless units in `k` contiguous blocks, no traffic.
    fn blocks(n: usize, k: usize) -> Partition {
        Partition::from_assignment((0..n).map(|j| j * k / n).collect(), k, &[])
    }

    #[test]
    fn grid_geometry_round_trips() {
        let g = Grid::new(4, 3);
        assert_eq!(g.cores(), 12);
        assert_eq!(g.xy(0), (0, 0));
        assert_eq!(g.xy(5), (1, 1));
        assert_eq!(g.core_at(3, 2), 11);
        assert_eq!(g.manhattan(0, 11), 5);
        assert_eq!(g.manhattan(5, 5), 0);
    }

    #[test]
    fn greedy_places_every_cluster_on_a_distinct_core() {
        let p = blocks(100, 9);
        let placement = place_greedy(&p, Grid::new(3, 3));
        let mut used = [false; 9];
        for c in 0..placement.num_clusters() {
            let core = placement.core_of(c);
            assert!(!used[core], "core {core} used twice");
            used[core] = true;
        }
        // Deterministic across calls.
        assert_eq!(placement, place_greedy(&p, Grid::new(3, 3)));
    }

    #[test]
    #[should_panic(expected = "cannot be placed")]
    fn too_small_grids_are_rejected() {
        let p = blocks(100, 9);
        let _ = place_greedy(&p, Grid::new(2, 2));
    }
}
