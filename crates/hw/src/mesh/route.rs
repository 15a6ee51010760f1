//! XY dimension-ordered routing fabric with static fault masks.
//!
//! Every core owns one router with four outbound links (E/W/S/N). A
//! spike packet from core A to core B follows the unique XY route —
//! all of the x distance first, then the y distance — so the path, its
//! hop count, and its link occupancy are pure functions of the two
//! endpoints. [`Fabric`] precomputes every pairwise route once, applies
//! the dead-link / dead-router masks drawn from an `nc-faults` plan,
//! and the simulator then does constant-time lookups on the hot path.
//!
//! Fault semantics: a packet stops at the first dead link (that link is
//! not traversed) or at the first dead router it enters (the link into
//! it *is* traversed and billed). A core whose own router is dead can
//! neither send nor receive over the fabric; core-local delivery
//! (`from == to`) never touches the fabric and always succeeds.

use crate::mesh::place::Grid;
use nc_faults::{dead_link_mask, dead_router_mask, FaultPlan};

/// Outbound links per router: one per mesh direction.
pub const PORTS_PER_ROUTER: usize = 4;

/// Mesh link directions. `South` is `y + 1` (row-major ids grow
/// downward), matching [`Grid`] geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `x + 1`.
    East,
    /// `x - 1`.
    West,
    /// `y + 1`.
    South,
    /// `y - 1`.
    North,
}

impl Direction {
    /// Stable port index of the direction, `0..4`.
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::South => 2,
            Direction::North => 3,
        }
    }
}

/// Global id of a router's outbound link in the given direction.
pub fn link_id(core: usize, dir: Direction) -> usize {
    core * PORTS_PER_ROUTER + dir.index()
}

/// The XY route from `from` to `to` as `(direction, next_core)` steps:
/// the full x offset first, then the full y offset.
///
/// # Panics
///
/// Panics if either core is outside the grid.
pub fn xy_steps(grid: Grid, from: usize, to: usize) -> Vec<(Direction, usize)> {
    let (fx, fy) = grid.xy(from);
    let (tx, ty) = grid.xy(to);
    let mut steps = Vec::with_capacity(fx.abs_diff(tx) + fy.abs_diff(ty));
    let (mut x, mut y) = (fx, fy);
    while x != tx {
        let dir = if tx > x {
            Direction::East
        } else {
            Direction::West
        };
        x = if tx > x { x + 1 } else { x - 1 };
        steps.push((dir, grid.core_at(x, y)));
    }
    while y != ty {
        let dir = if ty > y {
            Direction::South
        } else {
            Direction::North
        };
        y = if ty > y { y + 1 } else { y - 1 };
        steps.push((dir, grid.core_at(x, y)));
    }
    steps
}

/// One precomputed source→destination route under the active masks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Route {
    /// Link ids actually traversed: the whole path when delivered,
    /// otherwise the live prefix up to the fault.
    links: Vec<usize>,
    delivered: bool,
}

/// The routing fabric: per-core fault masks plus every pairwise route.
#[derive(Debug, Clone, PartialEq)]
pub struct Fabric {
    grid: Grid,
    dead_links: Vec<bool>,
    dead_routers: Vec<bool>,
    routes: Vec<Route>,
}

impl Fabric {
    /// A fault-free fabric over `grid`.
    pub fn healthy(grid: Grid) -> Fabric {
        Fabric::build(
            grid,
            vec![false; grid.cores() * PORTS_PER_ROUTER],
            vec![false; grid.cores()],
        )
    }

    /// A fabric with dead links and routers drawn from `plan`. Each core
    /// draws from its own salted site stream (`plan.for_site(core)`), so
    /// the defect pattern of core `c` is independent of the grid size
    /// and of every other core — the same per-site convention the
    /// memory fault models use.
    pub fn with_plan(grid: Grid, plan: &FaultPlan) -> Fabric {
        let cores = grid.cores();
        let mut dead_links = Vec::with_capacity(cores * PORTS_PER_ROUTER);
        let mut dead_routers = Vec::with_capacity(cores);
        for core in 0..cores {
            let site = plan.for_site(u64::try_from(core).unwrap_or(u64::MAX));
            dead_links.extend(dead_link_mask(PORTS_PER_ROUTER, &site));
            dead_routers.push(dead_router_mask(1, &site)[0]);
        }
        Fabric::build(grid, dead_links, dead_routers)
    }

    fn build(grid: Grid, dead_links: Vec<bool>, dead_routers: Vec<bool>) -> Fabric {
        let cores = grid.cores();
        let mut routes = Vec::with_capacity(cores * cores);
        for from in 0..cores {
            for to in 0..cores {
                routes.push(walk(grid, &dead_links, &dead_routers, from, to));
            }
        }
        Fabric {
            grid,
            dead_links,
            dead_routers,
            routes,
        }
    }

    /// The grid routed over.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Whether a packet from `from` reaches `to`.
    ///
    /// # Panics
    ///
    /// Panics if either core is outside the grid.
    pub fn delivered(&self, from: usize, to: usize) -> bool {
        self.routes[from * self.grid.cores() + to].delivered
    }

    /// Link ids a packet from `from` to `to` traverses before delivery
    /// or loss — each one costs hop energy and link occupancy.
    ///
    /// # Panics
    ///
    /// Panics if either core is outside the grid.
    pub fn links(&self, from: usize, to: usize) -> &[usize] {
        &self.routes[from * self.grid.cores() + to].links
    }

    /// Whether the outbound link `link` is dead.
    pub fn is_dead_link(&self, link: usize) -> bool {
        self.dead_links[link]
    }

    /// Number of dead outbound links.
    pub fn dead_link_count(&self) -> usize {
        self.dead_links.iter().filter(|&&d| d).count()
    }

    /// Number of dead routers.
    pub fn dead_router_count(&self) -> usize {
        self.dead_routers.iter().filter(|&&d| d).count()
    }
}

fn walk(grid: Grid, dead_links: &[bool], dead_routers: &[bool], from: usize, to: usize) -> Route {
    if from == to {
        // Core-local delivery bypasses the fabric entirely.
        return Route {
            links: Vec::new(),
            delivered: true,
        };
    }
    let mut links = Vec::new();
    if dead_routers[from] {
        return Route {
            links,
            delivered: false,
        };
    }
    let mut cur = from;
    for (dir, next) in xy_steps(grid, from, to) {
        let link = link_id(cur, dir);
        if dead_links[link] {
            return Route {
                links,
                delivered: false,
            };
        }
        links.push(link);
        cur = next;
        if dead_routers[cur] {
            return Route {
                links,
                delivered: false,
            };
        }
    }
    Route {
        links,
        delivered: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_faults::FaultModel;

    #[test]
    fn xy_routes_go_x_first_then_y() {
        let g = Grid::new(4, 4);
        let steps = xy_steps(g, 0, 15);
        let dirs: Vec<Direction> = steps.iter().map(|&(d, _)| d).collect();
        assert_eq!(
            dirs,
            vec![
                Direction::East,
                Direction::East,
                Direction::East,
                Direction::South,
                Direction::South,
                Direction::South,
            ]
        );
        assert_eq!(steps.last().map(|&(_, c)| c), Some(15));
        // Reverse route is W,W,W then N,N,N through distinct links.
        let back = xy_steps(g, 15, 0);
        assert_eq!(back.len(), 6);
        assert_eq!(back[0].0, Direction::West);
        assert_eq!(back[5].0, Direction::North);
    }

    #[test]
    fn healthy_fabric_delivers_everywhere_at_manhattan_cost() {
        let g = Grid::new(4, 3);
        let fabric = Fabric::healthy(g);
        for from in 0..g.cores() {
            for to in 0..g.cores() {
                assert!(fabric.delivered(from, to));
                assert_eq!(fabric.links(from, to).len(), g.manhattan(from, to));
            }
        }
        assert_eq!(fabric.dead_link_count(), 0);
        assert_eq!(fabric.dead_router_count(), 0);
    }

    #[test]
    fn saturated_dead_links_sever_everything_but_local_delivery() {
        let g = Grid::new(3, 3);
        let plan = FaultPlan::new(FaultModel::DeadLink, 1.0, 9).unwrap_or_else(|_| unreachable!());
        let fabric = Fabric::with_plan(g, &plan);
        assert_eq!(fabric.dead_link_count(), g.cores() * PORTS_PER_ROUTER);
        assert_eq!(fabric.dead_router_count(), 0);
        for from in 0..g.cores() {
            for to in 0..g.cores() {
                assert_eq!(fabric.delivered(from, to), from == to);
                assert!(fabric.links(from, to).is_empty()); // first hop already dead
            }
        }
    }

    #[test]
    fn dead_routers_bill_the_link_into_the_corpse() {
        let g = Grid::new(3, 1);
        let plan =
            FaultPlan::new(FaultModel::DeadRouter, 1.0, 9).unwrap_or_else(|_| unreachable!());
        let fabric = Fabric::with_plan(g, &plan);
        assert_eq!(fabric.dead_router_count(), 3);
        // Local delivery still works even on a dead-router core.
        assert!(fabric.delivered(1, 1));
        // A dead source router sends nothing and bills nothing.
        assert!(!fabric.delivered(0, 2));
        assert!(fabric.links(0, 2).is_empty());
    }

    #[test]
    fn fabric_masks_are_deterministic_and_model_gated() {
        let g = Grid::new(4, 4);
        let plan = FaultPlan::new(FaultModel::DeadLink, 0.3, 77).unwrap_or_else(|_| unreachable!());
        let a = Fabric::with_plan(g, &plan);
        let b = Fabric::with_plan(g, &plan);
        assert_eq!(a, b);
        assert!(a.dead_link_count() > 0);
        // A non-fabric model leaves the fabric healthy.
        let stuck =
            FaultPlan::new(FaultModel::StuckAt0, 0.3, 77).unwrap_or_else(|_| unreachable!());
        let clean = Fabric::with_plan(g, &stuck);
        assert_eq!(clean.dead_link_count(), 0);
        assert_eq!(clean.dead_router_count(), 0);
        // Per-core site streams: masks for core 0 are grid-size invariant.
        let small = Fabric::with_plan(Grid::new(2, 2), &plan);
        for link in 0..PORTS_PER_ROUTER {
            assert_eq!(small.is_dead_link(link), a.is_dead_link(link));
        }
    }
}
