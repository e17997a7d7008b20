//! Force-directed 2D VM layout — step 1 of the global phase (Eq. 5–7).
//!
//! Every VM is a point in a 2D plane. Between each ordered pair an
//! *attraction* force `F_a ∈ [−1, 0)` (normalized bidirectional data
//! correlation) and a *repulsion* force `F_r ∈ (0, 1]` (CPU-load
//! correlation) combine into
//!
//! ```text
//! F_t = α · F_a + (1 − α) · F_r                           (Eq. 5)
//! ```
//!
//! Points move under the resultant force with `Δx = ½ · F_x · t²`
//! (Eq. 6). Iteration stops when the motion cost
//!
//! ```text
//! CostAR_k = Σ_i Σ_j F_t^{i,j} · (d_k^{i,j} − d_{k−1}^{i,j})   (Eq. 7)
//! ```
//!
//! — positive when pairs move the way their net force wants — yields a
//! lower value than the previous iteration, or when the iteration cap is
//! reached ("we also fix a maximum number of iterations to avoid a
//! convergence time overhead").
//!
//! The final positions persist: "the final location of all the VMs becomes
//! the initial position for the next time slot", which also warm-starts
//! the modified k-means.
//!
//! # Dense and sparse paths
//!
//! The layout operates SoA on [`VmArena`]-indexed slices with scratch
//! buffers reused across updates, and follows the representation of the
//! CPU-correlation structure it is handed:
//!
//! * **dense** — exact pairwise repulsion (O(n²) per iteration, no
//!   allocation after warm-up) with attraction summed over the sparse
//!   traffic CSR rows; Eq. 7 runs over all pairs. The exactness
//!   reference.
//! * **sparse** — repulsion splits into an exact *near field* over each
//!   VM's retained top-k neighbors (weighted `w − baseline`, so the far
//!   field does not double-count them) and an approximate *far field*: a
//!   uniform grid buckets all points, and every VM is repelled from each
//!   cell's centroid with weight `count × baseline` — O(n·(k + cells))
//!   per iteration. Eq. 7 runs over the union of traffic and top-k edges
//!   (O(edges)).
//!
//! Both paths sum in VM-id order and tie-break degenerate directions on
//! VM ids, so the layout is invariant to how the caller enumerated the
//! fleet.

use geoplace_types::hash::hash_u64;
use geoplace_types::{Exec, VmArena, VmId};
use geoplace_workload::cpucorr::CpuCorrelationMatrix;
use geoplace_workload::graph::TrafficGraph;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A point in the layout plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Displacement time period `t` of Eq. 6.
const TIMESTEP: f64 = 1.0;

/// Maximum per-iteration displacement (stabilizer; forces are normalized
/// by the fleet size and clamped to this step).
const MAX_STEP: f64 = 2.0;

/// Tuning of the force layout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForceLayoutConfig {
    /// Energy/performance weighting factor α of Eq. 5 (0 = pure repulsion
    /// → energy; 1 = pure attraction → performance).
    pub alpha: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Far-field grid resolution per axis of the sparse path
    /// (`grid_dim²` cells).
    pub grid_dim: usize,
}

impl Default for ForceLayoutConfig {
    fn default() -> Self {
        ForceLayoutConfig {
            alpha: 0.5,
            max_iterations: 50,
            grid_dim: 8,
        }
    }
}

/// Reusable per-update buffers — sized once, reused every slot, so the
/// steady-state update performs no O(n²) (dense) or O(n + edges)
/// (sparse) allocations.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Positions in arena order (also the returned slice).
    points: Vec<Point>,
    /// Next-iteration positions.
    next: Vec<Point>,
    /// Arena indices sorted by VM id — every accumulation walks this
    /// order so floating-point sums are enumeration-invariant.
    order: Vec<u32>,
    /// Dense path: upper-triangular pairwise distances of the previous /
    /// current iteration.
    pair_dist: Vec<f64>,
    pair_dist_next: Vec<f64>,
    /// Sparse path: the Eq. 7 edge list (union of traffic and top-k
    /// repulsion edges), its per-edge previous distances, and the
    /// pre-dedup build buffer.
    edges: Vec<CostEdge>,
    edge_dist: Vec<f64>,
    raw_edges: Vec<RawEdge>,
    /// Sparse path: far-field grid accumulators.
    cell_count: Vec<u32>,
    cell_sum_x: Vec<f64>,
    cell_sum_y: Vec<f64>,
    cell_of: Vec<u32>,
    /// Per-VM clamped displacements of one iteration — filled by the
    /// parallel force workers (disjoint per-VM writes), applied serially.
    steps: Vec<(f64, f64)>,
}

/// One undirected Eq. 7 edge with its combined force weight
/// `α(F_a^{i→j}+F_a^{j→i}) + (1−α)(R-contributions)`.
#[derive(Debug, Clone, Copy)]
struct CostEdge {
    i: u32,
    j: u32,
    weight: f64,
}

/// One pre-dedup Eq. 7 contribution, canonicalized to the lower-VM-id
/// side so the sort groups both rows' entries of the same pair.
#[derive(Debug, Clone, Copy)]
struct RawEdge {
    lo_id: VmId,
    hi_id: VmId,
    lo: u32,
    hi: u32,
    weight: f64,
}

impl RawEdge {
    fn new(a: (VmId, u32), b: (VmId, u32), weight: f64) -> Self {
        let ((lo_id, lo), (hi_id, hi)) = if a.0 < b.0 { (a, b) } else { (b, a) };
        RawEdge {
            lo_id,
            hi_id,
            lo,
            hi,
            weight,
        }
    }
}

/// The persistent force-directed layout.
///
/// # Examples
///
/// ```
/// use geoplace_core::force::{ForceLayout, ForceLayoutConfig};
/// use geoplace_workload::fleet::{FleetConfig, VmFleet};
/// use geoplace_types::time::TimeSlot;
/// use geoplace_types::{Exec, VmArena};
///
/// let mut fleet = VmFleet::new(FleetConfig::default())?;
/// let windows = fleet.windows(TimeSlot(0));
/// let arena = VmArena::from_ids(windows.ids());
/// let cpu = geoplace_workload::cpucorr::CpuCorrelationMatrix::compute(&windows);
/// let traffic = fleet.data_correlation().traffic_graph(&arena);
/// let mut layout = ForceLayout::new(ForceLayoutConfig::default(), 42);
/// let positions = layout.update(&arena, &cpu, &traffic, Exec::serial()).to_vec();
/// assert_eq!(positions.len(), windows.len());
/// # Ok::<(), geoplace_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ForceLayout {
    config: ForceLayoutConfig,
    positions: BTreeMap<VmId, Point>,
    seed: u64,
    /// Iterations executed by the most recent [`ForceLayout::update`].
    last_iterations: usize,
    scratch: Scratch,
}

impl ForceLayout {
    /// Creates an empty layout; `seed` scatters the initial positions.
    pub fn new(config: ForceLayoutConfig, seed: u64) -> Self {
        ForceLayout {
            config,
            positions: BTreeMap::new(),
            seed,
            last_iterations: 0,
            scratch: Scratch::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ForceLayoutConfig {
        &self.config
    }

    /// Iterations used by the last update (diagnostic; bounded by
    /// `max_iterations`).
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    /// Current position of a VM, if it has one.
    pub fn position(&self, vm: VmId) -> Option<Point> {
        self.positions.get(&vm).copied()
    }

    /// All warm-start positions in VM-id order — the layout's only state
    /// that must survive a checkpoint (the scratch buffers are rebuilt by
    /// the next update, and `scatter` is a pure function of the seed).
    pub fn positions(&self) -> impl Iterator<Item = (VmId, Point)> + '_ {
        self.positions.iter().map(|(&vm, &p)| (vm, p))
    }

    /// Replaces the warm-start positions wholesale (checkpoint restore).
    /// The next [`ForceLayout::update`] prunes departures and scatters
    /// arrivals against its arena as usual.
    pub fn set_positions(&mut self, positions: BTreeMap<VmId, Point>) {
        self.positions = positions;
    }

    /// Runs the attraction/repulsion iteration for the arena's VM set and
    /// returns their final positions (aligned with the arena indices; the
    /// slice borrows the layout's scratch and is valid until the next
    /// update). Departed VMs are pruned; new VMs enter at deterministic
    /// scattered positions. The dense or sparse path is selected by the
    /// representation of `cpu_corr`.
    ///
    /// The per-VM force accumulation fans out over `exec`. Each VM's
    /// resultant is an independent pure function of the previous
    /// iteration's positions (the update is Jacobi-style), and the Eq. 7
    /// stopping sums stay on the calling thread, so every thread count
    /// walks the identical iteration trajectory.
    pub fn update(
        &mut self,
        arena: &VmArena,
        cpu_corr: &CpuCorrelationMatrix,
        traffic: &TrafficGraph,
        exec: Exec,
    ) -> &[Point] {
        let ids = arena.ids();
        let n = ids.len();
        debug_assert_eq!(cpu_corr.len(), n, "correlation/arena size mismatch");
        debug_assert_eq!(traffic.len(), n, "traffic/arena size mismatch");
        // Prune departures, scatter arrivals.
        self.positions.retain(|vm, _| arena.contains(*vm));
        for &vm in ids {
            let seed = self.seed;
            self.positions
                .entry(vm)
                .or_insert_with(|| scatter(seed, vm));
        }
        self.scratch.points.clear();
        self.scratch
            .points
            .extend(ids.iter().map(|vm| self.positions[vm]));
        if n < 2 {
            self.last_iterations = 0;
            return &self.scratch.points;
        }

        self.scratch.order.clear();
        self.scratch.order.extend(0..n as u32);
        self.scratch
            .order
            .sort_unstable_by_key(|&i| ids[i as usize]);

        if cpu_corr.is_sparse() {
            self.update_sparse(arena, cpu_corr, traffic, exec);
        } else {
            self.update_dense(arena, cpu_corr, traffic, exec);
        }

        for (vm, point) in ids.iter().zip(self.scratch.points.iter()) {
            self.positions.insert(*vm, *point);
        }
        &self.scratch.points
    }

    /// Exact path: pairwise repulsion over the full dense matrix,
    /// attraction over the traffic CSR rows, Eq. 7 over all pairs.
    fn update_dense(
        &mut self,
        arena: &VmArena,
        cpu_corr: &CpuCorrelationMatrix,
        traffic: &TrafficGraph,
        exec: Exec,
    ) {
        let ids = arena.ids();
        let n = ids.len();
        let alpha = self.config.alpha;
        let seed = self.seed;
        let scratch = &mut self.scratch;
        let pairs = n * (n - 1) / 2;
        scratch.pair_dist.clear();
        scratch.pair_dist.resize(pairs, 0.0);
        scratch.pair_dist_next.clear();
        scratch.pair_dist_next.resize(pairs, 0.0);

        fill_pair_distances(&scratch.points, &mut scratch.pair_dist);
        scratch.steps.clear();
        scratch.steps.resize(n, (0.0, 0.0));
        let mut prev_cost: Option<f64> = None;
        let scale = displacement_scale(n);
        let mut iterations = 0;
        for k in 0..self.config.max_iterations {
            iterations = k + 1;
            // Per-VM resultants fan out across the workers into the
            // reusable steps scratch (disjoint per-VM writes); each VM
            // reads only the previous iteration's positions, so this is a
            // pure map and thread-count invariant — and allocation-free
            // in steady state.
            {
                let Scratch {
                    points,
                    order,
                    steps,
                    ..
                } = &mut *scratch;
                let points = &*points;
                let order = &*order;
                exec.map_mut(steps, |i, step| {
                    let here = points[i];
                    let id_i = ids[i];
                    let mut fx = 0.0;
                    let mut fy = 0.0;
                    // Repulsion from every other VM (Eq. 5, weight
                    // (1−α)·Corr_cpu), summed in VM-id order.
                    for &jj in order {
                        let j = jj as usize;
                        if j == i {
                            continue;
                        }
                        let f = (1.0 - alpha) * f64::from(cpu_corr.at(i, j));
                        let (dx, dy) = direction(points[j], here, seed, pair_tie(id_i, ids[j]));
                        fx += f * dx;
                        fy += f * dy;
                    }
                    // Attraction only from communicating partners (rows
                    // are id-sorted already).
                    for edge in traffic.row(i) {
                        let j = edge.target as usize;
                        let f = alpha * traffic.attraction_in(edge);
                        let (dx, dy) = direction(points[j], here, seed, pair_tie(id_i, ids[j]));
                        fx += f * dx;
                        fy += f * dy;
                    }
                    *step = clamp_step(fx * scale, fy * scale);
                });
            }
            scratch.next.clear();
            scratch.next.extend_from_slice(&scratch.points);
            for (i, &(step_x, step_y)) in scratch.steps.iter().enumerate() {
                scratch.next[i].x += step_x;
                scratch.next[i].y += step_y;
            }
            std::mem::swap(&mut scratch.points, &mut scratch.next);

            // Eq. 7 stopping rule over all pairs: the symmetric repulsion
            // contributes 2(1−α)R_ij per unordered pair; the directed
            // attractions contribute once per stored CSR entry.
            fill_pair_distances(&scratch.points, &mut scratch.pair_dist_next);
            let mut cost = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    let idx = pair_index(n, i, j);
                    let delta = scratch.pair_dist_next[idx] - scratch.pair_dist[idx];
                    cost += 2.0 * (1.0 - alpha) * f64::from(cpu_corr.at(i, j)) * delta;
                }
            }
            for i in 0..n {
                for edge in traffic.row(i) {
                    let j = edge.target as usize;
                    let idx = pair_index(n, i.min(j), i.max(j));
                    let delta = scratch.pair_dist_next[idx] - scratch.pair_dist[idx];
                    cost += alpha * traffic.attraction_in(edge) * delta;
                }
            }
            std::mem::swap(&mut scratch.pair_dist, &mut scratch.pair_dist_next);
            if let Some(previous) = prev_cost {
                if cost < previous {
                    break;
                }
            }
            prev_cost = Some(cost);
        }
        self.last_iterations = iterations;
    }

    /// Approximate path: top-k near-field repulsion + uniform-grid
    /// far field, attraction over the traffic CSR rows, Eq. 7 over the
    /// retained edge union.
    fn update_sparse(
        &mut self,
        arena: &VmArena,
        cpu_corr: &CpuCorrelationMatrix,
        traffic: &TrafficGraph,
        exec: Exec,
    ) {
        let ids = arena.ids();
        let n = ids.len();
        let alpha = self.config.alpha;
        let seed = self.seed;
        let baseline = f64::from(cpu_corr.baseline());
        let grid_dim = self.config.grid_dim.max(1);
        let cells = grid_dim * grid_dim;
        let scratch = &mut self.scratch;

        // Eq. 7 edge union: traffic pairs + retained top-k pairs, each
        // undirected pair once with its combined force weight. The raw
        // list is scratch too — at stress scale it holds hundreds of
        // thousands of entries every slot. Rows are visited in VM-id
        // order (their contents are id-sorted already), so the pre-sort
        // key sequence — and with it the equal-key merge order of the
        // non-associative f64 weight fold below — is identical however
        // the caller enumerated the fleet.
        scratch.edges.clear();
        scratch.raw_edges.clear();
        for &ii in &scratch.order {
            let i = ii as usize;
            let id_i = ids[i];
            for edge in traffic.row(i) {
                let id_j = ids[edge.target as usize];
                scratch.raw_edges.push(RawEdge::new(
                    (id_i, ii),
                    (id_j, edge.target),
                    alpha * traffic.attraction_in(edge),
                ));
            }
            for &(j, w) in cpu_corr.neighbors(i) {
                let id_j = ids[j as usize];
                scratch.raw_edges.push(RawEdge::new(
                    (id_i, ii),
                    (id_j, j),
                    (1.0 - alpha) * f64::from(w),
                ));
            }
        }
        scratch
            .raw_edges
            .sort_unstable_by(|x, y| x.lo_id.cmp(&y.lo_id).then(x.hi_id.cmp(&y.hi_id)));
        for entry in &scratch.raw_edges {
            match scratch.edges.last_mut() {
                Some(last) if last.i == entry.lo && last.j == entry.hi => {
                    last.weight += entry.weight;
                }
                _ => scratch.edges.push(CostEdge {
                    i: entry.lo,
                    j: entry.hi,
                    weight: entry.weight,
                }),
            }
        }
        scratch.edge_dist.clear();
        scratch.edge_dist.extend(
            scratch
                .edges
                .iter()
                .map(|e| scratch.points[e.i as usize].distance(&scratch.points[e.j as usize])),
        );

        scratch.cell_count.resize(cells, 0);
        scratch.cell_sum_x.resize(cells, 0.0);
        scratch.cell_sum_y.resize(cells, 0.0);
        scratch.cell_of.resize(n, 0);
        scratch.steps.clear();
        scratch.steps.resize(n, (0.0, 0.0));

        let mut prev_cost: Option<f64> = None;
        let scale = displacement_scale(n);
        let mut iterations = 0;
        for k in 0..self.config.max_iterations {
            iterations = k + 1;

            // Bucket the plane: per-cell population count and position
            // sum (filled in VM-id order for enumeration invariance).
            let (mut min_x, mut min_y) = (f64::MAX, f64::MAX);
            let (mut max_x, mut max_y) = (f64::MIN, f64::MIN);
            for p in &scratch.points {
                min_x = min_x.min(p.x);
                min_y = min_y.min(p.y);
                max_x = max_x.max(p.x);
                max_y = max_y.max(p.y);
            }
            let span_x = (max_x - min_x).max(1e-9);
            let span_y = (max_y - min_y).max(1e-9);
            scratch.cell_count[..cells].fill(0);
            scratch.cell_sum_x[..cells].fill(0.0);
            scratch.cell_sum_y[..cells].fill(0.0);
            for &jj in &scratch.order {
                let p = scratch.points[jj as usize];
                let cx = (((p.x - min_x) / span_x * grid_dim as f64) as usize).min(grid_dim - 1);
                let cy = (((p.y - min_y) / span_y * grid_dim as f64) as usize).min(grid_dim - 1);
                let cell = cy * grid_dim + cx;
                scratch.cell_of[jj as usize] = cell as u32;
                scratch.cell_count[cell] += 1;
                scratch.cell_sum_x[cell] += p.x;
                scratch.cell_sum_y[cell] += p.y;
            }

            // Per-VM resultants fan out across the workers into the
            // reusable steps scratch (pure map over the previous
            // positions and the frozen grid — thread-count invariant,
            // see `update_dense` — and allocation-free in steady state).
            {
                let Scratch {
                    points,
                    cell_count,
                    cell_sum_x,
                    cell_sum_y,
                    cell_of,
                    steps,
                    ..
                } = &mut *scratch;
                let points = &*points;
                let cell_count = &*cell_count;
                let cell_sum_x = &*cell_sum_x;
                let cell_sum_y = &*cell_sum_y;
                let cell_of = &*cell_of;
                exec.map_mut(steps, |i, step| {
                    let here = points[i];
                    let id_i = ids[i];
                    let mut fx = 0.0;
                    let mut fy = 0.0;
                    // Far field: every VM repels from each populated
                    // cell's centroid at the baseline correlation (own
                    // contribution excluded from the home cell).
                    for cell in 0..cells {
                        let mut count = cell_count[cell];
                        let mut sum_x = cell_sum_x[cell];
                        let mut sum_y = cell_sum_y[cell];
                        if cell_of[i] as usize == cell {
                            count -= 1;
                            sum_x -= here.x;
                            sum_y -= here.y;
                        }
                        if count == 0 {
                            continue;
                        }
                        let centroid = Point {
                            x: sum_x / f64::from(count),
                            y: sum_y / f64::from(count),
                        };
                        let f = (1.0 - alpha) * baseline * f64::from(count);
                        let tie = (u64::from(id_i.0) << 32) | cell as u64;
                        let (dx, dy) = direction(centroid, here, seed, tie);
                        fx += f * dx;
                        fy += f * dy;
                    }
                    // Near field: the retained top-k neighbors, corrected
                    // for the baseline the far field already applied to
                    // them.
                    for &(j, w) in cpu_corr.neighbors(i) {
                        let f = (1.0 - alpha) * (f64::from(w) - baseline);
                        let there = points[j as usize];
                        let (dx, dy) =
                            direction(there, here, seed, pair_tie(id_i, ids[j as usize]));
                        fx += f * dx;
                        fy += f * dy;
                    }
                    // Attraction from communicating partners.
                    for edge in traffic.row(i) {
                        let j = edge.target as usize;
                        let f = alpha * traffic.attraction_in(edge);
                        let (dx, dy) = direction(points[j], here, seed, pair_tie(id_i, ids[j]));
                        fx += f * dx;
                        fy += f * dy;
                    }
                    *step = clamp_step(fx * scale, fy * scale);
                });
            }
            scratch.next.clear();
            scratch.next.extend_from_slice(&scratch.points);
            for (i, &(step_x, step_y)) in scratch.steps.iter().enumerate() {
                scratch.next[i].x += step_x;
                scratch.next[i].y += step_y;
            }
            std::mem::swap(&mut scratch.points, &mut scratch.next);

            // Eq. 7 over the retained edge union — O(edges).
            let mut cost = 0.0;
            for (edge, prev) in scratch.edges.iter().zip(scratch.edge_dist.iter_mut()) {
                let dist =
                    scratch.points[edge.i as usize].distance(&scratch.points[edge.j as usize]);
                cost += edge.weight * (dist - *prev);
                *prev = dist;
            }
            if let Some(previous) = prev_cost {
                if cost < previous {
                    break;
                }
            }
            prev_cost = Some(cost);
        }
        self.last_iterations = iterations;
    }
}

/// Eq. 6 displacement factor. Normalize the resultant by √n: with
/// distance-independent pair forces the directions of n−1 contributions
/// largely cancel, so the typical magnitude grows like √n; dividing by n
/// would freeze large fleets, dividing by 1 would explode them.
/// [`MAX_STEP`] guards the tail.
fn displacement_scale(n: usize) -> f64 {
    0.5 * TIMESTEP * TIMESTEP / (n as f64).sqrt()
}

/// Clamps a displacement to [`MAX_STEP`].
fn clamp_step(step_x: f64, step_y: f64) -> (f64, f64) {
    let step = (step_x * step_x + step_y * step_y).sqrt();
    if step > MAX_STEP {
        let shrink = MAX_STEP / step;
        (step_x * shrink, step_y * shrink)
    } else {
        (step_x, step_y)
    }
}

/// Deterministic scatter position for a new VM.
fn scatter(seed: u64, vm: VmId) -> Point {
    let h = hash_u64(seed, u64::from(vm.0));
    let x = ((h >> 11) & 0xFFFF) as f64 / 65535.0 * 10.0;
    let y = ((h >> 31) & 0xFFFF) as f64 / 65535.0 * 10.0;
    Point { x, y }
}

/// Degenerate-direction tie key of a VM pair, built from the *ids* (not
/// positions or enumeration indices) so the layout cannot depend on how
/// the fleet was ordered: key = (id of the point being pushed) ‖ (id of
/// the point pushing it).
fn pair_tie(to: VmId, from: VmId) -> u64 {
    (u64::from(to.0) << 32) | u64::from(from.0)
}

/// Unit vector from `from` to `to`; coincident points get a deterministic
/// pseudo-random direction (derived from `tie`) so repulsion can separate
/// them.
fn direction(from: Point, to: Point, seed: u64, tie: u64) -> (f64, f64) {
    let dx = to.x - from.x;
    let dy = to.y - from.y;
    let len = (dx * dx + dy * dy).sqrt();
    if len < 1e-12 {
        let h = hash_u64(seed, tie);
        let angle = (h & 0xFFFF) as f64 / 65535.0 * std::f64::consts::TAU;
        return (angle.cos(), angle.sin());
    }
    (dx / len, dy / len)
}

/// Upper-triangular index of pair `(i, j)`, `i < j`.
fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

fn fill_pair_distances(points: &[Point], out: &mut [f64]) {
    let n = points.len();
    let mut idx = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            out[idx] = points[i].distance(&points[j]);
            idx += 1;
        }
    }
    debug_assert_eq!(idx, out.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoplace_types::time::TimeSlot;
    use geoplace_workload::datacorr::{DataCorrelation, DataCorrelationConfig};
    use geoplace_workload::fleet::{FleetConfig, VmFleet};
    use geoplace_workload::sparsity::SparsityConfig;
    use geoplace_workload::window::UtilizationWindows;

    fn fleet() -> VmFleet {
        let mut config = FleetConfig::default();
        config.arrivals.initial_groups = 8;
        config.arrivals.group_size_range = (2, 4);
        config.arrivals.seed = 3;
        VmFleet::new(config).unwrap()
    }

    fn graph_for(windows: &UtilizationWindows, data: &DataCorrelation) -> (VmArena, TrafficGraph) {
        let arena = VmArena::from_ids(windows.ids());
        let traffic = data.traffic_graph(&arena);
        (arena, traffic)
    }

    #[test]
    fn update_returns_finite_positions() {
        let fleet = fleet();
        let windows = fleet.windows(TimeSlot(0));
        let cpu = CpuCorrelationMatrix::compute(&windows);
        let (arena, traffic) = graph_for(&windows, fleet.data_correlation());
        let mut layout = ForceLayout::new(ForceLayoutConfig::default(), 1);
        let points = layout
            .update(&arena, &cpu, &traffic, Exec::serial())
            .to_vec();
        assert_eq!(points.len(), windows.len());
        for p in &points {
            assert!(p.x.is_finite() && p.y.is_finite());
        }
        assert!(layout.last_iterations() >= 1);
        assert!(layout.last_iterations() <= layout.config().max_iterations);
    }

    #[test]
    fn positions_persist_across_updates() {
        let fleet = fleet();
        let windows = fleet.windows(TimeSlot(0));
        let cpu = CpuCorrelationMatrix::compute(&windows);
        let (arena, traffic) = graph_for(&windows, fleet.data_correlation());
        let mut layout = ForceLayout::new(ForceLayoutConfig::default(), 1);
        let first = layout
            .update(&arena, &cpu, &traffic, Exec::serial())
            .to_vec();
        // Next slot: the previous final positions are the new initial ones.
        let vm0 = windows.ids()[0];
        assert_eq!(layout.position(vm0).unwrap().x, first[0].x);
    }

    #[test]
    fn data_correlated_pairs_end_up_closer_than_cpu_correlated() {
        // Two synthetic pairs: (0,1) heavy traffic & anti-correlated CPU;
        // (2,3) no traffic & perfectly coincident CPU peaks.
        let ids = [VmId(0), VmId(1), VmId(2), VmId(3)];
        let windows = UtilizationWindows::from_rows(vec![
            (VmId(0), vec![0.9, 0.1, 0.1, 0.1]),
            (VmId(1), vec![0.1, 0.1, 0.1, 0.9]),
            (VmId(2), vec![0.9, 0.1, 0.1, 0.1]),
            (VmId(3), vec![0.9, 0.1, 0.1, 0.1]),
        ]);
        let cpu = CpuCorrelationMatrix::compute(&windows);
        // Build traffic: only pair (0,1) communicates, heavily.
        let mut data = DataCorrelation::new(DataCorrelationConfig::default());
        let mut fleet_cfg = FleetConfig::default();
        fleet_cfg.arrivals.initial_groups = 2;
        fleet_cfg.arrivals.group_size_range = (2, 2);
        fleet_cfg.arrivals.seed = 9;
        // Construct via a tiny fleet so ids 0..3 exist with groups (0,1),(2,3).
        let fleet = VmFleet::new(fleet_cfg).unwrap();
        let specs: Vec<_> = ids
            .iter()
            .map(|&id| fleet.vm(id).unwrap().clone())
            .collect();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        // Group of vm0,vm1 gets intra-group wiring; vm2,vm3 are in another
        // group — sever their link by reconnecting only the first pair.
        data.connect_arrivals(&specs[..2], &specs[..2], &mut rng);

        let arena = VmArena::from_ids(&ids);
        let traffic = data.traffic_graph(&arena);
        let mut layout = ForceLayout::new(
            ForceLayoutConfig {
                max_iterations: 200,
                ..ForceLayoutConfig::default()
            },
            7,
        );
        let points = layout
            .update(&arena, &cpu, &traffic, Exec::serial())
            .to_vec();
        let talkers = points[0].distance(&points[1]);
        let peakers = points[2].distance(&points[3]);
        assert!(
            talkers < peakers,
            "data-correlated pair ({talkers:.3}) should sit closer than \
             CPU-correlated pair ({peakers:.3})"
        );
    }

    #[test]
    fn departed_vms_are_pruned() {
        let fleet = fleet();
        let windows = fleet.windows(TimeSlot(0));
        let cpu = CpuCorrelationMatrix::compute(&windows);
        let (arena, traffic) = graph_for(&windows, fleet.data_correlation());
        let mut layout = ForceLayout::new(ForceLayoutConfig::default(), 1);
        layout.update(&arena, &cpu, &traffic, Exec::serial());
        let gone = windows.ids()[0];
        let remaining: Vec<VmId> = windows.ids()[1..].to_vec();
        let sub_windows = UtilizationWindows::from_rows(
            remaining
                .iter()
                .map(|&vm| (vm, windows.row(vm).unwrap().to_vec()))
                .collect(),
        );
        let sub_cpu = CpuCorrelationMatrix::compute(&sub_windows);
        let (sub_arena, sub_traffic) = graph_for(&sub_windows, fleet.data_correlation());
        layout.update(&sub_arena, &sub_cpu, &sub_traffic, Exec::serial());
        assert!(layout.position(gone).is_none());
    }

    #[test]
    fn single_vm_needs_no_iteration() {
        let windows = UtilizationWindows::from_rows(vec![(VmId(0), vec![0.5, 0.5])]);
        let cpu = CpuCorrelationMatrix::compute(&windows);
        let data = DataCorrelation::new(DataCorrelationConfig::default());
        let (arena, traffic) = graph_for(&windows, &data);
        let mut layout = ForceLayout::new(ForceLayoutConfig::default(), 1);
        let points = layout
            .update(&arena, &cpu, &traffic, Exec::serial())
            .to_vec();
        assert_eq!(points.len(), 1);
        assert_eq!(layout.last_iterations(), 0);
    }

    #[test]
    fn update_is_deterministic() {
        let run = || {
            let fleet = fleet();
            let windows = fleet.windows(TimeSlot(0));
            let cpu = CpuCorrelationMatrix::compute(&windows);
            let (arena, traffic) = graph_for(&windows, fleet.data_correlation());
            let mut layout = ForceLayout::new(ForceLayoutConfig::default(), 1);
            layout
                .update(&arena, &cpu, &traffic, Exec::serial())
                .iter()
                .map(|p| (p.x, p.y))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn alpha_one_is_pure_attraction() {
        // With α = 1 repulsion is ignored: CPU-correlated, non-talking
        // pairs do not separate.
        let windows = UtilizationWindows::from_rows(vec![
            (VmId(0), vec![0.9, 0.1]),
            (VmId(1), vec![0.9, 0.1]),
        ]);
        let cpu = CpuCorrelationMatrix::compute(&windows);
        let data = DataCorrelation::new(DataCorrelationConfig::default());
        let (arena, traffic) = graph_for(&windows, &data);
        let config = ForceLayoutConfig {
            alpha: 1.0,
            ..ForceLayoutConfig::default()
        };
        let mut layout = ForceLayout::new(config, 3);
        let before_a = scatter(3, VmId(0));
        let before_b = scatter(3, VmId(1));
        let initial = before_a.distance(&before_b);
        let points = layout
            .update(&arena, &cpu, &traffic, Exec::serial())
            .to_vec();
        let after = points[0].distance(&points[1]);
        assert!(
            (after - initial).abs() < 1e-9,
            "no traffic, no repulsion → no motion"
        );
    }

    type Rows = Vec<(VmId, Vec<f32>)>;

    /// Runs one dense update over `rows` presented in the given order and
    /// returns the final position of every VM keyed by id.
    fn dense_layout_of(rows: Rows, sparse: bool) -> Vec<(VmId, Point)> {
        let windows = UtilizationWindows::from_rows(rows);
        let cpu = if sparse {
            CpuCorrelationMatrix::compute_sparse(
                &windows,
                &SparsityConfig {
                    top_k: 4,
                    peak_buckets: 6,
                    candidates_per_vm: 12,
                    baseline_samples: 128,
                    ..SparsityConfig::default()
                },
            )
        } else {
            CpuCorrelationMatrix::compute(&windows)
        };
        let data = DataCorrelation::new(DataCorrelationConfig::default());
        let arena = VmArena::from_ids(windows.ids());
        let traffic = data.traffic_graph(&arena);
        let mut layout = ForceLayout::new(ForceLayoutConfig::default(), 11);
        let points = layout
            .update(&arena, &cpu, &traffic, Exec::serial())
            .to_vec();
        windows.ids().iter().copied().zip(points).collect()
    }

    fn permuted_rows() -> (Rows, Rows) {
        let rows: Rows = (0..12u32)
            .map(|i| {
                let phase = (i as usize * 3) % 16;
                let row = (0..16)
                    .map(|t| 0.1 + 0.8 * f32::from(u8::from((t + phase) % 16 < 4)))
                    .collect();
                (VmId(i), row)
            })
            .collect();
        let mut shuffled = rows.clone();
        shuffled.reverse();
        shuffled.swap(2, 9);
        (rows, shuffled)
    }

    #[test]
    fn layout_is_permutation_invariant_dense() {
        // The same fleet enumerated in a different order must produce the
        // *identical* layout: ties in `direction()` break on VM ids, and
        // all force sums run in VM-id order.
        let (rows, shuffled) = permuted_rows();
        let mut a = dense_layout_of(rows, false);
        let mut b = dense_layout_of(shuffled, false);
        a.sort_by_key(|&(vm, _)| vm);
        b.sort_by_key(|&(vm, _)| vm);
        assert_eq!(a.len(), b.len());
        for ((vm_a, p_a), (vm_b, p_b)) in a.iter().zip(b.iter()) {
            assert_eq!(vm_a, vm_b);
            assert_eq!((p_a.x, p_a.y), (p_b.x, p_b.y), "{vm_a} moved");
        }
    }

    #[test]
    fn layout_is_permutation_invariant_sparse() {
        let (rows, shuffled) = permuted_rows();
        let mut a = dense_layout_of(rows, true);
        let mut b = dense_layout_of(shuffled, true);
        a.sort_by_key(|&(vm, _)| vm);
        b.sort_by_key(|&(vm, _)| vm);
        for ((vm_a, p_a), (vm_b, p_b)) in a.iter().zip(b.iter()) {
            assert_eq!(vm_a, vm_b);
            assert_eq!((p_a.x, p_a.y), (p_b.x, p_b.y), "{vm_a} moved");
        }
    }

    #[test]
    fn layout_is_thread_count_invariant() {
        use geoplace_types::Parallelism;
        // Bit-identical final positions at every thread count, dense and
        // sparse — the executor contract applied to the layout.
        let (rows, _) = permuted_rows();
        for sparse in [false, true] {
            let run = |threads: usize| {
                let windows = UtilizationWindows::from_rows(rows.clone());
                let cpu = if sparse {
                    CpuCorrelationMatrix::compute_sparse(
                        &windows,
                        &SparsityConfig {
                            top_k: 4,
                            peak_buckets: 6,
                            candidates_per_vm: 12,
                            baseline_samples: 128,
                            ..SparsityConfig::default()
                        },
                    )
                } else {
                    CpuCorrelationMatrix::compute(&windows)
                };
                let data = DataCorrelation::new(DataCorrelationConfig::default());
                let arena = VmArena::from_ids(windows.ids());
                let traffic = data.traffic_graph(&arena);
                let mut layout = ForceLayout::new(ForceLayoutConfig::default(), 11);
                let exec = Exec::new(Parallelism::Threads(threads));
                let points = layout.update(&arena, &cpu, &traffic, exec).to_vec();
                (points, layout.last_iterations())
            };
            let (reference, reference_iterations) = run(1);
            for threads in [2usize, 3, 8] {
                let (points, iterations) = run(threads);
                assert_eq!(
                    iterations, reference_iterations,
                    "sparse={sparse} t={threads}"
                );
                for (p, q) in points.iter().zip(reference.iter()) {
                    assert_eq!(
                        (p.x.to_bits(), p.y.to_bits()),
                        (q.x.to_bits(), q.y.to_bits()),
                        "sparse={sparse} t={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_path_separates_talkers_from_strangers() {
        // Same qualitative behavior as the dense path: heavy talkers pull
        // together, coincident peakers push apart.
        let vm_ids = [VmId(0), VmId(1), VmId(2), VmId(3)];
        let windows = UtilizationWindows::from_rows(vec![
            (VmId(0), vec![0.9, 0.1, 0.1, 0.1]),
            (VmId(1), vec![0.1, 0.1, 0.1, 0.9]),
            (VmId(2), vec![0.9, 0.1, 0.1, 0.1]),
            (VmId(3), vec![0.9, 0.1, 0.1, 0.1]),
        ]);
        let cpu = CpuCorrelationMatrix::compute_sparse(
            &windows,
            &SparsityConfig {
                top_k: 3,
                peak_buckets: 4,
                candidates_per_vm: 8,
                baseline_samples: 64,
                ..SparsityConfig::default()
            },
        );
        let mut data = DataCorrelation::new(DataCorrelationConfig::default());
        let mut fleet_cfg = FleetConfig::default();
        fleet_cfg.arrivals.initial_groups = 2;
        fleet_cfg.arrivals.group_size_range = (2, 2);
        fleet_cfg.arrivals.seed = 9;
        let fleet = VmFleet::new(fleet_cfg).unwrap();
        let specs: Vec<_> = vm_ids
            .iter()
            .map(|&id| fleet.vm(id).unwrap().clone())
            .collect();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        data.connect_arrivals(&specs[..2], &specs[..2], &mut rng);
        let arena = VmArena::from_ids(&vm_ids);
        let traffic = data.traffic_graph(&arena);
        let mut layout = ForceLayout::new(
            ForceLayoutConfig {
                max_iterations: 200,
                ..ForceLayoutConfig::default()
            },
            7,
        );
        let points = layout
            .update(&arena, &cpu, &traffic, Exec::serial())
            .to_vec();
        assert!(layout.last_iterations() >= 1);
        let talkers = points[0].distance(&points[1]);
        let peakers = points[2].distance(&points[3]);
        assert!(
            talkers < peakers,
            "sparse path: talkers {talkers:.3} vs peakers {peakers:.3}"
        );
        for p in &points {
            assert!(p.x.is_finite() && p.y.is_finite());
        }
    }

    #[test]
    fn sparse_and_dense_agree_on_single_step_forces() {
        // With full candidate coverage and top-k ≥ n the sparse path's
        // near field holds every pair exactly; only the far-field grid
        // term differs from the dense sum (cell centroids stand in for
        // individual points at the baseline weight). Over one iteration
        // from the same scattered start, the resulting displacements must
        // agree closely. (Full runs diverge by design — the Eq. 7
        // stopping rule reacts to tiny cost differences — and end-to-end
        // agreement is asserted on report totals in the integration
        // tests.)
        let fleet = fleet();
        let windows = fleet.windows(TimeSlot(0));
        let n = windows.len();
        let dense_cpu = CpuCorrelationMatrix::compute(&windows);
        let sparse_cpu = CpuCorrelationMatrix::compute_sparse(
            &windows,
            &SparsityConfig {
                top_k: n,
                candidates_per_vm: n * n,
                peak_buckets: 4,
                baseline_samples: 512,
                ..SparsityConfig::default()
            },
        );
        let (arena, traffic) = graph_for(&windows, fleet.data_correlation());
        let config = ForceLayoutConfig {
            max_iterations: 1,
            grid_dim: 16,
            ..ForceLayoutConfig::default()
        };
        let start: Vec<Point> = arena.ids().iter().map(|&vm| scatter(1, vm)).collect();
        let mut dense_layout = ForceLayout::new(config, 1);
        let dense_pts = dense_layout
            .update(&arena, &dense_cpu, &traffic, Exec::serial())
            .to_vec();
        let mut sparse_layout = ForceLayout::new(config, 1);
        let sparse_pts = sparse_layout
            .update(&arena, &sparse_cpu, &traffic, Exec::serial())
            .to_vec();
        let mut worst = 0.0f64;
        let mut biggest_step = 0.0f64;
        for i in 0..n {
            let step_dense = dense_pts[i].distance(&start[i]);
            biggest_step = biggest_step.max(step_dense);
            worst = worst.max(dense_pts[i].distance(&sparse_pts[i]));
        }
        assert!(biggest_step > 0.0, "layout must move");
        assert!(
            worst < 0.35 * biggest_step.max(0.1),
            "single-step displacement divergence {worst} vs step {biggest_step}"
        );
    }
}
