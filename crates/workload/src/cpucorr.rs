//! CPU-load correlation between VM pairs.
//!
//! The paper's repulsion force (Eq. 5) uses a CPU-load correlation
//! `Corr_cpu ∈ (0,1]` that is "computed as a worst-case peak CPU utilization
//! when the peaks of two VMs coincide during the last time slot". We
//! implement that as the *peak-coincidence ratio*
//!
//! ```text
//! Corr_cpu(i,j) = peak(u_i + u_j) / (peak(u_i) + peak(u_j))
//! ```
//!
//! which is 1.0 exactly when the two peaks coincide (worst case for
//! consolidation) and approaches `max(peak_i, peak_j)/(peak_i+peak_j)` —
//! as low as 0.5 for equal peaks — when the loads are perfectly
//! anti-coincident. A classic Pearson correlation is also provided for
//! comparison and testing.
//!
//! # Dense and sparse representations
//!
//! [`CpuCorrelationMatrix::compute`] materializes the exact `n × n`
//! matrix — O(n²·w) time and O(n²) memory, fine up to a few hundred VMs
//! and the ground truth for tests. Above the
//! [`SparsityConfig::dense_crossover`] the same type switches to a sparse
//! *top-k neighbor graph*: per VM only the `k` most-correlated partners
//! are stored exactly (CSR-style adjacency), and every other pair is
//! approximated by a single *baseline* correlation estimated from a
//! deterministic pair sample. Candidates for the top-k search come from a
//! peak-time screen: VMs are bucketed by the tick of their window peak,
//! and only VMs in nearby buckets — the ones whose peaks can coincide —
//! are evaluated exactly. Both representations sit behind the same
//! accessor API ([`CpuCorrelationMatrix::at`] et al.).

use crate::sparsity::SparsityConfig;
use crate::window::{peak_of, UtilizationWindows};
use geoplace_types::hash::splitmix64;
use geoplace_types::{Exec, VmId};

/// Symmetric pairwise CPU-load correlation structure in `(0, 1]`.
///
/// Dense (exact matrix) or sparse (top-k neighbor graph + far-field
/// baseline) behind one API; see the module docs.
///
/// # Examples
///
/// ```
/// use geoplace_workload::cpucorr::CpuCorrelationMatrix;
/// use geoplace_workload::window::UtilizationWindows;
/// use geoplace_types::VmId;
///
/// let windows = UtilizationWindows::from_rows(vec![
///     (VmId(0), vec![0.8, 0.1, 0.1, 0.8]),
///     (VmId(1), vec![0.8, 0.1, 0.1, 0.8]), // same shape: peaks coincide
///     (VmId(2), vec![0.1, 0.8, 0.8, 0.1]), // anti-phase
/// ]);
/// let corr = CpuCorrelationMatrix::compute(&windows);
/// assert!(corr.get(VmId(0), VmId(1)).unwrap() > 0.99);
/// assert!(corr.get(VmId(0), VmId(2)).unwrap() < 0.7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CpuCorrelationMatrix {
    ids: Vec<VmId>,
    n: usize,
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// Row-major `n × n` symmetric matrix; diagonal is 1.0.
    Dense { values: Vec<f32> },
    /// CSR top-k adjacency: row `i`'s neighbors live in
    /// `neighbors[offsets[i]..offsets[i+1]]`, sorted by neighbor VM id.
    /// Pairs outside every retained list read as `baseline`.
    Sparse {
        offsets: Vec<u32>,
        neighbors: Vec<(u32, f32)>,
        baseline: f32,
        config: SparsityConfig,
    },
}

/// Which pairwise statistic the repulsion force uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum CorrelationMetric {
    /// The paper's worst-case peak-coincidence ratio (default).
    #[default]
    PeakCoincidence,
    /// Pearson correlation mapped from `[-1, 1]` into `(0, 1]` — offered
    /// for comparison (the `repro metric_ablation` experiment); smoother
    /// but blind to *when* peaks align in absolute terms.
    Pearson,
}

impl CpuCorrelationMatrix {
    /// Computes the exact dense peak-coincidence matrix for every VM pair.
    pub fn compute(windows: &UtilizationWindows) -> Self {
        Self::compute_exec(windows, CorrelationMetric::PeakCoincidence, Exec::serial())
    }

    /// Computes the exact dense pairwise matrix under the chosen metric;
    /// both yield values in `(0, 1]` with 1.0 meaning "worst co-location
    /// candidate". Rows are evaluated across the worker threads of
    /// `exec`. Each matrix entry is an independent pure function of two
    /// windows, so every thread count produces the identical matrix.
    pub fn compute_exec(
        windows: &UtilizationWindows,
        metric: CorrelationMetric,
        exec: Exec,
    ) -> Self {
        let n = windows.len();
        let mut values = vec![0.0f32; n * n];
        let peaks: Vec<f32> = (0..n).map(|i| peak_of(windows.row_at(i))).collect();
        // Upper-triangular row tails per chunk; the symmetric scatter is
        // a cheap serial pass (no window scans).
        let peaks_ref = &peaks;
        let tails: Vec<Vec<f32>> = exec
            .map_chunks(n, |range| {
                range
                    .map(|i| {
                        ((i + 1)..n)
                            .map(|j| pair_metric(windows, peaks_ref, i, j, metric))
                            .collect::<Vec<f32>>()
                    })
                    .collect::<Vec<Vec<f32>>>()
            })
            .into_iter()
            .flatten()
            .collect();
        for (i, tail) in tails.iter().enumerate() {
            values[i * n + i] = 1.0;
            for (offset, &c) in tail.iter().enumerate() {
                let j = i + 1 + offset;
                values[i * n + j] = c;
                values[j * n + i] = c;
            }
        }
        CpuCorrelationMatrix {
            ids: windows.ids().to_vec(),
            n,
            repr: Repr::Dense { values },
        }
    }

    /// The canonical *bootstrap* matrix over `ids`: every pair reads the
    /// degenerate full correlation 1.0 — the value a zero observation
    /// window produces under every metric's no-load convention — stored
    /// as a retained-edge-free sparse structure with baseline 1.0.
    ///
    /// The point of a dedicated constructor (rather than computing over
    /// the zero windows) is **representation independence**: an all-zero
    /// window carries no pairwise information, yet a dense compute and a
    /// sparse compute of it hand the force layout structurally different
    /// inputs (exact all-pairs vs top-k + far field), so dense- and
    /// sparse-configured runs would already diverge at the slot-0
    /// decision. This matrix is identical whatever the scenario's
    /// sparsity selection, keeping the bootstrap decision — and with it
    /// the paired dense↔sparse comparisons — coupled.
    pub fn degenerate(ids: &[VmId], sparsity: &SparsityConfig) -> Self {
        let n = ids.len();
        CpuCorrelationMatrix {
            ids: ids.to_vec(),
            n,
            repr: Repr::Sparse {
                offsets: vec![0; n + 1],
                neighbors: Vec::new(),
                baseline: 1.0,
                config: *sparsity,
            },
        }
    }

    /// True for the canonical bootstrap matrix of
    /// [`CpuCorrelationMatrix::degenerate`]: retained-edge-free sparse
    /// with the no-load baseline 1.0. Consumers that would re-derive a
    /// matrix from the observation windows (the Pearson ablation) check
    /// this instead — no metric is computable from a zero observation,
    /// and recomputing over it would reintroduce the representation
    /// dependence the canonical matrix removes.
    pub fn is_degenerate(&self) -> bool {
        matches!(
            &self.repr,
            Repr::Sparse {
                neighbors,
                baseline,
                ..
            } if neighbors.is_empty() && *baseline == 1.0
        )
    }

    /// Computes the representation [`SparsityConfig`] selects for this
    /// fleet size under `metric`: exact dense below the crossover, sparse
    /// top-k above. `exec` leaves the representation choice unaffected;
    /// only the row evaluation fans out.
    pub fn compute_auto_exec(
        windows: &UtilizationWindows,
        metric: CorrelationMetric,
        sparsity: &SparsityConfig,
        exec: Exec,
    ) -> Self {
        if sparsity.use_sparse(windows.len()) {
            Self::compute_sparse_exec(windows, metric, sparsity, exec)
        } else {
            Self::compute_exec(windows, metric, exec)
        }
    }

    /// Computes the sparse top-k neighbor graph (peak-bucket candidate
    /// screen, exact weights on retained edges, sampled far-field
    /// baseline). Permutation invariant: the same fleet presented in a
    /// different row order yields the same per-VM neighbor sets and
    /// weights.
    pub fn compute_sparse(windows: &UtilizationWindows, sparsity: &SparsityConfig) -> Self {
        Self::compute_sparse_exec(
            windows,
            CorrelationMetric::PeakCoincidence,
            sparsity,
            Exec::serial(),
        )
    }

    /// [`CpuCorrelationMatrix::compute_sparse`] under an explicit metric,
    /// on an execution context. The per-row peak scan and the top-k candidate evaluation
    /// — the dominant slot-step cost at stress scale — fan out across
    /// the worker threads; each row's retained list is an independent
    /// pure function of the windows, and rows are concatenated back in
    /// arena order, so every thread count builds the identical CSR and
    /// baseline.
    pub fn compute_sparse_exec(
        windows: &UtilizationWindows,
        metric: CorrelationMetric,
        sparsity: &SparsityConfig,
        exec: Exec,
    ) -> Self {
        let n = windows.len();
        let ids = windows.ids().to_vec();
        let width = windows.width().max(1);

        // Peak-time screen: bucket rows by the tick of their first window
        // peak; coincident peaks land in the same or adjacent buckets.
        // Peak value and peak tick come from one parallel row scan.
        let n_buckets = sparsity.peak_buckets.clamp(1, width);
        let mut peaks = Vec::with_capacity(n);
        let mut row_bucket = Vec::with_capacity(n);
        for (chunk_peaks, chunk_buckets) in exec.map_chunks(n, |range| {
            let mut chunk_peaks = Vec::with_capacity(range.len());
            let mut chunk_buckets = Vec::with_capacity(range.len());
            for i in range {
                let row = windows.row_at(i);
                chunk_peaks.push(peak_of(row));
                let argmax = row
                    .iter()
                    .enumerate()
                    .fold(
                        (0usize, f32::MIN),
                        |(bt, bv), (t, &v)| {
                            if v > bv {
                                (t, v)
                            } else {
                                (bt, bv)
                            }
                        },
                    )
                    .0;
                chunk_buckets.push(argmax * n_buckets / width);
            }
            (chunk_peaks, chunk_buckets)
        }) {
            peaks.extend(chunk_peaks);
            row_bucket.extend(chunk_buckets);
        }
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_buckets];
        for (i, &slot) in row_bucket.iter().enumerate() {
            buckets[slot].push(i as u32);
        }
        // Bucket membership in VM-id order so the candidate sequence —
        // and with it the retained edge set — does not depend on how the
        // caller enumerated the fleet.
        for bucket in &mut buckets {
            bucket.sort_unstable_by_key(|&i| ids[i as usize]);
        }

        let top_k = sparsity.top_k.max(1);
        let budget = sparsity.candidates_per_vm.max(top_k);
        let peaks_ref = &peaks;
        let ids_ref = &ids;
        let buckets_ref = &buckets;
        let row_bucket_ref = &row_bucket;
        let row_lists: Vec<Vec<(u32, f32)>> = exec
            .map_chunks(n, |range| {
                let mut rows = Vec::with_capacity(range.len());
                let mut candidates: Vec<(u32, f32)> = Vec::with_capacity(budget + n_buckets);
                for i in range {
                    let home = row_bucket_ref[i];
                    candidates.clear();
                    // Ring walk outward from the row's own bucket.
                    'ring: for d in 0..=(n_buckets / 2) {
                        let lo = (home + n_buckets - d) % n_buckets;
                        let hi = (home + d) % n_buckets;
                        let sides: [usize; 2] = [lo, hi];
                        let take = if lo == hi { 1 } else { 2 };
                        for &b in sides.iter().take(take) {
                            for &j in &buckets_ref[b] {
                                if j as usize == i {
                                    continue;
                                }
                                let w = pair_metric(windows, peaks_ref, i, j as usize, metric);
                                candidates.push((j, w));
                                // The cap must bite *inside* a bucket: a
                                // popular diurnal phase can hold thousands
                                // of VMs, and evaluating a whole bucket
                                // would reintroduce the quadratic wall this
                                // screen exists to remove.
                                if candidates.len() >= budget {
                                    break 'ring;
                                }
                            }
                        }
                    }
                    // Strongest first; equal weights break on VM id so the
                    // graph is independent of enumeration order.
                    candidates.sort_unstable_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .expect("correlations are finite")
                            .then_with(|| ids_ref[a.0 as usize].cmp(&ids_ref[b.0 as usize]))
                    });
                    candidates.truncate(top_k);
                    candidates.sort_unstable_by_key(|&(j, _)| ids_ref[j as usize]);
                    rows.push(candidates.clone());
                }
                rows
            })
            .into_iter()
            .flatten()
            .collect();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors: Vec<(u32, f32)> = Vec::with_capacity(n * top_k.min(n));
        offsets.push(0u32);
        for row in &row_lists {
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len() as u32);
        }

        let all_mean = sample_baseline(windows, &peaks, &ids, metric, sparsity.baseline_samples);
        // The sampled mean covers *all* pairs, but the far field only
        // applies to pairs outside the retained lists — and those lists
        // hold exactly the strongest correlations, so the raw mean
        // over-repels the far field. Subtract the (exactly known)
        // retained mass: mean_far = (mean_all·P − Σ_ret) / (P − P_ret)
        // over directed pairs. Rows are summed in VM-id order (each row
        // is already id-sorted internally): f32 addition is not
        // associative, and arena-row order would leak the caller's
        // enumeration into the baseline.
        let directed_pairs = n * n.saturating_sub(1);
        let retained_edges = neighbors.len();
        let mut row_order: Vec<u32> = (0..n as u32).collect();
        row_order.sort_unstable_by_key(|&i| ids[i as usize]);
        let retained: f32 = row_order
            .iter()
            .map(|&i| {
                neighbors[offsets[i as usize] as usize..offsets[i as usize + 1] as usize]
                    .iter()
                    .map(|&(_, w)| w)
                    .sum::<f32>()
            })
            .sum();
        // The far-field split is only meaningful when some pairs actually
        // fall outside the retained lists — compared in *integers*: the
        // f32 images of the two counts can collide at large n, and a
        // zero/NaN denominator must never reach the division. Tiny fleets
        // (n ≤ top_k, every edge retained) have no far field at all; the
        // sampled mean — finite and clamped by construction — stands in
        // for the degenerate baseline, and a final finite check catches
        // any residual rounding pathology of the debias arithmetic.
        let baseline = if directed_pairs > retained_edges {
            let debiased = (all_mean * directed_pairs as f32 - retained)
                / (directed_pairs as f32 - retained_edges as f32);
            if debiased.is_finite() {
                debiased.clamp(f32::EPSILON, 1.0)
            } else {
                all_mean
            }
        } else {
            all_mean
        };
        debug_assert!(
            baseline.is_finite() && baseline > 0.0 && baseline <= 1.0,
            "sparse baseline left (0, 1]: {baseline}"
        );
        CpuCorrelationMatrix {
            ids,
            n,
            repr: Repr::Sparse {
                offsets,
                neighbors,
                baseline,
                config: *sparsity,
            },
        }
    }

    /// Number of VMs covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix covers no VMs.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The VM ids in matrix order.
    pub fn ids(&self) -> &[VmId] {
        &self.ids
    }

    /// True for the sparse top-k representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse { .. })
    }

    /// The sparsity configuration the sparse representation was built
    /// with; `None` for dense.
    pub fn sparsity(&self) -> Option<&SparsityConfig> {
        match &self.repr {
            Repr::Dense { .. } => None,
            Repr::Sparse { config, .. } => Some(config),
        }
    }

    /// Retained `(neighbor_index, weight)` list of one row, sorted by
    /// neighbor VM id. Empty for the dense representation (every pair is
    /// exact there — use [`CpuCorrelationMatrix::at`]).
    pub fn neighbors(&self, i: usize) -> &[(u32, f32)] {
        match &self.repr {
            Repr::Dense { .. } => &[],
            Repr::Sparse {
                offsets, neighbors, ..
            } => &neighbors[offsets[i] as usize..offsets[i + 1] as usize],
        }
    }

    /// Far-field correlation estimate for pairs outside every retained
    /// top-k list (0.0 for the dense representation, which has no far
    /// field).
    pub fn baseline(&self) -> f32 {
        match &self.repr {
            Repr::Dense { .. } => 0.0,
            Repr::Sparse { baseline, .. } => *baseline,
        }
    }

    /// Total number of retained directed edges (diagnostic; 0 for dense).
    pub fn edge_count(&self) -> usize {
        match &self.repr {
            Repr::Dense { .. } => 0,
            Repr::Sparse { neighbors, .. } => neighbors.len(),
        }
    }

    /// Correlation between two VMs by id.
    pub fn get(&self, a: VmId, b: VmId) -> Option<f32> {
        let i = self.ids.iter().position(|&v| v == a)?;
        let j = self.ids.iter().position(|&v| v == b)?;
        Some(self.at(i, j))
    }

    /// Correlation between two VMs by dense position. Exact under the
    /// dense representation; under the sparse one, pairs outside both
    /// rows' retained lists read as the far-field baseline.
    ///
    /// # Panics
    ///
    /// Panics if either position is out of range.
    pub fn at(&self, i: usize, j: usize) -> f32 {
        match &self.repr {
            Repr::Dense { values } => values[i * self.n + j],
            Repr::Sparse { baseline, .. } => {
                if i == j {
                    assert!(i < self.n, "position {i} out of range");
                    return 1.0;
                }
                // Top-k lists are per-row, so the edge may survive in
                // either endpoint's list; checking both keeps the view
                // symmetric.
                self.lookup(i, j)
                    .or_else(|| self.lookup(j, i))
                    .unwrap_or(*baseline)
            }
        }
    }

    fn lookup(&self, i: usize, j: usize) -> Option<f32> {
        self.neighbors(i)
            .iter()
            .find(|&&(idx, _)| idx as usize == j)
            .map(|&(_, w)| w)
    }
}

/// One pairwise statistic under the chosen metric.
fn pair_metric(
    windows: &UtilizationWindows,
    peaks: &[f32],
    i: usize,
    j: usize,
    metric: CorrelationMetric,
) -> f32 {
    match metric {
        CorrelationMetric::PeakCoincidence => {
            peak_coincidence(windows.row_at(i), windows.row_at(j), peaks[i], peaks[j])
        }
        CorrelationMetric::Pearson => {
            // Map [-1, 1] → (0, 1]: anti-correlated pairs repel least,
            // perfectly correlated ones most.
            let r = pearson(windows.row_at(i), windows.row_at(j));
            ((r + 1.0) / 2.0).clamp(f32::EPSILON, 1.0)
        }
    }
}

/// Mean correlation of a deterministic pseudo-random pair sample — the
/// sparse representation's far-field value. Pairs are drawn in VM-id
/// order so the estimate is permutation invariant.
fn sample_baseline(
    windows: &UtilizationWindows,
    peaks: &[f32],
    ids: &[VmId],
    metric: CorrelationMetric,
    samples: usize,
) -> f32 {
    let n = ids.len();
    if n < 2 {
        return 1.0;
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| ids[i as usize]);
    let mut sum = 0.0f64;
    let mut count = 0u32;
    for t in 0..samples.max(1) as u64 {
        let h = splitmix64(t);
        let a = order[(h % n as u64) as usize] as usize;
        let b = order[((h >> 32) % n as u64) as usize] as usize;
        if a == b {
            continue;
        }
        sum += f64::from(pair_metric(windows, peaks, a, b, metric));
        count += 1;
    }
    if count == 0 {
        return 1.0;
    }
    ((sum / f64::from(count)) as f32).clamp(f32::EPSILON, 1.0)
}

/// Worst-case peak-coincidence ratio of two utilization windows, in
/// `(0, 1]`. Returns 1.0 when either window has no load at all (degenerate
/// pair — treat as fully correlated to keep the range).
pub fn peak_coincidence(a: &[f32], b: &[f32], peak_a: f32, peak_b: f32) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let denominator = peak_a + peak_b;
    if denominator <= f32::EPSILON {
        return 1.0;
    }
    // Eight independent max lanes: a straight `fold(max)` carries a
    // serial dependency the compiler cannot vectorize, and this runs for
    // every candidate pair of every slot. The result is exact — max is
    // order-independent.
    const LANES: usize = 8;
    let mut lanes = [0.0f32; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for l in 0..LANES {
            lanes[l] = lanes[l].max(ca[l] + cb[l]);
        }
    }
    let mut combined_peak = lanes.iter().copied().fold(0.0f32, f32::max);
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        combined_peak = combined_peak.max(x + y);
    }
    (combined_peak / denominator).clamp(f32::EPSILON, 1.0)
}

/// Pearson correlation coefficient of two equally long sample windows,
/// in `[-1, 1]`; returns 0.0 when either window is constant.
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let mean_a: f64 = a.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
    let mean_b: f64 = b.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
    let mut cov = 0.0f64;
    let mut var_a = 0.0f64;
    let mut var_b = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let dx = x as f64 - mean_a;
        let dy = y as f64 - mean_b;
        cov += dx * dy;
        var_a += dx * dx;
        var_b += dy * dy;
    }
    if var_a <= f64::EPSILON || var_b <= f64::EPSILON {
        return 0.0;
    }
    (cov / (var_a.sqrt() * var_b.sqrt())) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coincident_peaks_score_one() {
        let a = [0.9f32, 0.1, 0.1];
        let b = [0.8f32, 0.2, 0.1];
        let c = peak_coincidence(&a, &b, 0.9, 0.8);
        assert!((c - 1.0).abs() < 1e-6);
    }

    #[test]
    fn anticoincident_peaks_score_low() {
        let a = [0.9f32, 0.05, 0.05];
        let b = [0.05f32, 0.05, 0.9];
        let c = peak_coincidence(&a, &b, 0.9, 0.9);
        // Combined peak is 0.95 of a possible 1.8.
        assert!((c - 0.95 / 1.8).abs() < 1e-6);
    }

    #[test]
    fn zero_load_pair_is_degenerate_one() {
        let a = [0.0f32; 4];
        let b = [0.0f32; 4];
        assert_eq!(peak_coincidence(&a, &b, 0.0, 0.0), 1.0);
    }

    #[test]
    fn correlation_stays_in_unit_interval() {
        let windows = UtilizationWindows::from_rows(vec![
            (VmId(0), vec![0.2, 0.9, 0.4, 0.1]),
            (VmId(1), vec![0.7, 0.3, 0.9, 0.2]),
            (VmId(2), vec![0.5, 0.5, 0.5, 0.5]),
        ]);
        let m = CpuCorrelationMatrix::compute(&windows);
        for i in 0..3 {
            for j in 0..3 {
                let v = m.at(i, j);
                assert!((0.0..=1.0).contains(&v), "corr {v} out of range");
            }
        }
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let windows = UtilizationWindows::from_rows(vec![
            (VmId(0), vec![0.2, 0.9]),
            (VmId(1), vec![0.7, 0.3]),
            (VmId(2), vec![0.1, 0.8]),
        ]);
        let m = CpuCorrelationMatrix::compute(&windows);
        for i in 0..3 {
            assert_eq!(m.at(i, i), 1.0);
            for j in 0..3 {
                assert_eq!(m.at(i, j), m.at(j, i));
            }
        }
    }

    #[test]
    fn get_by_id_matches_at_by_position() {
        let windows = UtilizationWindows::from_rows(vec![
            (VmId(10), vec![0.2, 0.9]),
            (VmId(20), vec![0.7, 0.3]),
        ]);
        let m = CpuCorrelationMatrix::compute(&windows);
        assert_eq!(m.get(VmId(10), VmId(20)).unwrap(), m.at(0, 1));
        assert!(m.get(VmId(10), VmId(99)).is_none());
    }

    #[test]
    fn pearson_identical_and_inverted() {
        let a = [0.1f32, 0.5, 0.9, 0.5];
        let inverted: Vec<f32> = a.iter().map(|x| 1.0 - x).collect();
        assert!((pearson(&a, &a) - 1.0).abs() < 1e-6);
        assert!((pearson(&a, &inverted) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_constant_window_is_zero() {
        let a = [0.5f32; 8];
        let b = [0.1f32, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        assert_eq!(pearson(&a, &b), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn pearson_metric_orders_pairs_like_the_default() {
        // Same-phase pair must repel more than anti-phase pair under both
        // metrics, or the metric ablation compares nothing.
        let windows = UtilizationWindows::from_rows(vec![
            (VmId(0), vec![0.9, 0.7, 0.2, 0.1]),
            (VmId(1), vec![0.8, 0.6, 0.1, 0.2]), // same phase as vm0
            (VmId(2), vec![0.1, 0.2, 0.8, 0.9]), // anti-phase
        ]);
        for metric in [
            CorrelationMetric::PeakCoincidence,
            CorrelationMetric::Pearson,
        ] {
            let m = CpuCorrelationMatrix::compute_exec(&windows, metric, Exec::serial());
            assert!(
                m.at(0, 1) > m.at(0, 2),
                "{metric:?}: same-phase {} must exceed anti-phase {}",
                m.at(0, 1),
                m.at(0, 2)
            );
        }
    }

    #[test]
    fn degenerate_matrix_reads_one_everywhere_in_any_configuration() {
        let ids: Vec<VmId> = (0..9u32).map(VmId).collect();
        for dense_crossover in [usize::MAX, 0] {
            let sparsity = SparsityConfig {
                dense_crossover,
                ..SparsityConfig::default()
            };
            let matrix = CpuCorrelationMatrix::degenerate(&ids, &sparsity);
            assert_eq!(matrix.len(), 9);
            assert!(
                matrix.is_sparse(),
                "canonical repr is retained-edge-free sparse"
            );
            assert_eq!(matrix.edge_count(), 0);
            for i in 0..9 {
                assert!(matrix.neighbors(i).is_empty());
                for j in 0..9 {
                    assert_eq!(matrix.at(i, j), 1.0, "({i},{j})");
                }
            }
            // Value-consistent with what a zero observation window
            // computes under the no-load convention.
            let zero = UtilizationWindows::from_rows(
                ids.iter().map(|&id| (id, vec![0.0f32; 8])).collect(),
            );
            let computed = CpuCorrelationMatrix::compute(&zero);
            for i in 0..9 {
                for j in 0..9 {
                    assert_eq!(computed.at(i, j), matrix.at(i, j));
                }
            }
        }
    }

    #[test]
    fn pearson_metric_stays_in_unit_interval() {
        let windows = UtilizationWindows::from_rows(vec![
            (VmId(0), vec![0.9, 0.1, 0.9, 0.1]),
            (VmId(1), vec![0.1, 0.9, 0.1, 0.9]),
            (VmId(2), vec![0.5, 0.5, 0.5, 0.5]),
        ]);
        let m = CpuCorrelationMatrix::compute_exec(
            &windows,
            CorrelationMetric::Pearson,
            Exec::serial(),
        );
        for i in 0..3 {
            for j in 0..3 {
                let v = m.at(i, j);
                assert!((0.0..=1.0).contains(&v), "({i},{j}) = {v}");
            }
        }
        // Perfectly anti-correlated pair approaches 0 repulsion.
        assert!(m.at(0, 1) < 0.1);
    }

    #[test]
    fn peak_coincidence_tracks_pearson_ordering() {
        // For smooth loads the two metrics must agree on which pair is the
        // "worse" co-location candidate.
        let phase: Vec<f32> = (0..64)
            .map(|t| 0.5 + 0.4 * ((t as f32) * 0.2).sin())
            .collect();
        let same: Vec<f32> = (0..64)
            .map(|t| 0.5 + 0.3 * ((t as f32) * 0.2).sin())
            .collect();
        let anti: Vec<f32> = (0..64)
            .map(|t| 0.5 + 0.4 * ((t as f32) * 0.2 + std::f32::consts::PI).sin())
            .collect();
        let c_same = peak_coincidence(&phase, &same, peak_of(&phase), peak_of(&same));
        let c_anti = peak_coincidence(&phase, &anti, peak_of(&phase), peak_of(&anti));
        assert!(c_same > c_anti);
        assert!(pearson(&phase, &same) > pearson(&phase, &anti));
    }

    // --- sparse representation ---

    fn phased_rows(n: u32, width: usize) -> Vec<(VmId, Vec<f32>)> {
        (0..n)
            .map(|i| {
                let phase = (i as usize * 5) % width;
                let row = (0..width)
                    .map(|t| {
                        let x = ((t + width - phase) % width) as f32;
                        0.1 + 0.8 * (-(x - width as f32 / 2.0).powi(2) / 24.0).exp()
                    })
                    .collect();
                (VmId(i), row)
            })
            .collect()
    }

    fn small_sparsity() -> SparsityConfig {
        SparsityConfig {
            top_k: 4,
            peak_buckets: 8,
            candidates_per_vm: 12,
            baseline_samples: 256,
            ..SparsityConfig::default()
        }
    }

    #[test]
    fn sparse_retains_top_k_with_exact_weights() {
        let windows = UtilizationWindows::from_rows(phased_rows(24, 48));
        let dense = CpuCorrelationMatrix::compute(&windows);
        let sparse = CpuCorrelationMatrix::compute_sparse(&windows, &small_sparsity());
        assert!(sparse.is_sparse());
        assert!(!dense.is_sparse());
        assert!(sparse.edge_count() > 0);
        for i in 0..sparse.len() {
            let row = sparse.neighbors(i);
            assert!(row.len() <= 4);
            for &(j, w) in row {
                assert!((w - dense.at(i, j as usize)).abs() < 1e-6, "edge weight");
                assert!(w > 0.0 && w <= 1.0);
            }
        }
    }

    #[test]
    fn sparse_with_full_coverage_selects_true_top_k() {
        // Candidate budget ≥ n: the screen sees every pair, so the
        // retained set must be the exact per-row top-k of the dense
        // matrix.
        let windows = UtilizationWindows::from_rows(phased_rows(16, 48));
        let dense = CpuCorrelationMatrix::compute(&windows);
        let config = SparsityConfig {
            top_k: 3,
            candidates_per_vm: 64,
            peak_buckets: 8,
            ..SparsityConfig::default()
        };
        let sparse = CpuCorrelationMatrix::compute_sparse(&windows, &config);
        for i in 0..dense.len() {
            let mut truth: Vec<(usize, f32)> = (0..dense.len())
                .filter(|&j| j != i)
                .map(|j| (j, dense.at(i, j)))
                .collect();
            truth.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap()
                    .then(windows.ids()[a.0].cmp(&windows.ids()[b.0]))
            });
            truth.truncate(3);
            let mut expected: Vec<usize> = truth.iter().map(|&(j, _)| j).collect();
            expected.sort_unstable();
            let mut got: Vec<usize> = sparse
                .neighbors(i)
                .iter()
                .map(|&(j, _)| j as usize)
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "row {i}");
        }
    }

    #[test]
    fn sparse_view_is_symmetric_with_unit_diagonal() {
        let windows = UtilizationWindows::from_rows(phased_rows(20, 48));
        let sparse = CpuCorrelationMatrix::compute_sparse(&windows, &small_sparsity());
        for i in 0..sparse.len() {
            assert_eq!(sparse.at(i, i), 1.0);
            for j in 0..sparse.len() {
                assert_eq!(sparse.at(i, j), sparse.at(j, i), "({i},{j})");
                let v = sparse.at(i, j);
                assert!(v > 0.0 && v <= 1.0);
            }
        }
        assert!(sparse.baseline() > 0.0 && sparse.baseline() <= 1.0);
    }

    #[test]
    fn sparse_build_is_permutation_invariant() {
        let rows = phased_rows(24, 48);
        let mut shuffled = rows.clone();
        shuffled.reverse();
        shuffled.swap(3, 11);
        let a = CpuCorrelationMatrix::compute_sparse(
            &UtilizationWindows::from_rows(rows),
            &small_sparsity(),
        );
        let b = CpuCorrelationMatrix::compute_sparse(
            &UtilizationWindows::from_rows(shuffled),
            &small_sparsity(),
        );
        assert_eq!(a.baseline(), b.baseline());
        for &vm in a.ids() {
            let i_a = a.ids().iter().position(|&v| v == vm).unwrap();
            let i_b = b.ids().iter().position(|&v| v == vm).unwrap();
            let row_a: Vec<(VmId, f32)> = a
                .neighbors(i_a)
                .iter()
                .map(|&(j, w)| (a.ids()[j as usize], w))
                .collect();
            let row_b: Vec<(VmId, f32)> = b
                .neighbors(i_b)
                .iter()
                .map(|&(j, w)| (b.ids()[j as usize], w))
                .collect();
            assert_eq!(row_a, row_b, "{vm}");
        }
    }

    #[test]
    fn auto_picks_repr_by_crossover() {
        let windows = UtilizationWindows::from_rows(phased_rows(12, 24));
        let mut config = SparsityConfig {
            dense_crossover: 100,
            ..small_sparsity()
        };
        let auto = |config: &SparsityConfig| {
            CpuCorrelationMatrix::compute_auto_exec(
                &windows,
                CorrelationMetric::PeakCoincidence,
                config,
                Exec::serial(),
            )
        };
        assert!(!auto(&config).is_sparse());
        config.dense_crossover = 4;
        let sparse = auto(&config);
        assert!(sparse.is_sparse());
        assert_eq!(sparse.sparsity(), Some(&config));
    }

    #[test]
    fn parallel_build_is_thread_count_invariant() {
        use geoplace_types::Parallelism;
        let windows = UtilizationWindows::from_rows(phased_rows(40, 48));
        let dense_ref = CpuCorrelationMatrix::compute(&windows);
        let sparse_ref = CpuCorrelationMatrix::compute_sparse(&windows, &small_sparsity());
        for threads in [1usize, 2, 3, 8] {
            let exec = Exec::new(Parallelism::Threads(threads));
            let dense = CpuCorrelationMatrix::compute_exec(
                &windows,
                CorrelationMetric::PeakCoincidence,
                exec,
            );
            assert_eq!(dense, dense_ref, "dense, t={threads}");
            let sparse = CpuCorrelationMatrix::compute_sparse_exec(
                &windows,
                CorrelationMetric::PeakCoincidence,
                &small_sparsity(),
                exec,
            );
            assert_eq!(sparse, sparse_ref, "sparse, t={threads}");
        }
    }

    #[test]
    fn tiny_fleet_baseline_stays_finite_in_unit_interval() {
        // n ≤ top_k: every pair is retained, the far-field debias is
        // degenerate, and the baseline must still be a sane number.
        for n in 2..6u32 {
            let windows = UtilizationWindows::from_rows(phased_rows(n, 24));
            let sparse = CpuCorrelationMatrix::compute_sparse(
                &windows,
                &SparsityConfig {
                    top_k: 32,
                    ..small_sparsity()
                },
            );
            let b = sparse.baseline();
            assert!(b.is_finite() && b > 0.0 && b <= 1.0, "n={n}: baseline {b}");
        }
    }

    #[test]
    fn sparse_handles_tiny_fleets() {
        let windows = UtilizationWindows::from_rows(vec![(VmId(0), vec![0.5, 0.5])]);
        let sparse = CpuCorrelationMatrix::compute_sparse(&windows, &small_sparsity());
        assert_eq!(sparse.len(), 1);
        assert!(sparse.neighbors(0).is_empty());
        assert_eq!(sparse.at(0, 0), 1.0);

        let empty = UtilizationWindows::from_rows(vec![]);
        let sparse = CpuCorrelationMatrix::compute_sparse(&empty, &small_sparsity());
        assert!(sparse.is_empty());
    }
}
