//! Modified k-means — step 2 of the global phase.
//!
//! Clusters the force-layout points into `N_DC` clusters "with respect to
//! each cluster capacity cap, VMs load, and the distance between two VMs
//! obtained from the repulsion and attraction phase in the 2D plane. In
//! the modified k-means, the initial centroid of each cluster is
//! calculated based on the last position of points available in that
//! cluster in the previous time slot." Network latency is *not* considered
//! here (that is the migration-revision step's job).
//!
//! The modification over textbook k-means: the assignment phase processes
//! VMs by decreasing energy load and assigns each to the *nearest cluster
//! with remaining cap*; when every cluster is full the VM goes to the
//! cluster with the most remaining (least overdrawn) capacity, so the
//! result is always a complete assignment.

use crate::force::Point;
use geoplace_types::units::Joules;
use geoplace_types::Exec;
use serde::{Deserialize, Serialize};

/// Result of one clustering pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    /// Cluster index per point (aligned with the input points).
    pub assignment: Vec<usize>,
    /// Final centroid per cluster.
    pub centroids: Vec<Point>,
    /// Total load assigned per cluster.
    pub cluster_load: Vec<Joules>,
    /// Iterations executed.
    pub iterations: usize,
}

/// Hard iteration cap of the clustering.
const MAX_ITERATIONS: usize = 25;

/// Runs the capacity-capped k-means.
///
/// * `points` — force-layout positions;
/// * `loads` — per-VM slot energy (J), the "VMs load" of the paper;
/// * `caps` — per-cluster capacity caps (J);
/// * `warm_centroids` — previous-slot centroids (paper's warm start), or
///   `None` at the first slot;
/// * `exec` — the execution context the per-iteration point↔centroid
///   distance matrix fans out over. The capacity-greedy assignment pass
///   itself is inherently sequential (each choice consumes cluster
///   capacity) and stays on the calling thread reading the precomputed
///   distances, so every thread count produces the identical clustering.
///
/// # Panics
///
/// Panics if `points` and `loads` lengths differ or `caps` is empty.
///
/// # Examples
///
/// ```
/// use geoplace_core::force::Point;
/// use geoplace_core::kmeans::kmeans;
/// use geoplace_types::units::Joules;
/// use geoplace_types::Exec;
///
/// let points = vec![
///     Point { x: 0.0, y: 0.0 },
///     Point { x: 0.1, y: 0.0 },
///     Point { x: 9.0, y: 9.0 },
/// ];
/// let loads = vec![Joules(1.0); 3];
/// let caps = vec![Joules(10.0), Joules(10.0)];
/// let result = kmeans(&points, &loads, &caps, None, Exec::serial());
/// assert_eq!(result.assignment.len(), 3);
/// // The two nearby points share a cluster; the far one sits alone.
/// assert_eq!(result.assignment[0], result.assignment[1]);
/// assert_ne!(result.assignment[0], result.assignment[2]);
/// ```
pub fn kmeans(
    points: &[Point],
    loads: &[Joules],
    caps: &[Joules],
    warm_centroids: Option<&[Point]>,
    exec: Exec,
) -> Clustering {
    assert_eq!(points.len(), loads.len(), "points/loads length mismatch");
    assert!(!caps.is_empty(), "need at least one cluster");
    let k = caps.len();
    let n = points.len();

    let mut centroids = match warm_centroids {
        Some(warm) if warm.len() == k => warm.to_vec(),
        _ => initial_centroids(points, k),
    };

    // Heaviest VMs first, so the big loads grab capacity near their
    // natural cluster before the long tail fills the gaps.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        loads[b]
            .0
            .partial_cmp(&loads[a].0)
            .expect("finite loads")
            .then(a.cmp(&b))
    });

    let mut assignment = vec![0usize; n];
    let mut cluster_load = vec![Joules::ZERO; k];
    let mut iterations = 0;
    let mut distances: Vec<f64> = Vec::with_capacity(n * k);
    for iteration in 0..MAX_ITERATIONS {
        iterations = iteration + 1;
        // All point↔centroid distances of this iteration, in parallel —
        // each entry is a pure function of one point and the frozen
        // centroids, so the matrix is thread-count invariant.
        {
            let centroids_ref = &centroids;
            let rows = exec.map_chunks(n, |range| {
                let mut chunk = Vec::with_capacity(range.len() * k);
                for i in range {
                    for c in centroids_ref.iter() {
                        chunk.push(points[i].distance(c));
                    }
                }
                chunk
            });
            distances.clear();
            rows.into_iter().for_each(|chunk| distances.extend(chunk));
        }
        let mut next = vec![usize::MAX; n];
        let mut load = vec![Joules::ZERO; k];
        for &i in &order {
            let mut chosen = None;
            let mut best = f64::MAX;
            for c in 0..k {
                let fits = load[c].0 + loads[i].0 <= caps[c].0;
                if !fits {
                    continue;
                }
                let d = distances[i * k + c];
                if d < best {
                    best = d;
                    chosen = Some(c);
                }
            }
            // All clusters full: least-overdrawn wins.
            let c = chosen.unwrap_or_else(|| {
                (0..k)
                    .min_by(|&a, &b| {
                        let slack_a = caps[a].0 - load[a].0;
                        let slack_b = caps[b].0 - load[b].0;
                        slack_b.partial_cmp(&slack_a).expect("finite slack")
                    })
                    .expect("k >= 1")
            });
            next[i] = c;
            load[c] += loads[i];
        }

        let converged = next == assignment && iteration > 0;
        assignment = next;
        cluster_load = load;
        if converged {
            break;
        }

        // Centroid update (empty clusters keep their position).
        let mut sums = vec![(0.0f64, 0.0f64, 0usize); k];
        for (i, &c) in assignment.iter().enumerate() {
            sums[c].0 += points[i].x;
            sums[c].1 += points[i].y;
            sums[c].2 += 1;
        }
        for (c, &(sx, sy, count)) in sums.iter().enumerate() {
            if count > 0 {
                centroids[c] = Point {
                    x: sx / count as f64,
                    y: sy / count as f64,
                };
            }
        }
    }

    Clustering {
        assignment,
        centroids,
        cluster_load,
        iterations,
    }
}

/// Deterministic spread initialization (farthest-point heuristic seeded by
/// the centroid of all points).
fn initial_centroids(points: &[Point], k: usize) -> Vec<Point> {
    if points.is_empty() {
        return (0..k)
            .map(|c| Point {
                x: c as f64,
                y: c as f64,
            })
            .collect();
    }
    let mut centroids = Vec::with_capacity(k);
    // Start from the global centroid's nearest point.
    let cx = points.iter().map(|p| p.x).sum::<f64>() / points.len() as f64;
    let cy = points.iter().map(|p| p.y).sum::<f64>() / points.len() as f64;
    let center = Point { x: cx, y: cy };
    let first = points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.distance(&center)
                .partial_cmp(&b.distance(&center))
                .expect("finite")
        })
        .map(|(i, _)| i)
        .expect("non-empty");
    centroids.push(points[first]);
    while centroids.len() < k {
        // Farthest point from the chosen set.
        let next = points
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                let da = centroids
                    .iter()
                    .map(|c| a.distance(c))
                    .fold(f64::MAX, f64::min);
                let db = centroids
                    .iter()
                    .map(|c| b.distance(c))
                    .fold(f64::MAX, f64::min);
                da.partial_cmp(&db).expect("finite")
            })
            .map(|(i, _)| i)
            .expect("non-empty");
        centroids.push(points[next]);
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<Point> {
        // Two well-separated blobs of 4 points each.
        let mut p = Vec::new();
        for i in 0..4 {
            p.push(Point {
                x: i as f64 * 0.1,
                y: 0.0,
            });
        }
        for i in 0..4 {
            p.push(Point {
                x: 10.0 + i as f64 * 0.1,
                y: 10.0,
            });
        }
        p
    }

    #[test]
    fn blobs_separate_cleanly() {
        let points = grid_points();
        let loads = vec![Joules(1.0); 8];
        let caps = vec![Joules(100.0); 2];
        let r = kmeans(&points, &loads, &caps, None, Exec::serial());
        let first = r.assignment[0];
        assert!(r.assignment[..4].iter().all(|&c| c == first));
        let second = r.assignment[4];
        assert_ne!(first, second);
        assert!(r.assignment[4..].iter().all(|&c| c == second));
    }

    #[test]
    fn caps_force_splitting_a_blob() {
        // One tight blob of 6 unit loads, two clusters of cap 3: the blob
        // must split despite proximity.
        let points: Vec<Point> = (0..6)
            .map(|i| Point {
                x: i as f64 * 0.01,
                y: 0.0,
            })
            .collect();
        let loads = vec![Joules(1.0); 6];
        let caps = vec![Joules(3.0), Joules(3.0)];
        let r = kmeans(&points, &loads, &caps, None, Exec::serial());
        let count0 = r.assignment.iter().filter(|&&c| c == 0).count();
        assert_eq!(count0, 3, "cap must split the blob 3/3");
        for c in 0..2 {
            assert!(r.cluster_load[c].0 <= 3.0 + 1e-9);
        }
    }

    #[test]
    fn overflow_goes_to_least_overdrawn() {
        // Total load exceeds every cap: assignment must still be complete.
        let points: Vec<Point> = (0..5)
            .map(|i| Point {
                x: i as f64,
                y: 0.0,
            })
            .collect();
        let loads = vec![Joules(10.0); 5];
        let caps = vec![Joules(5.0), Joules(5.0)];
        let r = kmeans(&points, &loads, &caps, None, Exec::serial());
        assert!(r.assignment.iter().all(|&c| c < 2));
        // Both clusters carry overflow but neither hogs everything.
        assert!(r.cluster_load.iter().all(|l| l.0 > 0.0));
    }

    #[test]
    fn warm_start_is_respected() {
        let points = grid_points();
        let loads = vec![Joules(1.0); 8];
        let caps = vec![Joules(100.0); 2];
        // Warm centroids sitting exactly on the blobs: cluster 0 = right
        // blob, cluster 1 = left blob (note the inversion).
        let warm = vec![Point { x: 10.0, y: 10.0 }, Point { x: 0.0, y: 0.0 }];
        let r = kmeans(&points, &loads, &caps, Some(&warm), Exec::serial());
        assert_eq!(r.assignment[0], 1, "left blob must map to warm cluster 1");
        assert_eq!(r.assignment[4], 0, "right blob must map to warm cluster 0");
    }

    #[test]
    fn empty_input_yields_empty_assignment() {
        let r = kmeans(&[], &[], &[Joules(1.0)], None, Exec::serial());
        assert!(r.assignment.is_empty());
        assert_eq!(r.centroids.len(), 1);
    }

    #[test]
    fn heavy_loads_claim_capacity_first() {
        // A 5 J VM and five 1 J VMs, all at the same spot; caps 5 and 5.
        // The heavy VM must not be displaced into overflow by small ones.
        let points = vec![Point { x: 0.0, y: 0.0 }; 6];
        let mut loads = vec![Joules(1.0); 6];
        loads[3] = Joules(5.0);
        let caps = vec![Joules(5.0), Joules(5.0)];
        let r = kmeans(&points, &loads, &caps, None, Exec::serial());
        let heavy_cluster = r.assignment[3];
        let heavy_cluster_load = r.cluster_load[heavy_cluster];
        assert!(
            (heavy_cluster_load.0 - 5.0).abs() < 1e-9,
            "heavy VM should fill one cluster exactly; got {heavy_cluster_load}"
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let points = grid_points();
        let loads = vec![Joules(2.0); 8];
        let caps = vec![Joules(100.0), Joules(100.0)];
        let a = kmeans(&points, &loads, &caps, None, Exec::serial());
        let b = kmeans(&points, &loads, &caps, None, Exec::serial());
        assert_eq!(a, b);
    }

    #[test]
    fn kmeans_is_thread_count_invariant() {
        use geoplace_types::Parallelism;
        let points: Vec<Point> = (0..300)
            .map(|i| Point {
                x: f64::from(i % 23) + f64::from(i) * 0.01,
                y: f64::from(i % 17) - f64::from(i) * 0.003,
            })
            .collect();
        let loads: Vec<Joules> = (0..300).map(|i| Joules(1.0 + f64::from(i % 7))).collect();
        let caps = vec![Joules(400.0), Joules(400.0), Joules(400.0)];
        let reference = kmeans(&points, &loads, &caps, None, Exec::serial());
        for threads in [1usize, 2, 8] {
            let clustered = kmeans(
                &points,
                &loads,
                &caps,
                None,
                Exec::new(Parallelism::Threads(threads)),
            );
            assert_eq!(clustered, reference, "t={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        let _ = kmeans(
            &[Point::default()],
            &[],
            &[Joules(1.0)],
            None,
            Exec::serial(),
        );
    }
}
