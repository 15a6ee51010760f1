//! Greedy cut-minimizing partitioner over the synapse affinity graph.
//!
//! Two WTA neurons interact through shared inputs (their lateral
//! inhibition is all-to-all and cheap to multicast, but correlated
//! firing — and therefore correlated traffic — follows receptive-field
//! overlap). The affinity of neurons `j` and `k` is the overlap of
//! their weight rows, `Σ_i min(w[j][i], w[k][i])`: the same quantity
//! STDP maximizes inside a learned feature cluster. The partitioner
//! packs high-affinity neurons onto the same core so the placer has
//! less traffic to route.

use nc_snn::SnnNetwork;

/// Hard per-core capacity: one core holds at most 256 neurons, the
/// TrueNorth core geometry ([`crate::truenorth`]).
pub const MAX_CLUSTER_NEURONS: usize = 256;

/// A partition of `n` neurons into clusters of bounded size, plus the
/// inter-cluster affinity ("traffic") matrix the placer consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Members of each cluster, ascending global neuron ids.
    clusters: Vec<Vec<usize>>,
    /// Cluster id of every neuron.
    cluster_of: Vec<usize>,
    /// Symmetric cluster-to-cluster affinity, row-major
    /// `[cluster][cluster]`; the diagonal is zero.
    traffic: Vec<u64>,
}

impl Partition {
    /// Number of clusters (placeable units).
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of partitioned neurons.
    pub fn neurons(&self) -> usize {
        self.cluster_of.len()
    }

    /// Members of every cluster, each ascending by global neuron id.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// The cluster holding `neuron`.
    ///
    /// # Panics
    ///
    /// Panics if `neuron` is out of range.
    pub fn cluster_of(&self, neuron: usize) -> usize {
        self.cluster_of[neuron]
    }

    /// Affinity mass between two clusters (zero on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if either cluster id is out of range.
    pub fn traffic(&self, a: usize, b: usize) -> u64 {
        assert!(a < self.clusters.len() && b < self.clusters.len());
        self.traffic[a * self.clusters.len() + b]
    }

    /// Builds the cluster lists and traffic matrix from an assignment.
    pub(super) fn from_assignment(
        cluster_of: Vec<usize>,
        num_clusters: usize,
        affinity: &[u64],
    ) -> Partition {
        let n = cluster_of.len();
        let mut clusters = vec![Vec::new(); num_clusters];
        for (j, &c) in cluster_of.iter().enumerate() {
            clusters[c].push(j); // ascending j => ascending members
        }
        let mut traffic = vec![0u64; num_clusters * num_clusters];
        if !affinity.is_empty() {
            for j in 0..n {
                for k in (j + 1)..n {
                    let (a, b) = (cluster_of[j], cluster_of[k]);
                    if a != b {
                        let w = affinity[j * n + k];
                        traffic[a * num_clusters + b] =
                            traffic[a * num_clusters + b].wrapping_add(w);
                        traffic[b * num_clusters + a] =
                            traffic[b * num_clusters + a].wrapping_add(w);
                    }
                }
            }
        }
        Partition {
            clusters,
            cluster_of,
            traffic,
        }
    }
}

/// Splits a trained SNN into at most `targets` clusters by greedy cut
/// minimization: neurons are visited in descending affinity degree and
/// each joins the non-full cluster it has the most affinity mass with
/// (ties: the emptier cluster, then the lower cluster id). Capacity is
/// `min(256, ceil(n / targets))`, so clusters stay balanced enough for
/// a placer to spread them.
///
/// Deterministic: the affinity graph is a pure function of the weights
/// and every tie-break is by index.
///
/// # Panics
///
/// Panics if `targets == 0` or the network cannot fit (more neurons
/// than `targets * 256`).
pub fn partition_snn(net: &SnnNetwork, targets: usize) -> Partition {
    let n = net.params().neurons;
    let inputs = net.inputs();
    let weights = net.weights();
    let affinity = affinity_matrix(weights, n, inputs);
    partition_affinity(&affinity, n, targets)
}

/// The per-cluster capacity for `n` neurons over `targets` clusters.
fn capacity(n: usize, targets: usize) -> usize {
    MAX_CLUSTER_NEURONS.min(n.div_ceil(targets)).max(1)
}

/// Pairwise receptive-field overlap, row-major `n × n` (diagonal zero).
fn affinity_matrix(weights: &[u8], n: usize, inputs: usize) -> Vec<u64> {
    let mut affinity = vec![0u64; n * n];
    for j in 0..n {
        let row_j = &weights[j * inputs..(j + 1) * inputs];
        for k in (j + 1)..n {
            let row_k = &weights[k * inputs..(k + 1) * inputs];
            let mut overlap = 0u64;
            for (&wj, &wk) in row_j.iter().zip(row_k) {
                overlap += u64::from(wj.min(wk));
            }
            affinity[j * n + k] = overlap;
            affinity[k * n + j] = overlap;
        }
    }
    affinity
}

/// The greedy assignment over a precomputed affinity matrix.
fn partition_affinity(affinity: &[u64], n: usize, targets: usize) -> Partition {
    assert!(targets > 0, "need at least one target cluster");
    assert!(n > 0, "need at least one neuron");
    assert!(
        n <= targets * MAX_CLUSTER_NEURONS,
        "{n} neurons cannot fit on {targets} cores of {MAX_CLUSTER_NEURONS}"
    );
    let cap = capacity(n, targets);

    // Descending affinity degree, ties by ascending index: the most
    // connected neurons seed the clusters their neighbours then join.
    let degree: Vec<u64> = (0..n)
        .map(|j| affinity[j * n..(j + 1) * n].iter().sum())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&j| (std::cmp::Reverse(degree[j]), j));

    let mut cluster_of = vec![usize::MAX; n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); targets];
    for &j in &order {
        let mut best: Option<(u64, usize, usize)> = None; // (gain, len, cluster)
        for (c, cluster) in members.iter().enumerate() {
            if cluster.len() >= cap {
                continue;
            }
            let gain: u64 = cluster.iter().map(|&m| affinity[j * n + m]).sum();
            let candidate = (gain, cluster.len(), c);
            let better = match best {
                None => true,
                Some((bg, bl, bc)) => {
                    gain > bg || (gain == bg && (candidate.1 < bl || (candidate.1 == bl && c < bc)))
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        // Capacity * targets >= n, so a non-full cluster always exists.
        let (_, _, c) = best.map_or((0, 0, 0), |b| b);
        cluster_of[j] = c;
        members[c].push(j);
    }

    // Drop empty clusters (possible when targets > ceil(n / cap)),
    // renumbering survivors in first-use order.
    let mut remap = vec![usize::MAX; targets];
    let mut next = 0usize;
    for c in members
        .iter()
        .enumerate()
        .filter(|(_, m)| !m.is_empty())
        .map(|(c, _)| c)
    {
        remap[c] = next;
        next += 1;
    }
    for c in cluster_of.iter_mut() {
        *c = remap[*c];
    }
    Partition::from_assignment(cluster_of, next, affinity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversubscribed_grids_are_rejected() {
        let affinity = vec![0u64; 600 * 600];
        let _ = partition_affinity(&affinity, 600, 2);
    }

    #[test]
    fn greedy_groups_overlapping_rows_together() {
        // Neurons 0/1 share a receptive field, 2/3 share a disjoint one:
        // the two-cluster cut must separate the pairs.
        let weights = [
            200, 200, 0, 0, //
            180, 190, 0, 0, //
            0, 0, 210, 200, //
            0, 0, 190, 205, //
        ];
        let affinity = affinity_matrix(&weights, 4, 4);
        let p = partition_affinity(&affinity, 4, 2);
        assert_eq!(p.num_clusters(), 2);
        assert_eq!(p.cluster_of(0), p.cluster_of(1));
        assert_eq!(p.cluster_of(2), p.cluster_of(3));
        assert_ne!(p.cluster_of(0), p.cluster_of(2));
        assert!(p.traffic(0, 1) == 0 && p.traffic(1, 0) == 0);
    }

    #[test]
    fn partition_is_deterministic() {
        let weights: Vec<u8> = (0..16 * 9).map(|i| ((i * 37) % 251) as u8).collect();
        let a1 = affinity_matrix(&weights, 16, 9);
        let p1 = partition_affinity(&a1, 16, 4);
        let p2 = partition_affinity(&a1, 16, 4);
        assert_eq!(p1, p2);
        assert_eq!(p1.neurons(), 16);
        // Every neuron appears exactly once across clusters.
        let mut seen = [false; 16];
        for cluster in p1.clusters() {
            for &j in cluster {
                assert!(!seen[j], "neuron {j} assigned twice");
                seen[j] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
