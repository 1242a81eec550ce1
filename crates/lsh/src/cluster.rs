//! Online clustering from LSH signatures, cluster centroids, and the
//! redundancy-ratio bookkeeping used by the paper's latency model.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use greuse_tensor::{Tensor, TensorError};

use crate::family::{HashFamily, SigScratch, Signature};

/// Multiplicative hasher for [`Signature`] bucket keys.
///
/// The default SipHash is keyed and DoS-resistant but costs tens of
/// nanoseconds per lookup — measurable when every neuron block of every
/// panel probes the bucket map. Signatures are at most 64 bits of
/// sign-projection output produced from the data itself, so a
/// Fibonacci-multiply mix is enough spread and an order of magnitude
/// cheaper. Only lookups/inserts ever touch the map (iteration order is
/// never observed), so swapping the hasher cannot change clustering
/// results.
#[derive(Debug, Default, Clone)]
pub struct SigHasher(u64);

impl Hasher for SigHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

/// [`std::hash::BuildHasher`] for [`SigHasher`]-keyed maps.
pub type SigBuildHasher = BuildHasherDefault<SigHasher>;

/// Result of clustering `n` vectors: an assignment of each vector to a
/// cluster, cluster sizes, and per-cluster member lists.
///
/// Cluster ids are dense (`0..num_clusters`), ordered by first appearance —
/// matching the online (single-pass) clustering of deep reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    assignments: Vec<usize>,
    members: Vec<Vec<usize>>,
    signatures: Vec<Signature>,
}

impl Clustering {
    /// Groups vectors by equal signatures (single pass, first-appearance
    /// cluster ids).
    pub fn from_signatures(sigs: &[Signature]) -> Self {
        let mut ids: HashMap<Signature, usize> = HashMap::new();
        let mut assignments = Vec::with_capacity(sigs.len());
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut signatures = Vec::new();
        for (i, s) in sigs.iter().enumerate() {
            let next_id = members.len();
            let id = *ids.entry(*s).or_insert(next_id);
            if id == members.len() {
                members.push(Vec::new());
                signatures.push(*s);
            }
            members[id].push(i);
            assignments.push(id);
        }
        Clustering {
            assignments,
            members,
            signatures,
        }
    }

    /// Number of vectors clustered (`n`).
    pub fn num_vectors(&self) -> usize {
        self.assignments.len()
    }

    /// Number of clusters (`n_c` contribution of this sub-matrix).
    pub fn num_clusters(&self) -> usize {
        self.members.len()
    }

    /// Cluster id of each vector, in input order.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Sizes `m_i` of every cluster — the weights in the analytic accuracy
    /// bound.
    pub fn sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }

    /// Member indices of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= num_clusters()`.
    pub fn members(&self, c: usize) -> &[usize] {
        &self.members[c]
    }

    /// Signature shared by the members of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= num_clusters()`.
    pub fn signature(&self, c: usize) -> Signature {
        self.signatures[c]
    }

    /// Fraction of vectors eliminated by clustering:
    /// `1 − n_c / n` (this sub-matrix's contribution to the paper's `r_t`).
    pub fn redundancy_ratio(&self) -> f64 {
        if self.assignments.is_empty() {
            return 0.0;
        }
        1.0 - self.num_clusters() as f64 / self.num_vectors() as f64
    }

    /// `true` when clustering found no redundancy at all: more than one
    /// vector, yet every vector is its own cluster (`n_c == n`). A
    /// degenerate clustering makes the reuse path strictly more expensive
    /// than the dense GEMM it replaces, which is exactly the condition the
    /// runtime guard's dense fallback exists for.
    pub fn is_degenerate(&self) -> bool {
        self.num_vectors() > 1 && self.num_clusters() == self.num_vectors()
    }

    /// Computes the centroid matrix (`n_c x dim`) for vectors provided by
    /// `vector(i)` returning the `i`-th input vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when any provided vector's
    /// length differs from `dim`.
    pub fn centroids_with(
        &self,
        dim: usize,
        vector: impl Fn(usize) -> Vec<f32>,
    ) -> Result<Tensor<f32>, TensorError> {
        let mut out = Tensor::zeros(&[self.num_clusters(), dim]);
        for (c, members) in self.members.iter().enumerate() {
            let row = out.row_mut(c);
            for &m in members {
                let v = vector(m);
                if v.len() != dim {
                    return Err(TensorError::ShapeMismatch {
                        op: "Clustering::centroids_with",
                        expected: vec![dim],
                        actual: vec![v.len()],
                    });
                }
                for (r, x) in row.iter_mut().zip(v.iter()) {
                    *r += x;
                }
            }
            let inv = 1.0 / members.len() as f32;
            for r in row.iter_mut() {
                *r *= inv;
            }
        }
        Ok(out)
    }
}

/// Refinement radius multiplier (see [`refine_threshold`]).
const REFINE_FACTOR: f32 = 3.0;

/// Maximum Euclidean radius a refined cluster may span around its leader.
///
/// Signature equality alone does not bound how far co-bucketed vectors
/// lie apart: sign projections are angular, so parallel vectors of very
/// different magnitude — and, at small `H`, outright dissimilar vectors —
/// share buckets, and substituting their centroid injects unbounded
/// error. Refinement caps that error at `O(‖x‖/H)`: the radius scales
/// with the data magnitude `mean_norm` and shrinks as `H` grows, so
/// spending more hash functions monotonically tightens both the bucket
/// resolution *and* the worst-case centroid-substitution error.
pub fn refine_threshold(mean_norm: f32, h: usize) -> f32 {
    REFINE_FACTOR * mean_norm / h.max(1) as f32
}

/// Squared Euclidean distance between two equal-length vectors — the
/// scatter-refinement leader test.
///
/// The AVX2 tier reduces in 8 lanes, so the summation *order* differs
/// from the scalar fold. The distance is only ever compared against the
/// refinement radius `tau²` (it never enters the output arithmetic), and
/// every clustering entry point — the scratch reference, presigned/fused,
/// and the allocating reference — shares this one function, so all paths still
/// agree with each other exactly; only vectors sitting within float
/// reassociation error of the radius could cluster differently than
/// under the scalar fold (for exact duplicates every term is zero in any
/// order).
fn dist2(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if a.len() >= 8 && std::arch::is_x86_feature_detected!("avx2") {
        // Safety: AVX2 detected; the kernel only reads in bounds.
        return unsafe { dist2_avx2(a, b) };
    }
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dist2_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let d = _mm256_sub_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        i += 8;
    }
    let hi = _mm256_extractf128_ps(acc, 1);
    let mut q = _mm_add_ps(_mm256_castps256_ps128(acc), hi);
    q = _mm_add_ps(q, _mm_movehl_ps(q, q));
    q = _mm_add_ss(q, _mm_shuffle_ps(q, q, 1));
    let mut sum = _mm_cvtss_f32(q);
    while i < n {
        let d = *ap.add(i) - *bp.add(i);
        sum += d * d;
        i += 1;
    }
    sum
}

/// Single-pass leader clustering: vectors join the first cluster of their
/// signature bucket whose leader (first member) lies within `tau`;
/// otherwise they found a new cluster. Cluster ids are dense in global
/// first-appearance order, matching [`Clustering::from_signatures`].
fn cluster_refined<'a>(
    sigs: &[Signature],
    vector: impl Fn(usize) -> &'a [f32],
    tau: f32,
) -> Clustering {
    let tau2 = tau * tau;
    let mut buckets: HashMap<Signature, Vec<usize>> = HashMap::new();
    let mut leaders: Vec<usize> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut signatures: Vec<Signature> = Vec::new();
    let mut assignments = Vec::with_capacity(sigs.len());
    for (i, s) in sigs.iter().enumerate() {
        let ids = buckets.entry(*s).or_default();
        let found = ids
            .iter()
            .copied()
            .find(|&c| dist2(vector(leaders[c]), vector(i)) <= tau2);
        let c = found.unwrap_or_else(|| {
            let c = members.len();
            ids.push(c);
            leaders.push(i);
            members.push(Vec::new());
            signatures.push(*s);
            c
        });
        members[c].push(i);
        assignments.push(c);
    }
    Clustering {
        assignments,
        members,
        signatures,
    }
}

fn mean_norm_rows<'a>(n: usize, vector: impl Fn(usize) -> &'a [f32]) -> f32 {
    if n == 0 {
        return 0.0;
    }
    let total: f64 = (0..n)
        .map(|r| {
            vector(r)
                .iter()
                .map(|v| f64::from(*v) * f64::from(*v))
                .sum::<f64>()
                .sqrt()
        })
        .sum();
    (total / n as f64) as f32
}

/// Clusters the **rows** of a rank-2 tensor whose width equals the
/// family's `L`, with scatter refinement (see [`refine_threshold`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `x` is not rank 2 or its
/// width differs from `family.l()`.
pub fn cluster_rows(x: &Tensor<f32>, family: &HashFamily) -> Result<Clustering, TensorError> {
    if x.shape().rank() != 2 || x.cols() != family.l() {
        return Err(TensorError::ShapeMismatch {
            op: "cluster_rows",
            expected: vec![family.l()],
            actual: x.shape().dims().to_vec(),
        });
    }
    let sigs = family.hash_rows(x)?;
    let tau = refine_threshold(mean_norm_rows(x.rows(), |r| x.row(r)), family.h());
    Ok(cluster_refined(&sigs, |r| x.row(r), tau))
}

/// Reusable state for refined clustering without per-call allocation.
///
/// [`cluster_rows`] allocates signature and member vectors on every call;
/// a `ClusterScratch` keeps those buffers (and the signature-bucket map)
/// alive between calls, so repeated clustering of equally-sized inputs
/// reaches a zero-allocation steady state. The algorithm is *identical*
/// to [`cluster_rows`] — same signatures, same scatter threshold, same
/// single-pass leader scan in the same order — so assignments and cluster
/// counts match the allocating path bit for bit.
///
/// Buckets are kept as a signature → head-cluster map plus an intrusive
/// `chain` of cluster ids, replacing the `Vec<usize>` per bucket of the
/// allocating path (one heap block per bucket) with two flat arrays.
#[derive(Debug, Default)]
pub struct ClusterScratch {
    sigs: Vec<Signature>,
    sig_scratch: SigScratch,
    buckets: HashMap<Signature, usize, SigBuildHasher>,
    chain: Vec<usize>,
    leaders: Vec<usize>,
    assignments: Vec<usize>,
    sizes: Vec<usize>,
}

/// End-of-chain marker for [`ClusterScratch::chain`].
const NONE: usize = usize::MAX;

impl ClusterScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        ClusterScratch::default()
    }

    /// Clusters `n` contiguous rows of `data` (each of length
    /// `family.l()`) exactly as [`cluster_rows`] would, reusing this
    /// scratch's buffers: hashes them with the packed projection, scans
    /// their norms, then groups them. This is the reference the fused
    /// sweep plus [`ClusterScratch::cluster_presigned`] is tested
    /// against. Results are read back via
    /// [`ClusterScratch::assignments`] / [`ClusterScratch::sizes`] /
    /// [`ClusterScratch::centroids_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `data.len()` differs
    /// from `n * family.l()`.
    pub fn cluster(
        &mut self,
        data: &[f32],
        n: usize,
        family: &HashFamily,
    ) -> Result<(), TensorError> {
        let l = family.l();
        if data.len() != n * l {
            return Err(TensorError::ShapeMismatch {
                op: "ClusterScratch::cluster",
                expected: vec![n, l],
                actual: vec![data.len()],
            });
        }
        {
            let _hash = greuse_telemetry::span!("lsh.hash");
            family.hash_rows_into(data, n, &mut self.sigs, &mut self.sig_scratch)?;
        }
        let tau = {
            let row = |i: usize| &data[i * l..(i + 1) * l];
            refine_threshold(mean_norm_rows(n, row), family.h())
        };
        self.group(data, n, l, tau);
        Ok(())
    }

    /// Groups `n` rows of `data` using **precomputed** signatures and a
    /// precomputed refinement radius — the grouping half of
    /// [`ClusterScratch::cluster`], for callers that produced the
    /// signatures in a fused hash-and-norm sweep (see
    /// [`crate::FusedPanelSource`]; the executors' only clustering entry
    /// point). When `sigs` and `tau` are bit-identical to what
    /// [`ClusterScratch::cluster`] would compute (the fused source
    /// guarantees this), the resulting clustering matches it exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `data.len() != n * l`
    /// or `sigs.len() != n`.
    pub fn cluster_presigned(
        &mut self,
        data: &[f32],
        n: usize,
        l: usize,
        sigs: &[Signature],
        tau: f32,
    ) -> Result<(), TensorError> {
        if data.len() != n * l || sigs.len() != n {
            return Err(TensorError::ShapeMismatch {
                op: "ClusterScratch::cluster_presigned",
                expected: vec![n * l, n],
                actual: vec![data.len(), sigs.len()],
            });
        }
        self.sigs.clear();
        self.sigs.extend_from_slice(sigs);
        self.group(data, n, l, tau);
        Ok(())
    }

    /// The single-pass leader walk over `self.sigs` — shared by the
    /// hashing and presigned entry points. Telemetry span: `lsh.group`.
    fn group(&mut self, data: &[f32], n: usize, l: usize, tau: f32) {
        let _group = greuse_telemetry::span!("lsh.group");
        let row = |i: usize| &data[i * l..(i + 1) * l];
        let tau2 = tau * tau;
        self.buckets.clear();
        self.chain.clear();
        self.leaders.clear();
        self.sizes.clear();
        self.assignments.clear();
        for i in 0..n {
            let s = self.sigs[i];
            let c = match self.buckets.entry(s) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    let c = self.leaders.len();
                    e.insert(c);
                    self.leaders.push(i);
                    self.chain.push(NONE);
                    self.sizes.push(0);
                    c
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    // Walk the bucket's clusters in founding order — the
                    // same order the allocating path scans its id list.
                    let mut c = *e.get();
                    loop {
                        if dist2(row(self.leaders[c]), row(i)) <= tau2 {
                            break c;
                        }
                        if self.chain[c] == NONE {
                            let nc = self.leaders.len();
                            self.chain[c] = nc;
                            self.leaders.push(i);
                            self.chain.push(NONE);
                            self.sizes.push(0);
                            break nc;
                        }
                        c = self.chain[c];
                    }
                }
            };
            self.sizes[c] += 1;
            self.assignments.push(c);
        }
    }

    /// Number of vectors in the last clustering.
    pub fn num_vectors(&self) -> usize {
        self.assignments.len()
    }

    /// Number of clusters found by the last clustering.
    pub fn num_clusters(&self) -> usize {
        self.leaders.len()
    }

    /// Cluster id of each vector, in input order.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Cluster sizes, by cluster id.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// `true` when the last clustering found no redundancy at all (see
    /// [`Clustering::is_degenerate`]).
    pub fn is_degenerate(&self) -> bool {
        self.num_vectors() > 1 && self.num_clusters() == self.num_vectors()
    }

    /// Overwrites the last clustering with the fully degenerate one:
    /// each of the `n` vectors becomes its own singleton cluster.
    ///
    /// This is the worst case for reuse (`r_t = 0`) and exists so fault
    /// harnesses can force the guard's dense-fallback path
    /// deterministically — constructing real input data that is
    /// *guaranteed* to defeat the scatter-refined clustering is fragile,
    /// because the refinement radius scales with the data's magnitude.
    /// Internal bucket state is left stale; the next call to
    /// [`ClusterScratch::cluster`] rebuilds it from scratch.
    pub fn force_singletons(&mut self, n: usize) {
        self.leaders.clear();
        self.leaders.extend(0..n);
        self.assignments.clear();
        self.assignments.extend(0..n);
        self.sizes.clear();
        self.sizes.resize(n, 1);
    }

    /// Restores a previously captured clustering (its `assignments` and
    /// `sizes` as read back from [`ClusterScratch::assignments`] /
    /// [`ClusterScratch::sizes`]) — the temporal-reuse warm start: a
    /// caller that proved the current panel's data identical to a cached
    /// frame skips the leader walk entirely and replays the cached
    /// grouping. Leaders are rebuilt as the first occurrence of each
    /// cluster id, which is exactly where the single-pass walk founds
    /// them. Internal bucket state is left stale, like
    /// [`ClusterScratch::force_singletons`]; the next
    /// [`ClusterScratch::cluster`] call rebuilds it from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `assignments` references a cluster id `>= sizes.len()`.
    pub fn restore(&mut self, assignments: &[usize], sizes: &[usize]) {
        self.assignments.clear();
        self.assignments.extend_from_slice(assignments);
        self.sizes.clear();
        self.sizes.extend_from_slice(sizes);
        self.leaders.clear();
        self.leaders.resize(sizes.len(), NONE);
        for (i, &c) in assignments.iter().enumerate() {
            if self.leaders[c] == NONE {
                self.leaders[c] = i;
            }
        }
    }

    /// Writes the centroid matrix (`num_clusters() x l`, row-major) of the
    /// last clustering into `out`, given the same flat `data` the vectors
    /// were clustered from. Matches [`Clustering::centroids_with`] bit for
    /// bit: members accumulate in input order, then divide by the size.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `data` or `out` have
    /// unexpected lengths.
    pub fn centroids_into(
        &self,
        data: &[f32],
        l: usize,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        let n = self.num_vectors();
        let nc = self.num_clusters();
        if data.len() != n * l || out.len() != nc * l {
            return Err(TensorError::ShapeMismatch {
                op: "ClusterScratch::centroids_into",
                expected: vec![n * l, nc * l],
                actual: vec![data.len(), out.len()],
            });
        }
        out.fill(0.0);
        for (i, &c) in self.assignments.iter().enumerate() {
            let dst = &mut out[c * l..(c + 1) * l];
            for (d, s) in dst.iter_mut().zip(&data[i * l..(i + 1) * l]) {
                *d += s;
            }
        }
        for (c, &size) in self.sizes.iter().enumerate() {
            let inv = 1.0 / size as f32;
            for v in &mut out[c * l..(c + 1) * l] {
                *v *= inv;
            }
        }
        Ok(())
    }
}

/// Clusters an explicit list of equal-length vectors, with scatter
/// refinement (see [`refine_threshold`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when any vector's length differs
/// from `family.l()`.
pub fn cluster_vectors(
    vectors: &[Vec<f32>],
    family: &HashFamily,
) -> Result<Clustering, TensorError> {
    for v in vectors {
        if v.len() != family.l() {
            return Err(TensorError::ShapeMismatch {
                op: "cluster_vectors",
                expected: vec![family.l()],
                actual: vec![v.len()],
            });
        }
    }
    let sigs: Vec<Signature> = vectors.iter().map(|v| family.hash(v)).collect();
    let tau = refine_threshold(
        mean_norm_rows(vectors.len(), |r| vectors[r].as_slice()),
        family.h(),
    );
    Ok(cluster_refined(&sigs, |r| vectors[r].as_slice(), tau))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sigs(v: &[u64]) -> Vec<Signature> {
        v.iter().map(|&b| Signature(b)).collect()
    }

    #[test]
    fn from_signatures_groups() {
        let c = Clustering::from_signatures(&sigs(&[3, 5, 3, 7, 5, 3]));
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.assignments(), &[0, 1, 0, 2, 1, 0]);
        assert_eq!(c.sizes(), vec![3, 2, 1]);
        assert_eq!(c.members(0), &[0, 2, 5]);
        assert_eq!(c.signature(2), Signature(7));
    }

    #[test]
    fn redundancy_ratio_all_same() {
        let c = Clustering::from_signatures(&sigs(&[9; 10]));
        assert!((c.redundancy_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn redundancy_ratio_all_distinct() {
        let c = Clustering::from_signatures(&sigs(&[1, 2, 3, 4]));
        assert_eq!(c.redundancy_ratio(), 0.0);
    }

    #[test]
    fn empty_clustering() {
        let c = Clustering::from_signatures(&[]);
        assert_eq!(c.num_clusters(), 0);
        assert_eq!(c.redundancy_ratio(), 0.0);
    }

    #[test]
    fn centroids_average_members() {
        let c = Clustering::from_signatures(&sigs(&[1, 1, 2]));
        let data = [vec![1.0f32, 0.0], vec![3.0, 0.0], vec![0.0, 5.0]];
        let cent = c.centroids_with(2, |i| data[i].clone()).unwrap();
        assert_eq!(cent.row(0), &[2.0, 0.0]);
        assert_eq!(cent.row(1), &[0.0, 5.0]);
    }

    #[test]
    fn cluster_rows_duplicates_collapse() {
        let mut rng = SmallRng::seed_from_u64(1);
        let family = HashFamily::random(8, 4, &mut rng);
        let x = Tensor::from_vec(
            vec![
                1.0f32, 2.0, 3.0, 4.0, //
                1.0, 2.0, 3.0, 4.0, //
                -1.0, -2.0, -3.0, -4.0,
            ],
            &[3, 4],
        )
        .unwrap();
        let c = cluster_rows(&x, &family).unwrap();
        assert_eq!(c.assignments()[0], c.assignments()[1]);
        assert!(c.num_clusters() <= 2);
    }

    #[test]
    fn cluster_rows_rejects_width_mismatch() {
        let mut rng = SmallRng::seed_from_u64(2);
        let family = HashFamily::random(4, 5, &mut rng);
        let x = Tensor::<f32>::zeros(&[3, 4]);
        assert!(cluster_rows(&x, &family).is_err());
    }

    #[test]
    fn cluster_vectors_rejects_ragged() {
        let mut rng = SmallRng::seed_from_u64(3);
        let family = HashFamily::random(4, 3, &mut rng);
        let vs = vec![vec![1.0f32; 3], vec![1.0; 2]];
        assert!(cluster_vectors(&vs, &family).is_err());
    }

    #[test]
    fn scratch_matches_cluster_rows_exactly() {
        let mut rng = SmallRng::seed_from_u64(11);
        let x = Tensor::random(
            &[120, 10],
            &rand::distributions::Uniform::new(-2.0f32, 2.0),
            &mut rng,
        );
        let mut scratch = ClusterScratch::new();
        for h in [1usize, 3, 8, 32] {
            let mut frng = SmallRng::seed_from_u64(h as u64 + 40);
            let family = HashFamily::random(h, 10, &mut frng);
            let want = cluster_rows(&x, &family).unwrap();
            scratch.cluster(x.as_slice(), 120, &family).unwrap();
            assert_eq!(scratch.assignments(), want.assignments(), "H={h}");
            assert_eq!(scratch.num_clusters(), want.num_clusters(), "H={h}");
            assert_eq!(scratch.sizes(), &want.sizes()[..], "H={h}");
            let want_cent = want.centroids_with(10, |i| x.row(i).to_vec()).unwrap();
            let mut got = vec![0.0f32; want.num_clusters() * 10];
            scratch.centroids_into(x.as_slice(), 10, &mut got).unwrap();
            assert_eq!(&got[..], want_cent.as_slice(), "H={h}");
        }
    }

    #[test]
    fn scratch_validates_lengths() {
        let mut rng = SmallRng::seed_from_u64(12);
        let family = HashFamily::random(4, 5, &mut rng);
        let mut scratch = ClusterScratch::new();
        assert!(scratch.cluster(&[0.0; 11], 2, &family).is_err());
        scratch.cluster(&[0.5; 10], 2, &family).unwrap();
        let mut out = vec![0.0; 4];
        assert!(scratch.centroids_into(&[0.5; 10], 5, &mut out).is_err());
    }

    #[test]
    fn centroids_with_rejects_ragged_vectors() {
        let c = Clustering::from_signatures(&sigs(&[1, 1, 2]));
        let data = [vec![1.0f32, 0.0], vec![3.0, 0.0, 9.0], vec![0.0, 5.0]];
        assert!(c.centroids_with(2, |i| data[i].clone()).is_err());
    }

    #[test]
    fn degeneracy_detection() {
        assert!(Clustering::from_signatures(&sigs(&[1, 2, 3])).is_degenerate());
        assert!(!Clustering::from_signatures(&sigs(&[1, 1, 3])).is_degenerate());
        // A single vector is trivially its own cluster, not degenerate.
        assert!(!Clustering::from_signatures(&sigs(&[1])).is_degenerate());
        assert!(!Clustering::from_signatures(&[]).is_degenerate());
    }

    #[test]
    fn force_singletons_overwrites_clustering() {
        let mut rng = SmallRng::seed_from_u64(21);
        let family = HashFamily::random(4, 3, &mut rng);
        let mut scratch = ClusterScratch::new();
        // All-identical rows collapse to one cluster...
        scratch.cluster(&[0.5; 12], 4, &family).unwrap();
        assert_eq!(scratch.num_clusters(), 1);
        assert!(!scratch.is_degenerate());
        // ...until the degenerate clustering is forced.
        scratch.force_singletons(4);
        assert_eq!(scratch.num_clusters(), 4);
        assert_eq!(scratch.assignments(), &[0, 1, 2, 3]);
        assert_eq!(scratch.sizes(), &[1, 1, 1, 1]);
        assert!(scratch.is_degenerate());
        // Centroids of singleton clusters are the vectors themselves.
        let data: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let mut out = vec![0.0f32; 12];
        scratch.centroids_into(&data, 3, &mut out).unwrap();
        assert_eq!(out, data);
        // The stale bucket state must not leak into the next clustering.
        scratch.cluster(&[0.5; 12], 4, &family).unwrap();
        assert_eq!(scratch.num_clusters(), 1);
    }

    #[test]
    fn restore_replays_captured_clustering() {
        let mut rng = SmallRng::seed_from_u64(22);
        let family = HashFamily::random(6, 5, &mut rng);
        let x = Tensor::random(
            &[30, 5],
            &rand::distributions::Uniform::new(-1.0f32, 1.0),
            &mut rng,
        );
        let mut scratch = ClusterScratch::new();
        scratch.cluster(x.as_slice(), 30, &family).unwrap();
        let assignments = scratch.assignments().to_vec();
        let sizes = scratch.sizes().to_vec();
        let mut cent_want = vec![0.0f32; scratch.num_clusters() * 5];
        scratch
            .centroids_into(x.as_slice(), 5, &mut cent_want)
            .unwrap();

        // Clobber the scratch with an unrelated clustering, then restore.
        scratch.cluster(&[0.25; 40], 8, &family).unwrap();
        scratch.restore(&assignments, &sizes);
        assert_eq!(scratch.assignments(), &assignments[..]);
        assert_eq!(scratch.sizes(), &sizes[..]);
        assert_eq!(scratch.num_clusters(), sizes.len());
        let mut cent_got = vec![0.0f32; sizes.len() * 5];
        scratch
            .centroids_into(x.as_slice(), 5, &mut cent_got)
            .unwrap();
        assert_eq!(cent_got, cent_want);
        // Stale bucket state must not leak into the next clustering.
        scratch.cluster(&[0.5; 20], 4, &family).unwrap();
        assert_eq!(scratch.num_clusters(), 1);
    }

    #[test]
    fn more_hashes_more_clusters() {
        // Granularity of clustering grows with H (paper §2: H controls
        // cluster granularity).
        let mut rng = SmallRng::seed_from_u64(4);
        let x = Tensor::random(
            &[200, 8],
            &rand::distributions::Uniform::new(-1.0f32, 1.0),
            &mut rng,
        );
        let mut prev = 0usize;
        for h in [1usize, 4, 16, 64] {
            let mut rng_h = SmallRng::seed_from_u64(99);
            let family = HashFamily::random(h, 8, &mut rng_h);
            let c = cluster_rows(&x, &family).unwrap();
            assert!(c.num_clusters() >= prev, "H={h}");
            prev = c.num_clusters();
        }
    }
}
