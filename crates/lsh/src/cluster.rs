//! Online clustering from LSH signatures, cluster centroids, and the
//! redundancy-ratio bookkeeping used by the paper's latency model.

use std::collections::HashMap;

use greuse_tensor::{Tensor, TensorError};

use crate::family::{HashFamily, SigScratch, Signature};

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

/// Kernel tier of the refinement distance, chosen once per clustering
/// call: AVX2 when the CPU has it, portable otherwise. Tests force
/// `Portable` to drive the scalar tier on AVX2 hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Tier {
    Avx2,
    Portable,
}

impl Tier {
    fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
        Tier::Portable
    }
}

/// Squared Euclidean distance between two equal-length vectors — the
/// scatter-refinement leader test.
///
/// The summation order is fixed per tier, and every leader comparison of
/// every clustering entry point reproduces it exactly (the blocked walk's
/// tile kernels included), so all paths agree bit for bit:
///
/// * AVX2 with `L >= 8`: eight lane partials, lane `j` summing the terms
///   `t ≡ j (mod 8)` of the 8-aligned body in order, reduced as
///   `((p0+p4)+(p2+p6)) + ((p1+p5)+(p3+p7))`, then the scalar tail
///   terms added in order;
/// * otherwise (portable tier, or `L < 8`): a sequential fold from `0.0`.
///
/// Every term is a separate subtract, multiply and add (never an FMA).
/// The distance is only compared against the refinement radius `tau²`
/// (it never enters the output arithmetic); the two tiers can disagree
/// only for vectors within float reassociation error of the radius, and
/// exact duplicates are at distance zero in any order.
#[inline]
fn dist2(tier: Tier, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dist2: vectors of unequal length");
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && a.len() >= 8 {
        // SAFETY: AVX2 was detected when `tier` was chosen, and `b` is as
        // long as `a` (asserted above), which bounds every read.
        return unsafe { dist2_avx2(a, b) };
    }
    let _ = tier;
    a.iter().zip(b).fold(0.0, |s, (x, y)| s + (x - y) * (x - y))
}

/// # Safety
///
/// The CPU must support AVX2 and `b` must be at least as long as `a`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
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

/// Leaders per tile of the blocked walk (one AVX2 register of lanes).
const LANES: usize = 8;

/// One element of each of a tile's [`LANES`] leaders, aligned so the
/// AVX2 kernel loads it as one aligned register.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct Lanes([f32; LANES]);

/// Bitmask of the lanes of a transposed leader tile (`tile[t].0[lane]`
/// holds element `t` of lane `lane`'s leader) whose [`dist2`] to `x` is
/// within `tau2`, computed for all eight lanes in one pass. Each lane
/// reproduces [`dist2`]'s summation order for `tier` exactly, so the
/// first set bit is the leader the one-at-a-time scan would have chosen.
#[inline]
fn tile_within(tier: Tier, tile: &[Lanes], x: &[f32], tau2: f32) -> u32 {
    assert_eq!(tile.len(), x.len(), "tile_within: one tile row per element");
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 {
        // SAFETY: AVX2 was detected when `tier` was chosen, and the tile
        // has a row for every element of `x` (asserted above).
        return unsafe { tile_within_avx2(tile, x, tau2) };
    }
    let _ = tier;
    let mut acc = [0.0f32; LANES];
    for (lanes, &xv) in tile.iter().zip(x) {
        for (a, &lv) in acc.iter_mut().zip(&lanes.0) {
            let d = lv - xv;
            *a += d * d;
        }
    }
    acc.iter()
        .enumerate()
        .fold(0, |m, (lane, &d)| m | (u32::from(d <= tau2) << lane))
}

/// AVX2 tile kernel: [`dist2_avx2`]'s order per lane — eight partial
/// registers over `t mod 8` across the 8-aligned body, the same pairwise
/// reduction, then the tail in order. For `L < 8` the body is empty and
/// the reduction of eight zeros leaves the tail as a sequential fold from
/// `0.0`, which is [`dist2`]'s order there.
///
/// # Safety
///
/// The CPU must support AVX2 and `tile` must be as long as `x`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tile_within_avx2(tile: &[Lanes], x: &[f32], tau2: f32) -> u32 {
    use std::arch::x86_64::*;
    let l = x.len();
    let tp = tile.as_ptr().cast::<f32>();
    let xp = x.as_ptr();
    let mut p = [_mm256_setzero_ps(); LANES];
    let body = l & !(LANES - 1);
    for t0 in (0..body).step_by(LANES) {
        for (j, pj) in p.iter_mut().enumerate() {
            let t = t0 + j;
            let d = _mm256_sub_ps(
                _mm256_load_ps(tp.add(t * LANES)),
                _mm256_set1_ps(*xp.add(t)),
            );
            *pj = _mm256_add_ps(*pj, _mm256_mul_ps(d, d));
        }
    }
    let mut sum = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(p[0], p[4]), _mm256_add_ps(p[2], p[6])),
        _mm256_add_ps(_mm256_add_ps(p[1], p[5]), _mm256_add_ps(p[3], p[7])),
    );
    for t in body..l {
        let d = _mm256_sub_ps(
            _mm256_load_ps(tp.add(t * LANES)),
            _mm256_set1_ps(*xp.add(t)),
        );
        sum = _mm256_add_ps(sum, _mm256_mul_ps(d, d));
    }
    let within = _mm256_cmp_ps::<_CMP_LE_OQ>(sum, _mm256_set1_ps(tau2));
    _mm256_movemask_ps(within) as u32
}

/// Single-pass leader clustering: vectors join the first cluster of their
/// signature bucket whose leader (first member) lies within `tau`;
/// otherwise they found a new cluster. Cluster ids are dense in global
/// first-appearance order, matching [`Clustering::from_signatures`].
///
/// This is the allocating reference: one [`dist2`] call per leader, in
/// founding order. [`ClusterScratch`]'s blocked walk is tested against it.
fn cluster_refined<'a>(
    sigs: &[Signature],
    vector: impl Fn(usize) -> &'a [f32],
    tau: f32,
    tier: Tier,
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
            .find(|&c| dist2(tier, vector(leaders[c]), vector(i)) <= tau2);
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
    Ok(cluster_refined(&sigs, |r| x.row(r), tau, Tier::detect()))
}

/// Reusable state for refined clustering without per-call allocation.
///
/// [`cluster_rows`] allocates signature and member vectors on every call;
/// a `ClusterScratch` keeps those buffers (and the bucket table) alive
/// between calls, so repeated clustering of equally-sized inputs reaches
/// a zero-allocation steady state. The algorithm is *identical* to
/// [`cluster_rows`] — same signatures, same scatter threshold, same
/// single-pass leader scan in the same order — so assignments and cluster
/// counts match the allocating path bit for bit.
///
/// The walk is laid out for the distance test rather than per bucket:
///
/// * buckets live in a flat open-addressed table (one slot per bucket,
///   linear probing on a multiplicative mix of the signature), sized
///   from `n` and invalidated per call by a generation stamp;
/// * a bucket's first leader is compared in place, which settles a
///   vector at the cost of one distance when its bucket holds one
///   cluster (the common case on panels with few distinct rows);
/// * every later leader is copied once, when it founds its cluster, into
///   a transposed 8-lane tile of its bucket, and a vector is compared
///   with a whole tile in one pass; the first lane within the radius
///   wins. Lanes and tiles follow founding order, and each lane
///   reproduces the one-at-a-time distance's summation order exactly, so
///   the first match is the one the allocating path's scan finds.
#[derive(Debug, Default)]
pub struct ClusterScratch {
    /// Signatures computed by [`ClusterScratch::cluster`].
    sigs: Vec<Signature>,
    sig_scratch: SigScratch,
    /// Bucket table; the walk uses its first `table_len(n)` slots.
    table: Vec<Slot>,
    /// Generation of the current walk: a slot is live iff its stamp
    /// equals this (never 0 during a walk, so fresh slots are empty).
    stamp: u32,
    tiles: Vec<Tile>,
    /// Tile elements, `l` per tile, transposed (element `t` of every
    /// lane's leader in `tile_data[tile * l + t]`).
    tile_data: Vec<Lanes>,
    leaders: Vec<usize>,
    assignments: Vec<usize>,
    sizes: Vec<usize>,
}

/// One signature bucket of [`ClusterScratch`]'s table.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    sig: u64,
    /// Walk generation that claimed the slot.
    stamp: u32,
    /// The bucket's first cluster, whose leader is compared in place.
    first: u32,
    /// First and last tile of the bucket's later leaders (`NO_TILE` when
    /// it has none).
    head: u32,
    tail: u32,
}

/// Up to [`LANES`] later leaders of one bucket, in founding order.
#[derive(Debug, Clone, Copy)]
struct Tile {
    /// Cluster id of each lane.
    ids: [u32; LANES],
    /// Lanes in use.
    fill: u32,
    /// The bucket's next tile, or `NO_TILE`.
    next: u32,
}

/// End-of-chain marker for [`Slot`] and [`Tile`] links.
const NO_TILE: u32 = u32::MAX;

/// Marks a leader not yet located by [`ClusterScratch::restore`].
const NONE: usize = usize::MAX;

/// Fibonacci-hashing multiplier (2^64 / φ): spreads the low signature
/// bits over the high bits the table index is taken from.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bucket-table slots for `n` vectors: a power of two at least `2n`, so
/// the load factor stays at or below one half.
fn table_len(n: usize) -> usize {
    (2 * n).next_power_of_two().max(16)
}

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
        let mut sigs = std::mem::take(&mut self.sigs);
        {
            let _hash = greuse_telemetry::span!("lsh.hash");
            family.hash_rows_into(data, n, &mut sigs, &mut self.sig_scratch)?;
        }
        let tau = {
            let row = |i: usize| &data[i * l..(i + 1) * l];
            refine_threshold(mean_norm_rows(n, row), family.h())
        };
        self.group(data, l, &sigs, tau, Tier::detect());
        self.sigs = sigs;
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
        self.group(data, l, sigs, tau, Tier::detect());
        Ok(())
    }

    /// The single-pass leader walk over `sigs` (one per row of `data`) —
    /// shared by the hashing and presigned entry points. Telemetry span:
    /// `lsh.group`.
    ///
    /// # Panics
    ///
    /// Panics if there are `u32::MAX` or more rows.
    fn group(&mut self, data: &[f32], l: usize, sigs: &[Signature], tau: f32, tier: Tier) {
        let _group = greuse_telemetry::span!("lsh.group");
        #[cfg(target_arch = "x86_64")]
        if tier == Tier::Avx2 {
            // SAFETY: AVX2 was detected when `tier` was chosen.
            return unsafe { self.walk_avx2(data, l, sigs, tau) };
        }
        self.walk(data, l, sigs, tau, tier);
    }

    /// [`ClusterScratch::walk`] compiled for AVX2, so the distance
    /// kernels inline into the loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn walk_avx2(&mut self, data: &[f32], l: usize, sigs: &[Signature], tau: f32) {
        self.walk(data, l, sigs, tau, Tier::Avx2);
    }

    /// The walk itself, for one `tier`; inlined into both tier entry
    /// points so each gets its own copy of the loop.
    #[inline(always)]
    fn walk(&mut self, data: &[f32], l: usize, sigs: &[Signature], tau: f32, tier: Tier) {
        let n = sigs.len();
        assert!(n < NO_TILE as usize, "ClusterScratch: too many vectors");
        debug_assert_eq!(data.len(), n * l);
        let row = |i: usize| &data[i * l..(i + 1) * l];
        let tau2 = tau * tau;
        let cap = table_len(n);
        if self.table.len() < cap {
            self.table.resize(cap, Slot::default());
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.table.iter_mut().for_each(|s| s.stamp = 0);
            self.stamp = 1;
        }
        let ClusterScratch {
            table,
            stamp,
            tiles,
            tile_data,
            leaders,
            assignments,
            sizes,
            ..
        } = self;
        let (table, stamp) = (&mut table[..cap], *stamp);
        let shift = 64 - cap.trailing_zeros();
        tiles.clear();
        leaders.clear();
        sizes.clear();
        assignments.clear();
        for (i, &sig) in sigs.iter().enumerate() {
            let x = row(i);
            let mut at = (sig.0.wrapping_mul(FIB) >> shift) as usize;
            while table[at].stamp == stamp && table[at].sig != sig.0 {
                at = (at + 1) & (cap - 1);
            }
            let slot = &mut table[at];
            let c = if slot.stamp != stamp {
                *slot = Slot {
                    sig: sig.0,
                    stamp,
                    first: leaders.len() as u32,
                    head: NO_TILE,
                    tail: NO_TILE,
                };
                leaders.len()
            } else if dist2(tier, row(leaders[slot.first as usize]), x) <= tau2 {
                slot.first as usize
            } else {
                // Later leaders, tile by tile in founding order.
                let mut found = None;
                let mut t = slot.head;
                while t != NO_TILE {
                    let tile = &tiles[t as usize];
                    let lanes = &tile_data[t as usize * l..][..l];
                    let hits = tile_within(tier, lanes, x, tau2) & ((1 << tile.fill) - 1);
                    if hits != 0 {
                        found = Some(tile.ids[hits.trailing_zeros() as usize] as usize);
                        break;
                    }
                    t = tile.next;
                }
                found.unwrap_or_else(|| {
                    // `x` founds a cluster: copy it into the bucket's
                    // last tile, opening a new one when that is full.
                    let c = leaders.len();
                    if slot.tail == NO_TILE || tiles[slot.tail as usize].fill == LANES as u32 {
                        let t = tiles.len() as u32;
                        tiles.push(Tile {
                            ids: [0; LANES],
                            fill: 0,
                            next: NO_TILE,
                        });
                        match slot.tail {
                            NO_TILE => slot.head = t,
                            tail => tiles[tail as usize].next = t,
                        }
                        slot.tail = t;
                        if tile_data.len() < tiles.len() * l {
                            tile_data.resize(tiles.len() * l, Lanes::default());
                        }
                    }
                    let tile = &mut tiles[slot.tail as usize];
                    let lane = tile.fill as usize;
                    tile.ids[lane] = c as u32;
                    tile.fill += 1;
                    let lanes = &mut tile_data[slot.tail as usize * l..][..l];
                    for (dst, &v) in lanes.iter_mut().zip(x) {
                        dst.0[lane] = v;
                    }
                    c
                })
            };
            if c == leaders.len() {
                leaders.push(i);
                sizes.push(0);
            }
            sizes[c] += 1;
            assignments.push(c);
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
    Ok(cluster_refined(
        &sigs,
        |r| vectors[r].as_slice(),
        tau,
        Tier::detect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prop_assert_eq;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// How [`walk_rows`] draws the bulk of its rows.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Rows {
        /// Jittered prototypes.
        Jittered,
        /// Small integers: distances are exact in every summation order,
        /// so integer radii hit `dist2 == tau²` ties.
        Integers,
        /// Small integers with an occasional ±4096 element: a square of
        /// 2^24 absorbs or keeps the small terms depending on when they
        /// are added, so the summation order decides ties at
        /// `tau = 4096`.
        Magnitudes,
    }

    /// `n` rows of length `l` for the walk property, drawn as `rows`
    /// says. About one row in four is a duplicate of an earlier row, all
    /// `-0.0`, or holds a NaN or an infinity.
    fn walk_rows(n: usize, l: usize, rows: Rows, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let protos: Vec<f32> = (0..4 * l).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut data: Vec<f32> = Vec::with_capacity(n * l);
        for i in 0..n {
            let row: Vec<f32> = match rng.gen_range(0..16u32) {
                0 if i > 0 => {
                    let j = rng.gen_range(0..i);
                    data[j * l..(j + 1) * l].to_vec()
                }
                1 => vec![-0.0; l],
                2 | 3 => {
                    let mut r = vec![0.5; l];
                    r[rng.gen_range(0..l)] = if i % 2 == 0 { f32::NAN } else { f32::INFINITY };
                    r
                }
                _ if rows == Rows::Integers => {
                    (0..l).map(|_| rng.gen_range(-2i32..=2) as f32).collect()
                }
                _ if rows == Rows::Magnitudes => (0..l)
                    .map(|_| match rng.gen_range(0..12u32) {
                        0 => 4096.0,
                        1 => -4096.0,
                        _ => rng.gen_range(-1i32..=1) as f32,
                    })
                    .collect(),
                _ => {
                    let p = rng.gen_range(0..4usize);
                    let jitter = rng.gen_range(0.0f32..0.8);
                    (0..l)
                        .map(|t| protos[p * l + t] + rng.gen_range(-jitter..=jitter))
                        .collect()
                }
            };
            data.extend_from_slice(&row);
        }
        data
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The blocked walk (flat table, first leader in place, later
        /// leaders in 8-lane tiles) equals the one-leader-at-a-time
        /// reference bit for bit, on the AVX2 tier where the CPU has it
        /// and on the portable tier always. `buckets > 0` replaces the
        /// hashed signatures with that many buckets, so buckets hold far
        /// more than 16 leaders.
        #[test]
        fn blocked_walk_matches_reference(
            l in proptest::sample::select(vec![1usize, 2, 3, 4, 5, 6, 7, 8, 9, 16, 25, 31, 32, 33]),
            h in proptest::sample::select(vec![1usize, 4, 8, 16, 64]),
            n in 1usize..400,
            rows in proptest::sample::select(vec![Rows::Jittered, Rows::Integers, Rows::Magnitudes]),
            buckets in 0u64..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let data = walk_rows(n, l, rows, seed);
            let row = |i: usize| &data[i * l..(i + 1) * l];
            let mut frng = SmallRng::seed_from_u64(seed ^ 0x5EED);
            let family = HashFamily::random(h, l, &mut frng);
            let x = Tensor::from_vec(data.clone(), &[n, l]).unwrap();
            let mut sigs = family.hash_rows(&x).unwrap();
            if buckets > 0 {
                let mut brng = SmallRng::seed_from_u64(seed);
                sigs.iter_mut().for_each(|s| *s = Signature(brng.gen_range(0..buckets)));
            }
            let tau = match rows {
                Rows::Integers => (1 + seed % 3) as f32,
                Rows::Magnitudes => 4096.0,
                Rows::Jittered => {
                    let finite = |i: usize| row(i).iter().all(|v| v.is_finite());
                    let clean: Vec<usize> = (0..n).filter(|&i| finite(i)).collect();
                    let norm = mean_norm_rows(clean.len(), |i| row(clean[i]));
                    refine_threshold(norm, h)
                }
            };
            let mut tiers = vec![Tier::Portable];
            if Tier::detect() == Tier::Avx2 {
                tiers.push(Tier::Avx2);
            }
            let mut scratch = ClusterScratch::new();
            for tier in tiers {
                let want = cluster_refined(&sigs, row, tau, tier);
                // A different panel first, so stale table and tile state
                // from an earlier walk is in place.
                let other = walk_rows(n / 2 + 1, l, Rows::Integers, !seed);
                let other_sigs = vec![Signature(1); n / 2 + 1];
                scratch.group(&other, l, &other_sigs, 1.0, tier);
                scratch.group(&data, l, &sigs, tau, tier);
                prop_assert_eq!((tier, scratch.assignments()), (tier, want.assignments()));
                prop_assert_eq!((tier, scratch.sizes()), (tier, &want.sizes()[..]));
            }
        }
    }

    #[test]
    fn blocked_walk_finds_late_leaders_of_one_bucket() {
        // 40 leaders in one bucket, pairwise far apart (five tiles after
        // the first leader), then every leader again in reverse order:
        // each repeat must land on its own leader, in lane order.
        let l = 9;
        let mut data: Vec<f32> = (0..40 * l).map(|i| ((i / l) * 10 + i % l) as f32).collect();
        let repeats: Vec<f32> = data.chunks(l).rev().flatten().copied().collect();
        data.extend_from_slice(&repeats);
        let sigs = vec![Signature(3); 80];
        let row = |i: usize| &data[i * l..(i + 1) * l];
        for tier in [Tier::Portable, Tier::detect()] {
            let mut scratch = ClusterScratch::new();
            scratch.group(&data, l, &sigs, 1.0, tier);
            assert_eq!(scratch.num_clusters(), 40, "{tier:?}");
            let want: Vec<usize> = (0..40).chain((0..40).rev()).collect();
            assert_eq!(scratch.assignments(), &want[..], "{tier:?}");
            let reference = cluster_refined(&sigs, row, 1.0, tier);
            assert_eq!(scratch.assignments(), reference.assignments(), "{tier:?}");
        }
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
