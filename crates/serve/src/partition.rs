//! The pure half of the shard fabric: a deterministic map from a joint
//! query point `[x, θ]` to a shard index. No atomics, no locks — a
//! [`Partitioner`] is built once per attach/reshard and only read after.

/// FNV-1a over the joint point's bit patterns — the partitioner of last
/// resort (no prototypes to split yet), still deterministic per query.
fn hash_route(center: &[f64], radius: f64, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in center.iter().chain(std::iter::once(&radius)) {
        for b in c.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (h % shards.max(1) as u64) as usize
}

#[derive(Debug, Clone)]
pub(crate) enum KdNode {
    Leaf {
        shard: usize,
    },
    Split {
        dim: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Deterministic map from a joint query point `[x, θ]` to a shard.
#[derive(Debug, Clone)]
pub(crate) enum Partitioner {
    /// No spatial structure available: hash the joint point.
    Hash { shards: usize },
    /// kd-split of the joint space, built from the prototype set.
    Kd { nodes: Vec<KdNode> },
}

impl Partitioner {
    /// Build a kd-split putting roughly `len/shards` of `points` in each
    /// region. Degenerate inputs (too few points, zero spread) collapse
    /// branches into leaves early — some shards then simply stay empty.
    pub(crate) fn kd(points: &[Vec<f64>], shards: usize) -> Partitioner {
        if shards <= 1 || points.len() < 2 {
            return Partitioner::Hash {
                shards: shards.max(1),
            };
        }
        let mut nodes = Vec::new();
        let mut next_shard = 0usize;
        let mut pts: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        Self::build(&mut nodes, &mut pts, shards, &mut next_shard);
        Partitioner::Kd { nodes }
    }

    fn build(
        nodes: &mut Vec<KdNode>,
        pts: &mut [&[f64]],
        want: usize,
        next_shard: &mut usize,
    ) -> usize {
        let leaf = |nodes: &mut Vec<KdNode>, next_shard: &mut usize| {
            let id = nodes.len();
            nodes.push(KdNode::Leaf { shard: *next_shard });
            *next_shard += 1;
            id
        };
        if want <= 1 || pts.len() < 2 {
            return leaf(nodes, next_shard);
        }
        // Split the widest joint dimension; zero spread everywhere means
        // the points are indistinguishable — stop early.
        let d = pts[0].len();
        let (mut best_dim, mut best_spread) = (0usize, 0.0f64);
        for dim in 0..d {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for p in pts.iter() {
                lo = lo.min(p[dim]);
                hi = hi.max(p[dim]);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                best_dim = dim;
            }
        }
        if best_spread <= 0.0 {
            return leaf(nodes, next_shard);
        }
        let (nl, nr) = (want / 2, want - want / 2);
        pts.sort_unstable_by(|a, b| a[best_dim].total_cmp(&b[best_dim]));
        // Proportional cut, nudged off any run of ties so the threshold
        // genuinely separates the two sides (spread > 0 guarantees some
        // valid cut exists).
        let target = (pts.len() * nl / want).clamp(1, pts.len() - 1);
        let mut cut = None;
        for delta in 0..pts.len() {
            for cand in [target.saturating_sub(delta), target + delta] {
                if (1..pts.len()).contains(&cand) && pts[cand - 1][best_dim] < pts[cand][best_dim] {
                    cut = Some(cand);
                    break;
                }
            }
            if cut.is_some() {
                break;
            }
        }
        let Some(cut) = cut else {
            return leaf(nodes, next_shard);
        };
        let threshold = (pts[cut - 1][best_dim] + pts[cut][best_dim]) / 2.0;
        let id = nodes.len();
        nodes.push(KdNode::Leaf { shard: usize::MAX }); // placeholder
        let (lpts, rpts) = pts.split_at_mut(cut);
        let left = Self::build(nodes, lpts, nl, next_shard);
        let right = Self::build(nodes, rpts, nr, next_shard);
        nodes[id] = KdNode::Split {
            dim: best_dim,
            threshold,
            left,
            right,
        };
        id
    }

    pub(crate) fn route(&self, center: &[f64], radius: f64) -> usize {
        match self {
            Partitioner::Hash { shards } => hash_route(center, radius, *shards),
            Partitioner::Kd { nodes } => {
                let mut i = 0usize;
                loop {
                    match &nodes[i] {
                        KdNode::Leaf { shard } => return *shard,
                        KdNode::Split {
                            dim,
                            threshold,
                            left,
                            right,
                        } => {
                            let v = center.get(*dim).copied().unwrap_or(radius);
                            i = if v <= *threshold { *left } else { *right };
                        }
                    }
                }
            }
        }
    }
}

/// The joint point `[x, θ]` of a ball — what the kd-split partitions.
pub(crate) fn joint_point(center: &[f64], radius: f64) -> Vec<f64> {
    let mut p = Vec::with_capacity(center.len() + 1);
    p.extend_from_slice(center);
    p.push(radius);
    p
}
