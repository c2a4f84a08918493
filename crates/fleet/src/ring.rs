//! The consistent-hash ring: model-id → replica set.
//!
//! Each shard contributes [`VNODES_PER_SHARD`] pseudo-random
//! points ("virtual nodes") on a `u64` ring; a key hashes to a point
//! and its replica set is the first R *distinct* shards found walking
//! clockwise. Virtual nodes smooth the per-shard key share (relative
//! spread shrinks like `1/sqrt(vnodes)` — at 256 the load
//! of every shard sits within a few percent of uniform), and the
//! clockwise-walk construction gives **minimal movement**: adding a
//! shard only moves keys *onto* it (those whose walk now meets the new
//! shard's points first), and removing a shard only moves keys that
//! lived *on* it. Everything else stays put — no fleet-wide reshuffle
//! on membership change.
//!
//! Hashes are deterministic functions of the ring seed, the shard
//! index, and the key bytes ([`af_resilience::SplitMix64`] finalizing
//! an FNV-1a stream), so every router instance that shares a seed
//! computes the identical placement — routing needs no coordination.

use af_resilience::SplitMix64;

/// Virtual nodes each shard contributes.
pub const VNODES_PER_SHARD: usize = 256;

/// Hash-domain tags (see `af_resilience::SplitMix64::for_element`).
const DOMAIN_VNODE: u64 = 0xF1EE_7B0D;
const DOMAIN_KEY: u64 = 0x0F1E_E4E1;

/// FNV-1a over the key bytes — a stable, dependency-free string hash;
/// its output is finalized through SplitMix64 so near-identical ids
/// still land on far-apart ring points.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A consistent-hash ring over shard indexes.
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    /// Sorted `(point, shard)` pairs — the ring itself.
    points: Vec<(u64, usize)>,
    /// Member shards, ascending.
    shards: Vec<usize>,
}

impl HashRing {
    /// An empty ring hashing under `seed`.
    pub fn with_seed(seed: u64) -> HashRing {
        HashRing {
            seed,
            points: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// Member shards, ascending.
    pub fn shards(&self) -> &[usize] {
        &self.shards
    }

    /// Number of member shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Add `shard` to the ring. Returns `false` (and changes nothing)
    /// if it is already a member.
    pub fn add_shard(&mut self, shard: usize) -> bool {
        if self.shards.contains(&shard) {
            return false;
        }
        for v in 0..VNODES_PER_SHARD {
            let ix = ((shard as u64) << 32) | v as u64;
            let point = SplitMix64::for_element(self.seed, DOMAIN_VNODE, ix).next_u64();
            self.points.push((point, shard));
        }
        // Sort by point; a (vanishingly unlikely) point collision breaks
        // the tie by shard index so iteration order stays total.
        self.points.sort_unstable();
        self.shards.push(shard);
        self.shards.sort_unstable();
        true
    }

    /// Remove `shard` from the ring. Returns `false` if it was not a
    /// member.
    pub fn remove_shard(&mut self, shard: usize) -> bool {
        if !self.shards.contains(&shard) {
            return false;
        }
        self.points.retain(|&(_, s)| s != shard);
        self.shards.retain(|&s| s != shard);
        true
    }

    /// The ring point a key hashes to.
    fn key_point(&self, key: &str) -> u64 {
        SplitMix64::for_element(self.seed, DOMAIN_KEY, fnv1a(key.as_bytes())).next_u64()
    }

    /// The first `r` distinct shards walking clockwise from the key's
    /// point — primary first. Fewer than `r` members yields all of
    /// them; an empty ring yields an empty vector.
    pub fn replicas(&self, key: &str, r: usize) -> Vec<usize> {
        let want = r.min(self.shards.len());
        let mut out = Vec::with_capacity(want);
        if want == 0 {
            return out;
        }
        let point = self.key_point(key);
        let start = self.points.partition_point(|&(p, _)| p < point);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The primary shard for a key (`None` on an empty ring).
    pub fn primary(&self, key: &str) -> Option<usize> {
        self.replicas(key, 1).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_membership_idempotent() {
        let mut a = HashRing::with_seed(7);
        let mut b = HashRing::with_seed(7);
        for s in 0..4 {
            assert!(a.add_shard(s));
            assert!(b.add_shard(s));
        }
        assert!(!a.add_shard(2), "re-add is a no-op");
        for k in 0..64 {
            let key = format!("model/{k}");
            assert_eq!(a.replicas(&key, 2), b.replicas(&key, 2));
        }
        assert!(a.remove_shard(1));
        assert!(!a.remove_shard(1));
        assert_eq!(a.shards(), &[0, 2, 3]);
    }

    #[test]
    fn replicas_are_distinct_and_capped_by_membership() {
        let mut ring = HashRing::with_seed(3);
        ring.add_shard(10);
        ring.add_shard(20);
        ring.add_shard(30);
        let reps = ring.replicas("some/model", 5);
        assert_eq!(reps.len(), 3, "capped at membership");
        let mut sorted = reps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "no duplicate shards in a replica set");
        assert_eq!(ring.primary("some/model"), Some(reps[0]));
        assert!(HashRing::with_seed(0).replicas("x", 2).is_empty());
        assert_eq!(HashRing::with_seed(0).primary("x"), None);
    }

    #[test]
    fn different_seeds_give_different_placements() {
        let mut a = HashRing::with_seed(1);
        let mut b = HashRing::with_seed(2);
        for s in 0..8 {
            a.add_shard(s);
            b.add_shard(s);
        }
        let diff = (0..256)
            .filter(|k| {
                let key = format!("m/{k}");
                a.primary(&key) != b.primary(&key)
            })
            .count();
        assert!(diff > 64, "only {diff}/256 keys placed differently");
    }
}
