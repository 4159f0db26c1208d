//! The Accounting Cache proper.

use std::error::Error;
use std::fmt;

/// Largest associativity supported (the adaptive D/L2 pair reaches 8 ways).
pub const MAX_WAYS: usize = 8;

/// Read or write access. Writes mark the line dirty so that evictions can
/// be counted as writebacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load or instruction fetch.
    Read,
    /// A store (or a dirty fill from a lower level).
    Write,
}

/// Which partition served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Hit in the A partition (fast path, `a_cycles` latency).
    APartition,
    /// Hit in the B partition (second probe; block swapped into A).
    BPartition,
    /// Miss in all active ways; the next memory level must service it.
    Miss,
}

/// Outcome of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Which partition served the access.
    pub served: ServedBy,
    /// Whether a dirty block was evicted (writeback traffic to the next
    /// level). Only possible when `served` is [`ServedBy::Miss`].
    pub victim_writeback: bool,
    /// MRU position of the block *before* this access (`None` on miss).
    /// Position 0 is most recently used. This is the quantity the
    /// accounting machinery counts.
    pub mru_position: Option<u8>,
}

/// Errors from cache construction or reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Geometry is not a power-of-two set count or exceeds `MAX_WAYS`.
    BadGeometry(String),
    /// Requested A-partition width is zero or exceeds the physical ways.
    BadPartition {
        /// Requested width.
        requested: u32,
        /// Physical ways available.
        physical: u32,
    },
    /// Attempted to resize a fixed-configuration (B-disabled) cache.
    FixedConfiguration,
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::BadGeometry(msg) => write!(f, "bad cache geometry: {msg}"),
            CacheConfigError::BadPartition {
                requested,
                physical,
            } => write!(
                f,
                "bad A partition: {requested} ways requested of {physical} physical"
            ),
            CacheConfigError::FixedConfiguration => {
                f.write_str("cache was built with a fixed configuration")
            }
        }
    }
}

impl Error for CacheConfigError {}

/// Per-interval accounting state: hits by MRU position, misses, traffic.
///
/// §3.1: "Simple counts of the number of blocks accessed in each MRU state
/// are sufficient to reconstruct the precise number of hits and misses to
/// the A and B partitions for all possible cache configurations, regardless
/// of the current configuration."
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccountingStats {
    /// `pos_hits[p]` counts accesses that hit a block whose MRU position
    /// was `p` at access time.
    pub pos_hits: [u64; MAX_WAYS],
    /// Accesses that missed in every active way.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
    /// Total accesses.
    pub accesses: u64,
}

impl AccountingStats {
    /// Hits that an `a`-way A partition would have served.
    pub fn hits_in_a(&self, a_ways: u32) -> u64 {
        self.pos_hits[..(a_ways as usize).min(MAX_WAYS)]
            .iter()
            .sum()
    }

    /// Hits that would fall to the B partition under an `a`-way A
    /// partition with `total` active ways.
    pub fn hits_in_b(&self, a_ways: u32, total_ways: u32) -> u64 {
        let a = (a_ways as usize).min(MAX_WAYS);
        let t = (total_ways as usize).min(MAX_WAYS);
        self.pos_hits[a..t].iter().sum()
    }

    /// Total hits across all active ways.
    pub fn total_hits(&self) -> u64 {
        self.pos_hits.iter().sum()
    }

    /// Merges another interval's counts into this one.
    pub fn merge(&mut self, other: &AccountingStats) {
        for (a, b) in self.pos_hits.iter_mut().zip(other.pos_hits) {
            *a += b;
        }
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.accesses += other.accesses;
    }
}

/// Sentinel in `set_index` for a set that has never been accessed.
const NO_SET: u32 = u32::MAX;

/// Identity MRU permutation: nibble `p` holds slot `p` (`0x7654_3210`).
const MRU_IDENTITY: u32 = 0x7654_3210;

/// Per-set recency and state record, 8 bytes:
///
/// * `mru` — the recency permutation as 4-bit slot nibbles; nibble `p`
///   (bits `4p..4p+4`) is the slot at MRU position `p`. Only the low
///   `physical_ways` nibbles are meaningful.
/// * `valid` / `dirty` — per-slot bitmasks.
///
/// The tag words live in separate flat arrays strided by the *physical*
/// associativity (not [`MAX_WAYS`]), so a direct-mapped cache pays 4 B of
/// partial tag per set instead of 32.
#[derive(Debug, Clone, Copy)]
struct SetMeta {
    mru: u32,
    valid: u8,
    dirty: u8,
}

impl SetMeta {
    fn fresh(physical_ways: usize) -> Self {
        // Nibbles at positions >= physical_ways are never read or moved
        // (promotion only permutes the prefix up to the hit position), so
        // masking the identity keeps the permutation check simple.
        let used_bits = 4 * physical_ways;
        let mask = if used_bits >= 32 {
            u32::MAX
        } else {
            (1u32 << used_bits) - 1
        };
        SetMeta {
            mru: MRU_IDENTITY & mask,
            valid: 0,
            dirty: 0,
        }
    }

    /// Slot at MRU position `pos`.
    #[inline]
    fn slot_at(self, pos: usize) -> u32 {
        (self.mru >> (4 * pos)) & 0xF
    }

    /// Moves the slot at `pos` to MRU position 0, shifting positions
    /// `0..pos` up by one — the nibble-packed equivalent of the old
    /// `mru.copy_within(base..base + pos, base + 1)` byte rotate.
    #[inline]
    fn promote(&mut self, pos: usize) {
        let slot = self.slot_at(pos);
        let low_mask = (1u32 << (4 * pos)) - 1;
        let shifted = (self.mru & low_mask) << 4;
        let kept_shift = 4 * (pos + 1);
        let kept = if kept_shift >= 32 {
            0
        } else {
            (self.mru >> kept_shift) << kept_shift
        };
        self.mru = kept | shifted | slot;
    }
}

/// A way-partitioned set-associative cache with full-MRU accounting.
///
/// See the [crate docs](crate) for the model. Constructed either in
/// **phase mode** (`b_enabled = true`: all physical ways active, A/B
/// boundary movable at run time) or **fixed mode** (`b_enabled = false`:
/// only `a_ways` ways exist; an A miss goes straight to the next level —
/// used for the fully synchronous and program-adaptive machines, §3).
///
/// Storage is struct-of-arrays and lazily allocated per set: `set_index`
/// maps a set to its dense record (or `NO_SET`), so a 32K-set L2 model
/// only pays resident bytes for sets the run actually touches. Tags are
/// split into a hot packed-u32 partial array and a cold high-bits array
/// consulted only on partial match — exact, not probabilistic — and both
/// arrays are strided by the physical associativity, so a direct-mapped
/// cache pays 1 tag word per set, not [`MAX_WAYS`].
#[derive(Clone)]
pub struct AccountingCache {
    sets: usize,
    set_mask: u64,
    line_shift: u32,
    physical_ways: usize,
    a_ways: usize,
    b_enabled: bool,
    /// Set → index into `meta` (and × `physical_ways` into the tag
    /// arrays), or [`NO_SET`] until first touch.
    set_index: Box<[u32]>,
    /// Dense per-set MRU/valid/dirty records, in first-touch order.
    meta: Vec<SetMeta>,
    /// Hot low 32 tag bits, `physical_ways` words per touched set.
    partial: Vec<u32>,
    /// Cold high 32 tag bits, parallel to `partial`.
    hi: Vec<u32>,
    stats: AccountingStats,
}

impl fmt::Debug for AccountingCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccountingCache")
            .field("sets", &self.sets)
            .field("physical_ways", &self.physical_ways)
            .field("a_ways", &self.a_ways)
            .field("b_enabled", &self.b_enabled)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl AccountingCache {
    /// Creates a cache.
    ///
    /// * `total_bytes` — capacity across all *physical* ways.
    /// * `ways` — physical associativity (1–8).
    /// * `line_bytes` — power-of-two line size.
    /// * `a_ways` — initial A-partition width (1–`ways`).
    /// * `b_enabled` — phase mode (see type docs).
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if the geometry is not a power of two,
    /// `ways` exceeds [`MAX_WAYS`], or the partition is out of range.
    pub fn new(
        total_bytes: u64,
        ways: u32,
        line_bytes: u64,
        a_ways: u32,
        b_enabled: bool,
    ) -> Result<Self, CacheConfigError> {
        if ways == 0 || ways as usize > MAX_WAYS {
            return Err(CacheConfigError::BadGeometry(format!(
                "{ways} ways (1-{MAX_WAYS} supported)"
            )));
        }
        if !line_bytes.is_power_of_two() {
            return Err(CacheConfigError::BadGeometry(format!(
                "line size {line_bytes} not a power of two"
            )));
        }
        if a_ways == 0 || a_ways > ways {
            return Err(CacheConfigError::BadPartition {
                requested: a_ways,
                physical: ways,
            });
        }
        let way_bytes = total_bytes / ways as u64;
        if way_bytes == 0 || !way_bytes.is_multiple_of(line_bytes) {
            return Err(CacheConfigError::BadGeometry(format!(
                "way capacity {way_bytes} not a multiple of line size"
            )));
        }
        let sets = (way_bytes / line_bytes) as usize;
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::BadGeometry(format!(
                "{sets} sets is not a power of two"
            )));
        }
        let physical_ways = ways as usize;
        Ok(AccountingCache {
            sets,
            set_mask: sets as u64 - 1,
            line_shift: line_bytes.trailing_zeros(),
            physical_ways,
            a_ways: a_ways as usize,
            b_enabled,
            set_index: vec![NO_SET; sets].into_boxed_slice(),
            meta: Vec::new(),
            partial: Vec::new(),
            hi: Vec::new(),
            stats: AccountingStats::default(),
        })
    }

    /// Number of ways an access may hit in: all physical ways in phase
    /// mode, only the A partition in fixed mode.
    #[inline]
    fn active_ways(&self) -> usize {
        if self.b_enabled {
            self.physical_ways
        } else {
            self.a_ways
        }
    }

    /// Current A-partition width in ways.
    pub fn a_ways(&self) -> u32 {
        self.a_ways as u32
    }

    /// Physical associativity.
    pub fn physical_ways(&self) -> u32 {
        self.physical_ways as u32
    }

    /// Number of sets per way.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Whether the B partition is active (phase mode).
    pub fn b_enabled(&self) -> bool {
        self.b_enabled
    }

    /// Moves the A/B boundary (phase mode only). Contents are unaffected —
    /// the split is purely logical, which is why reconfiguration carries no
    /// flush cost in the paper.
    ///
    /// # Errors
    ///
    /// [`CacheConfigError::FixedConfiguration`] in fixed mode;
    /// [`CacheConfigError::BadPartition`] if out of range.
    pub fn set_a_ways(&mut self, a_ways: u32) -> Result<(), CacheConfigError> {
        if !self.b_enabled {
            return Err(CacheConfigError::FixedConfiguration);
        }
        if a_ways == 0 || a_ways as usize > self.physical_ways {
            return Err(CacheConfigError::BadPartition {
                requested: a_ways,
                physical: self.physical_ways as u32,
            });
        }
        self.a_ways = a_ways as usize;
        Ok(())
    }

    // lint:hot — `access` runs once per icache fetch group, load, store,
    // and L2 fill in the simulator's per-edge loop. The lazy set arrays
    // (PR 7) grow through amortized `push`/`resize` doubling, O(log sets)
    // events per run; nothing in the access path may allocate per call.

    /// Dense index of `set`, allocating its records on first touch.
    #[inline]
    fn touch_set(&mut self, set: usize) -> usize {
        let si = self.set_index[set];
        if si != NO_SET {
            return si as usize;
        }
        let si = self.meta.len();
        self.meta.push(SetMeta::fresh(self.physical_ways));
        self.partial
            .resize(self.partial.len() + self.physical_ways, 0);
        self.hi.resize(self.hi.len() + self.physical_ways, 0);
        self.set_index[set] = si as u32;
        si
    }

    /// Performs one access, updating contents, MRU state, and accounting.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.sets.trailing_zeros();
        let partial = tag as u32;
        let high = (tag >> 32) as u32;
        let ways = self.active_ways();
        let si = self.touch_set(set);

        self.stats.accesses += 1;

        // Search the active ways in MRU order so the hit position falls
        // out of the search itself. The packed partial tags keep the whole
        // scan inside one `physical_ways`-word stripe; the cold high bits
        // are consulted only to confirm a partial match.
        let base = si * self.physical_ways;
        let rec = &mut self.meta[si];
        let mut hit_pos: Option<usize> = None;
        for pos in 0..ways {
            let slot = rec.slot_at(pos) as usize;
            if rec.valid & (1 << slot) != 0
                && self.partial[base + slot] == partial
                && self.hi[base + slot] == high
            {
                hit_pos = Some(pos);
                break;
            }
        }

        match hit_pos {
            Some(pos) => {
                self.stats.pos_hits[pos] += 1;
                let slot = rec.slot_at(pos);
                // Move to MRU front (models the A<->B swap on B hits).
                rec.promote(pos);
                if kind == AccessKind::Write {
                    rec.dirty |= 1 << slot;
                }
                let served = if pos < self.a_ways {
                    ServedBy::APartition
                } else {
                    ServedBy::BPartition
                };
                AccessResult {
                    served,
                    victim_writeback: false,
                    mru_position: Some(pos as u8),
                }
            }
            None => {
                self.stats.misses += 1;
                // Victim: LRU among the active ways.
                let victim_pos = ways - 1;
                let slot = rec.slot_at(victim_pos);
                let bit = 1u8 << slot;
                let victim_writeback = rec.valid & rec.dirty & bit != 0;
                if victim_writeback {
                    self.stats.writebacks += 1;
                }
                self.partial[base + slot as usize] = partial;
                self.hi[base + slot as usize] = high;
                rec.valid |= bit;
                if kind == AccessKind::Write {
                    rec.dirty |= bit;
                } else {
                    rec.dirty &= !bit;
                }
                rec.promote(victim_pos);
                AccessResult {
                    served: ServedBy::Miss,
                    victim_writeback,
                    mru_position: None,
                }
            }
        }
    }

    // lint:endhot

    /// Probes for presence without updating any state (for tests and
    /// assertions).
    pub fn contains(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.sets.trailing_zeros();
        let si = self.set_index[set];
        if si == NO_SET {
            return false;
        }
        let si = si as usize;
        let base = si * self.physical_ways;
        let rec = self.meta[si];
        (0..self.active_ways()).any(|pos| {
            let slot = rec.slot_at(pos) as usize;
            rec.valid & (1 << slot) != 0
                && self.partial[base + slot] == tag as u32
                && self.hi[base + slot] == (tag >> 32) as u32
        })
    }

    /// Accumulated accounting since the last [`AccountingCache::take_stats`].
    pub fn stats(&self) -> &AccountingStats {
        &self.stats
    }

    /// Returns and resets the interval counters (the controller does this
    /// at the end of every 15K-instruction interval).
    pub fn take_stats(&mut self) -> AccountingStats {
        std::mem::take(&mut self.stats)
    }

    /// Invariant check used by property tests: every touched set's MRU
    /// nibbles are a permutation of the physical slots (untouched sets
    /// hold the identity by construction).
    pub fn mru_is_permutation(&self) -> bool {
        self.meta.iter().all(|rec| {
            let mut seen = [false; MAX_WAYS];
            for pos in 0..self.physical_ways {
                let slot = rec.slot_at(pos) as usize;
                if slot >= self.physical_ways || seen[slot] {
                    return false;
                }
                seen[slot] = true;
            }
            true
        })
    }

    /// Number of sets that have been touched (lazily allocated).
    pub fn touched_sets(&self) -> usize {
        self.meta.len()
    }

    /// Heap bytes currently resident for this cache's content model
    /// (set index + per-set records + both strided tag arrays; excludes
    /// `self` and the interval counters).
    pub fn resident_bytes(&self) -> usize {
        self.set_index.len() * size_of::<u32>()
            + self.meta.capacity() * size_of::<SetMeta>()
            + (self.partial.capacity() + self.hi.capacity()) * size_of::<u32>()
    }

    /// Heap bytes the pre-PR 7 eager AoS layout would hold resident for
    /// the same geometry (`sets × ways` 16-byte `Line { tag: u64, valid,
    /// dirty }` slots plus one MRU byte per line), for the `--mem` bench
    /// comparison.
    pub fn eager_layout_bytes(&self) -> usize {
        // Line was { tag: u64, valid: bool, dirty: bool } -> 16 B padded.
        self.sets * self.physical_ways * (16 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(a_ways: u32, b_enabled: bool) -> AccountingCache {
        // 4 sets x 4 ways x 64B lines = 1 KB.
        AccountingCache::new(1024, 4, 64, a_ways, b_enabled).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(AccountingCache::new(1024, 0, 64, 1, true).is_err());
        assert!(AccountingCache::new(1024, 16, 64, 1, true).is_err());
        assert!(AccountingCache::new(1024, 4, 48, 1, true).is_err());
        assert!(AccountingCache::new(1024, 4, 64, 0, true).is_err());
        assert!(AccountingCache::new(1024, 4, 64, 5, true).is_err());
        // 3-way geometry -> 1024/3 not a multiple of 64.
        assert!(AccountingCache::new(1024, 3, 64, 1, true).is_err());
        assert!(small_cache(2, true).mru_is_permutation());
    }

    #[test]
    fn miss_then_a_hit() {
        let mut c = small_cache(1, true);
        assert_eq!(c.access(0x0, AccessKind::Read).served, ServedBy::Miss);
        assert_eq!(c.access(0x0, AccessKind::Read).served, ServedBy::APartition);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().pos_hits[0], 1);
    }

    #[test]
    fn b_hit_swaps_into_a() {
        let mut c = small_cache(1, true);
        // Two lines in the same set (set stride = 4 sets * 64 B = 256 B).
        c.access(0x0, AccessKind::Read); // A: {0}
        c.access(0x100, AccessKind::Read); // A: {100}, B: {0}
        let r = c.access(0x0, AccessKind::Read);
        assert_eq!(r.served, ServedBy::BPartition);
        assert_eq!(r.mru_position, Some(1));
        // After the swap, 0x0 is back in A.
        assert_eq!(c.access(0x0, AccessKind::Read).served, ServedBy::APartition);
    }

    #[test]
    fn fixed_mode_skips_b() {
        let mut c = small_cache(1, false);
        c.access(0x0, AccessKind::Read);
        c.access(0x100, AccessKind::Read); // evicts 0x0: only 1 active way
        assert_eq!(c.access(0x0, AccessKind::Read).served, ServedBy::Miss);
        assert!(c.set_a_ways(2).is_err());
    }

    #[test]
    fn full_lru_replacement_over_active_ways() {
        let mut c = small_cache(2, true);
        // Fill all four physical ways of set 0.
        for i in 0..4u64 {
            c.access(i * 0x100, AccessKind::Read);
        }
        // Access the oldest -> it is still resident (B partition).
        assert_eq!(c.access(0x0, AccessKind::Read).served, ServedBy::BPartition);
        // A fifth line evicts the LRU (0x100 now).
        c.access(0x400, AccessKind::Read);
        assert_eq!(c.access(0x100, AccessKind::Read).served, ServedBy::Miss);
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = AccountingCache::new(256, 1, 64, 1, false).unwrap(); // 4 sets, 1 way
        c.access(0x0, AccessKind::Write);
        assert_eq!(c.stats().writebacks, 0);
        let r = c.access(0x100, AccessKind::Read); // evicts dirty 0x0
        assert!(r.victim_writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn repartition_preserves_contents() {
        let mut c = small_cache(1, true);
        for i in 0..4u64 {
            c.access(i * 0x100, AccessKind::Read);
        }
        c.set_a_ways(4).unwrap();
        for i in 0..4u64 {
            assert!(c.contains(i * 0x100));
            assert_eq!(
                c.access(i * 0x100, AccessKind::Read).served,
                ServedBy::APartition
            );
        }
    }

    #[test]
    fn stats_reconstruction_queries() {
        let s = AccountingStats {
            pos_hits: [10, 5, 3, 2, 0, 0, 0, 0],
            misses: 4,
            ..AccountingStats::default()
        };
        assert_eq!(s.hits_in_a(1), 10);
        assert_eq!(s.hits_in_a(2), 15);
        assert_eq!(s.hits_in_b(1, 4), 10);
        assert_eq!(s.hits_in_b(4, 4), 0);
        assert_eq!(s.total_hits(), 20);
        let mut t = s.clone();
        t.merge(&s);
        assert_eq!(t.total_hits(), 40);
        assert_eq!(t.misses, 8);
    }

    #[test]
    fn take_stats_resets() {
        let mut c = small_cache(1, true);
        c.access(0x0, AccessKind::Read);
        let s = c.take_stats();
        assert_eq!(s.accesses, 1);
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn mru_position_reported_before_promotion() {
        let mut c = small_cache(4, true);
        c.access(0x0, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        c.access(0x200, AccessKind::Read);
        // 0x0 is now at MRU position 2.
        let r = c.access(0x0, AccessKind::Read);
        assert_eq!(r.mru_position, Some(2));
        // And afterwards at position 0.
        let r = c.access(0x0, AccessKind::Read);
        assert_eq!(r.mru_position, Some(0));
    }
}
