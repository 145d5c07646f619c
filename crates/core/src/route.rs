//! Wire exclusivity of a configured chain: the one routing fact the
//! word-level engines read.
//!
//! The routing itself has one encoding, the paper's rule in
//! [`Cas::clock_in_place`](crate::Cas::clock_in_place): in TEST mode, bus
//! input `e_w` feeds core input `o_j`, core output `i_j` returns on `s_w`,
//! and every other wire bypasses. Between two configuration waves every
//! CAS keeps its mode and switch scheme, so whether a TEST CAS *owns* its
//! scheme wires is fixed for the wave. [`RouteTable::compile`] records that
//! flag per CAS. The compiled engines in `casbus-sim` take a lane's wires
//! from its active scheme and stream its session through the wrapper; they
//! need the flag only to know that no other core sits on those wires.
//!
//! [`WaveKey`] captures exactly the routing-relevant part of a configured
//! chain (bus width + per-CAS active scheme wires) and [`RouteTableCache`]
//! memoizes compilation behind it, thread-safe and with hit, miss, eviction
//! and high-water accounting for the serving metrics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::chain::CasChain;

/// Which TEST CASes of one configured [`CasChain`] own their scheme wires,
/// valid until the next configuration wave.
///
/// A TEST CAS is *independent* when no other TEST CAS claims any of its
/// scheme wires. Then each of its ports taps the chain-level bus input of
/// its wire, and its core output still drives that wire at the chain
/// output: the property a per-lane fast path needs. Serial wire sharing
/// (two TEST CASes concatenated on one wire) makes both dependent: the
/// upstream CAS's injection changes the downstream tap, and the downstream
/// injection overwrites the upstream output.
///
/// # Examples
///
/// ```
/// use casbus::{Cas, CasChain, CasGeometry, CasInstruction, RouteTable};
///
/// let cas = || Cas::for_geometry(CasGeometry::new(4, 1)?);
/// let mut chain = CasChain::new(vec![cas()?, cas()?])?;
/// let wire2 = chain.cases()[0].schemes().index_of(&[2]).unwrap();
/// chain.configure(&[CasInstruction::Test(wire2), CasInstruction::Bypass])?;
/// assert!(RouteTable::compile(&chain).is_independent(0));
///
/// // Both CASes on wire 2: their cores concatenate in series.
/// chain.configure(&[CasInstruction::Test(wire2), CasInstruction::Test(wire2)])?;
/// let routes = RouteTable::compile(&chain);
/// assert!(!routes.is_independent(0) && !routes.is_independent(1));
/// # Ok::<(), casbus::CasError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    /// Per CAS: in TEST mode, with no other TEST CAS on its wires.
    independent: Vec<bool>,
}

impl RouteTable {
    /// Computes the flags from the chain's *current* active instructions:
    /// every TEST CAS starts independent, and each wire that
    /// [`CasChain::shared_wires`] reports claimed twice clears the flag of
    /// every CAS claiming it.
    pub fn compile(chain: &CasChain) -> Self {
        let mut independent: Vec<bool> = chain
            .cases()
            .iter()
            .map(|cas| cas.test_scheme().is_some())
            .collect();
        for (_, users) in chain.shared_wires() {
            for cas in users {
                independent[cas] = false;
            }
        }
        Self { independent }
    }

    /// Whether CAS `cas` is in TEST mode and owns its scheme wires.
    ///
    /// # Panics
    ///
    /// Panics if `cas` is not a chain index.
    pub fn is_independent(&self, cas: usize) -> bool {
        self.independent[cas]
    }
}

/// The routing-relevant shape of one configuration wave: bus width plus,
/// per CAS, the active TEST scheme's wire assignment (`None` outside TEST).
///
/// Two chains with equal [`WaveKey`]s compile to identical [`RouteTable`]s
/// (the flags are a pure function of exactly these inputs), so the key is
/// what a compilation cache must hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WaveKey {
    n: usize,
    /// Per CAS: `Some(scheme wires for ports 0..P)` when in TEST mode.
    schemes: Vec<Option<Vec<usize>>>,
}

impl WaveKey {
    /// Extracts the wave key of the chain's current configuration.
    pub fn for_chain(chain: &CasChain) -> Self {
        let schemes = chain
            .cases()
            .iter()
            .map(|cas| cas.test_scheme().map(|scheme| scheme.wires().to_vec()))
            .collect();
        Self {
            n: chain.bus_width(),
            schemes,
        }
    }

    /// The bus width component of the key.
    pub fn bus_width(&self) -> usize {
        self.n
    }

    /// Number of CAS positions covered.
    pub fn cas_count(&self) -> usize {
        self.schemes.len()
    }
}

/// Cached tables plus the logical clock backing the LRU policy.
#[derive(Debug, Default)]
struct CacheState {
    /// Per wave shape: the compiled table and its last-use stamp.
    tables: HashMap<WaveKey, (Arc<RouteTable>, u64)>,
    /// Monotonic lookup clock; every hit or insert advances it.
    stamp: u64,
}

/// A memoizing, thread-safe [`RouteTable`] compilation cache keyed by
/// [`WaveKey`], with an optional capacity cap under LRU eviction.
///
/// Candidate schedules in a makespan search share wave shapes heavily (a
/// local move touches one or two sessions and leaves every other wave
/// intact), so `get_or_compile` turns the per-wave compile into a hash
/// lookup after the first encounter. Tables are handed out as
/// [`Arc`]s, so concurrent validation workers share one compiled copy.
///
/// The default cache is unbounded — right for one search over one SoC.
/// Long-lived serving workloads (a fleet runner executing one program
/// across thousands of devices, or many searches over changing designs)
/// should bound it with [`RouteTableCache::with_capacity`]: once the cap is
/// reached, inserting a new shape evicts the least-recently-used table
/// (handed-out [`Arc`]s stay valid — eviction only drops the cache's
/// reference). [`RouteTableCache::evictions`] counts the drops.
///
/// Unbounded caches serve hits under a shared read lock — after warmup
/// (every wave shape of a program seen once) concurrent fleet workers
/// never contend on a writer. Bounded caches must bump the LRU stamp per
/// hit and therefore take the write lock on every lookup.
///
/// # Examples
///
/// ```
/// use casbus::{Cas, CasChain, CasGeometry, RouteTableCache};
///
/// let chain = CasChain::new(vec![
///     Cas::for_geometry(CasGeometry::new(4, 1)?)?,
/// ])?;
/// let cache = RouteTableCache::default();
/// let first = cache.get_or_compile(&chain);
/// let again = cache.get_or_compile(&chain);
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok::<(), casbus::CasError>(())
/// ```
#[derive(Debug)]
pub struct RouteTableCache {
    state: RwLock<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Most tables ever resident at once — how much of the budget the
    /// workload actually used.
    high_water: AtomicU64,
}

/// A point-in-time accounting snapshot of a [`RouteTableCache`] — the
/// budget view a multi-plan serving layer exports per run.
///
/// When several compiled plans (different SoCs, different bus widths)
/// share one bounded cache, the interesting questions are budgetary: how
/// much of the capacity did the mixed workload actually need
/// ([`high_water`](Self::high_water)), and did co-tenant plans thrash each
/// other's tables out ([`evictions`](Self::evictions))? `stats()` reads
/// every counter in one call so exported metrics are mutually consistent
/// enough for operator dashboards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile a table.
    pub misses: u64,
    /// Tables dropped to stay within the capacity budget.
    pub evictions: u64,
    /// Distinct wave shapes resident right now.
    pub len: usize,
    /// The capacity budget (`usize::MAX` when unbounded).
    pub capacity: usize,
    /// Most tables ever resident at once since the last
    /// [`clear`](RouteTableCache::clear).
    pub high_water: u64,
}

impl Default for RouteTableCache {
    fn default() -> Self {
        Self::with_capacity(usize::MAX)
    }
}

impl RouteTableCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` tables (clamped to at
    /// least 1), evicting the least-recently-used shape beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            state: RwLock::new(CacheState::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// The maximum number of tables kept (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The compiled table for the chain's current configuration, compiling
    /// and inserting it on first encounter of this wave shape. At capacity,
    /// the insert evicts the least-recently-used shape first.
    ///
    /// Unbounded caches (the default) serve hits under the shared read
    /// lock: after warmup, concurrent readers never serialize on a writer.
    pub fn get_or_compile(&self, chain: &CasChain) -> Arc<RouteTable> {
        let key = WaveKey::for_chain(chain);
        if self.capacity == usize::MAX {
            // No eviction ever happens, so hits need no last-use bump —
            // a shared read lock suffices and warmed-up fleet workers run
            // contention-free.
            {
                let state = self.state.read().expect("route cache poisoned");
                if let Some((table, _)) = state.tables.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(table);
                }
            }
            let mut state = self.state.write().expect("route cache poisoned");
            // Re-check: another thread may have compiled this shape while
            // we waited for the write lock.
            if let Some((table, _)) = state.tables.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(table);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            state.stamp += 1;
            let stamp = state.stamp;
            let table = Arc::new(RouteTable::compile(chain));
            state.tables.insert(key, (Arc::clone(&table), stamp));
            self.high_water
                .fetch_max(state.tables.len() as u64, Ordering::Relaxed);
            return table;
        }
        let mut state = self.state.write().expect("route cache poisoned");
        state.stamp += 1;
        let stamp = state.stamp;
        if let Some((table, last_use)) = state.tables.get_mut(&key) {
            *last_use = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(table);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if state.tables.len() >= self.capacity {
            let coldest = state
                .tables
                .iter()
                .min_by_key(|(_, (_, last_use))| *last_use)
                .map(|(key, _)| key.clone())
                .expect("cache at capacity is non-empty");
            state.tables.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let table = Arc::new(RouteTable::compile(chain));
        state.tables.insert(key, (Arc::clone(&table), stamp));
        self.high_water
            .fetch_max(state.tables.len() as u64, Ordering::Relaxed);
        table
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Tables dropped to stay within the capacity cap.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Most tables ever resident at once since construction (or the last
    /// [`clear`](Self::clear)) — how much of the capacity budget the
    /// workload actually needed. A high-water mark well below
    /// [`capacity`](Self::capacity) means the budget is oversized; a mark
    /// pinned at capacity alongside growing [`evictions`](Self::evictions)
    /// means co-tenant plans are thrashing each other's tables.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Every accounting counter in one snapshot, for metric export.
    ///
    /// # Examples
    ///
    /// ```
    /// use casbus::{Cas, CasChain, CasGeometry, RouteTableCache};
    ///
    /// let chain = CasChain::new(vec![Cas::for_geometry(CasGeometry::new(4, 1)?)?])?;
    /// let cache = RouteTableCache::with_capacity(8);
    /// cache.get_or_compile(&chain);
    /// let stats = cache.stats();
    /// assert_eq!((stats.misses, stats.len, stats.high_water), (1, 1, 1));
    /// assert_eq!(stats.capacity, 8);
    /// # Ok::<(), casbus::CasError>(())
    /// ```
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            len: self.len(),
            capacity: self.capacity,
            high_water: self.high_water(),
        }
    }

    /// Distinct wave shapes currently cached (never exceeds the capacity).
    pub fn len(&self) -> usize {
        self.state
            .read()
            .expect("route cache poisoned")
            .tables
            .len()
    }

    /// Whether the cache holds no tables yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of lookups served from the cache, in `[0, 1]` (0.0 before
    /// the first lookup).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Drops every cached table and resets the hit/miss/evict counters.
    pub fn clear(&self) {
        let mut state = self.state.write().expect("route cache poisoned");
        state.tables.clear();
        state.stamp = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.high_water.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cas::{Cas, CasControl};
    use crate::geometry::CasGeometry;
    use crate::instruction::CasInstruction;
    use casbus_tpg::BitVec;
    use proptest::prelude::*;

    fn chain(geoms: &[(usize, usize)]) -> CasChain {
        let cases = geoms
            .iter()
            .map(|&(n, p)| Cas::for_geometry(CasGeometry::new(n, p).unwrap()).unwrap())
            .collect();
        CasChain::new(cases).unwrap()
    }

    /// The flag's meaning, observed through the interpreter: CAS `c` is in
    /// TEST mode and, for every port, a pulse on the port's bus input `e_w`
    /// reaches the CAS's tap, and a pulse on the port's core output reaches
    /// the chain's bus output `s_w`.
    fn owns_wires_when_clocked(ch: &mut CasChain, c: usize) -> bool {
        let Some(wires) = ch.cases()[c].active_scheme().map(|s| s.wires().to_vec()) else {
            return false;
        };
        let n = ch.bus_width();
        let idle: Vec<BitVec> = ch
            .cases()
            .iter()
            .map(|cas| BitVec::zeros(cas.geometry().switched_wires()))
            .collect();
        wires.iter().enumerate().all(|(port, &wire)| {
            let mut bus = BitVec::zeros(n);
            bus.set(wire, true);
            let out = ch.clock(&bus, &idle, CasControl::run()).unwrap();
            let tapped = out.core_in[c].as_ref().and_then(|tap| tap.get(port)) == Some(true);
            let mut cores = idle.clone();
            cores[c].set(port, true);
            let out = ch
                .clock(&BitVec::zeros(n), &cores, CasControl::run())
                .unwrap();
            tapped && out.bus_out.get(wire) == Some(true)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random chains (mixed `P`, TEST and BYPASS, serial wire
        /// sharing included) a CAS is independent exactly when it owns its
        /// scheme wires through [`CasChain::clock`].
        #[test]
        fn independence_is_wire_ownership_through_the_chain(
            n in 2usize..=5,
            picks in proptest::collection::vec((1usize..=3, 0usize..1000), 1..6),
        ) {
            let geoms: Vec<(usize, usize)> = picks.iter().map(|&(p, _)| (n, p.min(n))).collect();
            let mut ch = chain(&geoms);
            let instructions: Vec<CasInstruction> = picks
                .iter()
                .zip(ch.cases())
                .map(|(&(_, raw), cas)| match raw % 3 {
                    0 => CasInstruction::Bypass,
                    _ => CasInstruction::Test(raw % cas.schemes().len()),
                })
                .collect();
            ch.configure(&instructions).unwrap();
            let routes = RouteTable::compile(&ch);
            for c in 0..ch.len() {
                prop_assert_eq!(routes.is_independent(c), owns_wires_when_clocked(&mut ch, c));
            }
        }
    }

    #[test]
    fn disjoint_test_cases_compile_independent_lanes() {
        let mut ch = chain(&[(4, 2), (4, 1)]);
        let i0 = ch.cases()[0].schemes().index_of(&[0, 1]).unwrap();
        let i1 = ch.cases()[1].schemes().index_of(&[3]).unwrap();
        ch.configure(&[CasInstruction::Test(i0), CasInstruction::Test(i1)])
            .unwrap();
        let routes = RouteTable::compile(&ch);
        assert!(routes.is_independent(0) && routes.is_independent(1));
    }

    #[test]
    fn cache_shares_tables_across_identical_wave_shapes() {
        let cache = RouteTableCache::new();
        let mut ch = chain(&[(4, 2), (4, 1)]);
        let i0 = ch.cases()[0].schemes().index_of(&[0, 1]).unwrap();
        let i1 = ch.cases()[1].schemes().index_of(&[3]).unwrap();
        ch.configure(&[CasInstruction::Test(i0), CasInstruction::Test(i1)])
            .unwrap();
        let a = cache.get_or_compile(&ch);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));

        // A different wave shape compiles its own table…
        ch.configure(&[CasInstruction::Bypass, CasInstruction::Test(i1)])
            .unwrap();
        let b = cache.get_or_compile(&ch);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 2));
        assert_ne!(*a, *b);

        // …and reconfiguring back to the first shape is a pure hit.
        ch.configure(&[CasInstruction::Test(i0), CasInstruction::Test(i1)])
            .unwrap();
        let c = cache.get_or_compile(&ch);
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(*c, RouteTable::compile(&ch), "cached table is the table");

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.hit_rate(), 0.0);
    }

    #[test]
    fn bounded_cache_caps_len_and_evicts_least_recently_used() {
        // Four distinct wave shapes on a 2-CAS chain.
        let mut ch = chain(&[(4, 1), (4, 1)]);
        let shapes: [[CasInstruction; 2]; 4] = [
            [CasInstruction::Test(0), CasInstruction::Bypass],
            [CasInstruction::Bypass, CasInstruction::Test(0)],
            [CasInstruction::Test(1), CasInstruction::Bypass],
            [CasInstruction::Bypass, CasInstruction::Test(1)],
        ];
        let cache = RouteTableCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);

        // Fill to capacity: shapes 0 and 1.
        for shape in &shapes[..2] {
            ch.configure(shape).unwrap();
            cache.get_or_compile(&ch);
        }
        assert_eq!((cache.len(), cache.evictions()), (2, 0));

        // Touch shape 0 so shape 1 becomes the LRU entry, then insert
        // shape 2: the cap holds and exactly one table is evicted.
        ch.configure(&shapes[0]).unwrap();
        cache.get_or_compile(&ch);
        ch.configure(&shapes[2]).unwrap();
        cache.get_or_compile(&ch);
        assert_eq!((cache.len(), cache.evictions()), (2, 1));

        // Shape 0 was kept warm: looking it up again is a hit, not a
        // recompile; shape 1 was the eviction victim and must miss.
        let misses = cache.misses();
        ch.configure(&shapes[0]).unwrap();
        cache.get_or_compile(&ch);
        assert_eq!(cache.misses(), misses, "warm shape survived the cap");
        ch.configure(&shapes[1]).unwrap();
        cache.get_or_compile(&ch);
        assert_eq!(cache.misses(), misses + 1, "LRU shape was evicted");

        // The cap is an invariant, not a high-water mark.
        for _ in 0..3 {
            for shape in &shapes {
                ch.configure(shape).unwrap();
                cache.get_or_compile(&ch);
            }
            assert!(cache.len() <= cache.capacity());
        }
        assert!(cache.evictions() > 1);
        // The budget accounting sees the cap was fully used…
        assert_eq!(cache.high_water(), 2);
        let stats = cache.stats();
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.high_water, 2);
        assert_eq!(stats.evictions, cache.evictions());
        assert_eq!(stats.len, cache.len());

        cache.clear();
        assert_eq!((cache.len(), cache.evictions()), (0, 0));
        assert_eq!(cache.high_water(), 0, "clear resets the high-water mark");

        // Capacity 0 is clamped so the cache stays usable.
        assert_eq!(RouteTableCache::with_capacity(0).capacity(), 1);
        // The default cache never evicts.
        assert_eq!(RouteTableCache::new().capacity(), usize::MAX);
    }

    #[test]
    fn wave_key_captures_exactly_the_routing_inputs() {
        let mut ch = chain(&[(3, 1), (3, 1)]);
        let bypass = WaveKey::for_chain(&ch);
        assert_eq!(bypass.bus_width(), 3);
        assert_eq!(bypass.cas_count(), 2);
        ch.configure(&[CasInstruction::Test(0), CasInstruction::Bypass])
            .unwrap();
        let test = WaveKey::for_chain(&ch);
        assert_ne!(bypass, test, "mode change changes the key");
        // Same configuration loaded again: identical key.
        ch.configure(&[CasInstruction::Test(0), CasInstruction::Bypass])
            .unwrap();
        assert_eq!(test, WaveKey::for_chain(&ch));
    }

    #[test]
    fn reconfiguration_invalidates_nothing_silently() {
        // A table compiled before a wave keeps describing the old wave;
        // recompiling after the wave reflects the new routing.
        let mut ch = chain(&[(3, 1), (3, 1)]);
        ch.configure(&[CasInstruction::Test(0), CasInstruction::Bypass])
            .unwrap();
        let before = RouteTable::compile(&ch);
        ch.configure(&[CasInstruction::Bypass, CasInstruction::Test(2)])
            .unwrap();
        let after = RouteTable::compile(&ch);
        assert_ne!(before, after);
        assert!(before.is_independent(0) && !before.is_independent(1));
        assert!(!after.is_independent(0) && after.is_independent(1));
    }
}
