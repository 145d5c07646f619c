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
//! memoizes compilation behind it, thread-safe and with hit and miss
//! accounting for the serving metrics.

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

/// A memoizing, thread-safe [`RouteTable`] compilation cache keyed by
/// [`WaveKey`].
///
/// Candidate schedules in a makespan search share wave shapes heavily (a
/// local move touches one or two sessions and leaves every other wave
/// intact), so `get_or_compile` turns the per-wave compile into a hash
/// lookup after the first encounter. Tables are handed out as
/// [`Arc`]s, so concurrent validation workers share one compiled copy.
///
/// The cache is a memo, never a budget: a plan has at most one route shape
/// per step, so it holds a handful of one-flag-per-CAS tables and never
/// drops one. Hits are served under a shared read lock, so after warmup
/// (every wave shape of a program seen once) concurrent fleet workers
/// never contend on a writer.
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
#[derive(Debug, Default)]
pub struct RouteTableCache {
    tables: RwLock<HashMap<WaveKey, Arc<RouteTable>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A point-in-time accounting snapshot of a [`RouteTableCache`], for
/// metric export: every counter read in one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile a table.
    pub misses: u64,
    /// Tables dropped: always 0, since the cache never drops one.
    pub evictions: u64,
    /// Distinct wave shapes resident right now.
    pub len: usize,
    /// Most tables ever resident at once: `len`, since the cache never
    /// drops a table.
    pub high_water: u64,
}

impl RouteTableCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The compiled table for the chain's current configuration, compiling
    /// and inserting it on first encounter of this wave shape.
    pub fn get_or_compile(&self, chain: &CasChain) -> Arc<RouteTable> {
        let key = WaveKey::for_chain(chain);
        if let Some(table) = self.tables.read().expect("route cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(table);
        }
        let mut tables = self.tables.write().expect("route cache poisoned");
        // Re-check: another thread may have compiled this shape while we
        // waited for the write lock.
        if let Some(table) = tables.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(table);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let table = Arc::new(RouteTable::compile(chain));
        tables.insert(key, Arc::clone(&table));
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

    /// Every accounting counter in one snapshot, for metric export.
    ///
    /// # Examples
    ///
    /// ```
    /// use casbus::{Cas, CasChain, CasGeometry, RouteTableCache};
    ///
    /// let chain = CasChain::new(vec![Cas::for_geometry(CasGeometry::new(4, 1)?)?])?;
    /// let cache = RouteTableCache::new();
    /// cache.get_or_compile(&chain);
    /// cache.get_or_compile(&chain);
    /// let stats = cache.stats();
    /// assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    /// assert_eq!((stats.evictions, stats.high_water), (0, 1));
    /// # Ok::<(), casbus::CasError>(())
    /// ```
    pub fn stats(&self) -> CacheStats {
        let len = self.len();
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: 0,
            len,
            high_water: len as u64,
        }
    }

    /// Distinct wave shapes currently cached.
    pub fn len(&self) -> usize {
        self.tables.read().expect("route cache poisoned").len()
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
        assert_eq!(RouteTableCache::new().hit_rate(), 0.0);
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
