//! Memoization of characterization transients.
//!
//! Table 1 regeneration, delay-model annotation and the bench experiments
//! all measure the same handful of `(technology, gate, defect, pattern)`
//! transitions; each one costs a full transient. [`DelayCache`] keys the
//! outcome on every input that can change it, so identical measurements
//! run the analog engine exactly once — across threads too, since lookups
//! go through a mutex.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use obd_cmos::TechParams;
use obd_logic::netlist::GateKind;
use obd_store::{Digest, Store};

use crate::characterize::{measure_cell_transition, BenchConfig, BenchDefect, TransitionOutcome};
use crate::faultmodel::Polarity;
use crate::ObdError;
use obd_metrics::Counter;

/// Lookups served from memory (all [`DelayCache`] instances combined).
static CACHE_HITS: Counter = Counter::new("core.delay_cache_hits");
/// Lookups that ran a characterization transient.
static CACHE_MISSES: Counter = Counter::new("core.delay_cache_misses");
/// Lookups served from the persistent store instead of a transient.
static STORE_HITS: Counter = Counter::new("core.delay_store_hits");
/// Store lookups that fell through to the analog engine.
static STORE_MISSES: Counter = Counter::new("core.delay_store_misses");

/// FNV-1a over raw `f64` bits — a cheap, stable fingerprint for the
/// floating-point parts of a cache key. Bit-exact equality is the right
/// notion here: two techs that differ in any bit may measure differently.
fn fnv_f64(hash: u64, v: f64) -> u64 {
    let mut h = hash;
    for b in v.to_bits().to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn tech_fingerprint(t: &TechParams) -> u64 {
    [
        t.vdd,
        t.nmos_vt0,
        t.nmos_kp,
        t.pmos_vt0,
        t.pmos_kp,
        t.lambda,
        t.length,
        t.nmos_w,
        t.pmos_w,
        t.c_gate,
        t.c_junction,
        t.c_wire,
    ]
    .iter()
    .fold(FNV_OFFSET, |h, &v| fnv_f64(h, v))
}

fn cfg_fingerprint(c: &BenchConfig) -> u64 {
    let h = [c.edge_ps, c.launch_ps, c.window_ps, c.step_ps]
        .iter()
        .fold(FNV_OFFSET, |h, &v| fnv_f64(h, v));
    match c.at_speed_ps {
        Some(limit) => fnv_f64(h.wrapping_add(1), limit),
        None => h,
    }
}

/// Everything that determines a measurement outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    tech: u64,
    cfg: u64,
    kind: GateKind,
    /// `(pin, polarity, isat bits, r_bd bits)`; `None` = fault-free.
    defect: Option<(usize, Polarity, u64, u64)>,
    v1: [bool; 2],
    v2: [bool; 2],
}

impl CacheKey {
    fn new(
        tech: &TechParams,
        kind: GateKind,
        defect: Option<BenchDefect>,
        v1: [bool; 2],
        v2: [bool; 2],
        cfg: &BenchConfig,
    ) -> Self {
        CacheKey {
            tech: tech_fingerprint(tech),
            cfg: cfg_fingerprint(cfg),
            kind,
            defect: defect.map(|d| {
                (
                    d.pin,
                    d.polarity,
                    d.params.isat.to_bits(),
                    d.params.r_bd.to_bits(),
                )
            }),
            v1,
            v2,
        }
    }
}

/// Content address of a measurement in the persistent store: the exact
/// bit patterns of everything that determines the transient's outcome,
/// under a versioned domain so a model change can retire old records by
/// bumping the domain string.
fn store_digest(
    tech: &TechParams,
    kind: GateKind,
    defect: Option<BenchDefect>,
    v1: [bool; 2],
    v2: [bool; 2],
    cfg: &BenchConfig,
) -> u64 {
    let mut d = Digest::new("core.delay.v2");
    for v in [
        tech.vdd,
        tech.nmos_vt0,
        tech.nmos_kp,
        tech.pmos_vt0,
        tech.pmos_kp,
        tech.lambda,
        tech.length,
        tech.nmos_w,
        tech.pmos_w,
        tech.c_gate,
        tech.c_junction,
        tech.c_wire,
    ] {
        d = d.f64(v);
    }
    for v in [cfg.edge_ps, cfg.launch_ps, cfg.window_ps, cfg.step_ps] {
        d = d.f64(v);
    }
    d = match cfg.at_speed_ps {
        Some(limit) => d.bool(true).f64(limit),
        None => d.bool(false),
    };
    d = d.u8(kind as u8);
    d = match defect {
        Some(def) => d
            .bool(true)
            .u64(def.pin as u64)
            .u8(match def.polarity {
                Polarity::Nmos => 0,
                Polarity::Pmos => 1,
            })
            .f64(def.params.isat)
            .f64(def.params.r_bd),
        None => d.bool(false),
    };
    for b in v1.into_iter().chain(v2) {
        d = d.bool(b);
    }
    d.finish()
}

/// Record payload: one tag byte plus the delay's exact bit pattern.
fn encode_outcome(o: TransitionOutcome) -> Vec<u8> {
    match o {
        TransitionOutcome::Stuck => vec![0],
        TransitionOutcome::Delay(d) => {
            let mut out = Vec::with_capacity(9);
            out.push(1);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
            out
        }
    }
}

/// Strict inverse of [`encode_outcome`]; `None` (treated as a miss)
/// on any shape the current build did not write.
fn decode_outcome(bytes: &[u8]) -> Option<TransitionOutcome> {
    match bytes {
        [0] => Some(TransitionOutcome::Stuck),
        [1, rest @ ..] => {
            let bits: [u8; 8] = rest.try_into().ok()?;
            Some(TransitionOutcome::Delay(f64::from_bits(
                u64::from_le_bytes(bits),
            )))
        }
        _ => None,
    }
}

/// A thread-safe memo table for characterization transients.
///
/// # Example
///
/// ```rust
/// use obd_cmos::TechParams;
/// use obd_core::cache::DelayCache;
/// use obd_core::characterize::BenchConfig;
///
/// # fn main() -> Result<(), obd_core::ObdError> {
/// let cache = DelayCache::new();
/// let tech = TechParams::date05();
/// let cfg = BenchConfig::new();
/// let a = cache.measure(&tech, None, [false, true], [true, true], &cfg)?;
/// let b = cache.measure(&tech, None, [false, true], [true, true], &cfg)?;
/// assert_eq!(a, b);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DelayCache {
    map: Mutex<HashMap<CacheKey, TransitionOutcome>>,
    /// Persistent second level: memory misses probe here before running
    /// a transient, and fresh measurements are written back, so a second
    /// process measuring the same corners starts warm.
    store: Option<Arc<Store>>,
    hits: AtomicU64,
    misses: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
}

impl DelayCache {
    /// Creates an empty memory-only cache.
    pub fn new() -> Self {
        DelayCache::default()
    }

    /// Creates a cache backed by a persistent store: memory misses are
    /// served from `store` when the exact measurement was ever recorded
    /// (by any process), and fresh transients are written back.
    pub fn persistent(store: Arc<Store>) -> Self {
        DelayCache {
            store: Some(store),
            ..DelayCache::default()
        }
    }

    /// Creates a cache backed by the process-wide store when persistence
    /// is armed ([`obd_store::global`]), memory-only otherwise.
    pub fn auto() -> Self {
        match obd_store::global() {
            Some(store) => DelayCache::persistent(store),
            None => DelayCache::new(),
        }
    }

    /// Whether a persistent store backs this cache.
    pub fn is_persistent(&self) -> bool {
        self.store.is_some()
    }

    /// Memoized [`measure_transition`](crate::characterize::measure_transition):
    /// NAND2 device under test.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors (errors are not cached).
    pub fn measure(
        &self,
        tech: &TechParams,
        defect: Option<BenchDefect>,
        v1: [bool; 2],
        v2: [bool; 2],
        cfg: &BenchConfig,
    ) -> Result<TransitionOutcome, ObdError> {
        self.measure_cell(tech, GateKind::Nand, defect, v1, v2, cfg)
    }

    /// Memoized [`measure_cell_transition`] for any device-under-test
    /// kind.
    ///
    /// # Errors
    ///
    /// Propagates measurement errors (errors are not cached).
    pub fn measure_cell(
        &self,
        tech: &TechParams,
        kind: GateKind,
        defect: Option<BenchDefect>,
        v1: [bool; 2],
        v2: [bool; 2],
        cfg: &BenchConfig,
    ) -> Result<TransitionOutcome, ObdError> {
        let key = CacheKey::new(tech, kind, defect, v1, v2, cfg);
        // A poisoned map still holds structurally valid entries (inserts
        // of Copy values cannot half-complete observably), so recover
        // instead of propagating a worker's panic into every later lookup.
        if let Some(&o) = self.map.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HITS.inc();
            return Ok(o);
        }
        // Second level: the persistent store. A hit skips the transient
        // entirely; any store error (corruption, I/O) degrades to a miss
        // so persistence can never wedge a measurement.
        let digest = self
            .store
            .as_deref()
            .map(|_| store_digest(tech, kind, defect, v1, v2, cfg));
        if let (Some(store), Some(digest)) = (self.store.as_deref(), digest) {
            if let Some(o) = store
                .get(digest)
                .ok()
                .flatten()
                .as_deref()
                .and_then(decode_outcome)
            {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                STORE_HITS.inc();
                self.map
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(key, o);
                return Ok(o);
            }
        }
        // The transient runs outside the lock so concurrent misses on
        // *different* keys proceed in parallel; a duplicated concurrent
        // miss on the same key just recomputes the identical outcome.
        let o = measure_cell_transition(tech, kind, defect, v1, v2, cfg)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.inc();
        if let (Some(store), Some(digest)) = (self.store.as_deref(), digest) {
            self.store_misses.fetch_add(1, Ordering::Relaxed);
            STORE_MISSES.inc();
            // Write-back failure (disk full, torn write) only costs the
            // next run a recompute; the outcome in hand is still good.
            let _ = store.put(digest, &encode_outcome(o));
        }
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, o);
        Ok(o)
    }

    /// Number of lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that ran a transient.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of lookups served from the persistent store.
    pub fn store_hits(&self) -> u64 {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Number of store probes that fell through to the analog engine.
    pub fn store_misses(&self) -> u64 {
        self.store_misses.load(Ordering::Relaxed)
    }

    /// Number of distinct measurements stored.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::BreakdownStage;

    fn fast_cfg() -> BenchConfig {
        BenchConfig {
            edge_ps: 50.0,
            launch_ps: 500.0,
            window_ps: 2500.0,
            step_ps: 4.0,
            at_speed_ps: None,
        }
    }

    #[test]
    fn repeat_measurements_hit_cache() {
        let cache = DelayCache::new();
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let first = cache
            .measure(&tech, None, [false, true], [true, true], &cfg)
            .unwrap();
        for _ in 0..3 {
            let again = cache
                .measure(&tech, None, [false, true], [true, true], &cfg)
                .unwrap();
            assert_eq!(first, again);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = DelayCache::new();
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let ff = cache
            .measure(&tech, None, [false, true], [true, true], &cfg)
            .unwrap();
        let defect = BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params: BreakdownStage::Mbd3.params(Polarity::Nmos).unwrap(),
        };
        let faulty = cache
            .measure(&tech, Some(defect), [false, true], [true, true], &cfg)
            .unwrap();
        assert_eq!(cache.len(), 2);
        let (Some(a), Some(b)) = (ff.delay_ps(), faulty.delay_ps()) else {
            panic!("both sequences must switch at MBD3: {ff:?} vs {faulty:?}");
        };
        assert!(b > a, "defect must slow the transition: {b} vs {a}");
    }

    #[test]
    fn outcome_encoding_round_trips_exactly() {
        for o in [
            TransitionOutcome::Stuck,
            TransitionOutcome::Delay(0.0),
            TransitionOutcome::Delay(123.456_789),
            TransitionOutcome::Delay(f64::MIN_POSITIVE),
        ] {
            assert_eq!(decode_outcome(&encode_outcome(o)), Some(o));
        }
        // Shapes this build never wrote are misses, not panics.
        assert_eq!(decode_outcome(&[]), None);
        assert_eq!(decode_outcome(&[2]), None);
        assert_eq!(decode_outcome(&[1, 0, 0]), None);
    }

    #[test]
    fn persistent_cache_serves_second_process_from_disk() {
        let dir =
            std::env::temp_dir().join(format!("obd-delaycache-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tech = TechParams::date05();
        let cfg = fast_cfg();
        let defect = BenchDefect {
            pin: 0,
            polarity: Polarity::Nmos,
            params: BreakdownStage::Mbd3.params(Polarity::Nmos).unwrap(),
        };
        let jobs: [(Option<BenchDefect>, [bool; 2], [bool; 2]); 3] = [
            (None, [false, true], [true, true]),
            (Some(defect), [false, true], [true, true]),
            (None, [true, false], [true, true]),
        ];
        // Cold: a fresh cache over an empty store runs every transient
        // and writes each outcome back.
        let cold = DelayCache::persistent(Arc::new(Store::open(&dir).unwrap()));
        let cold_outcomes: Vec<_> = jobs
            .iter()
            .map(|&(d, v1, v2)| cold.measure(&tech, d, v1, v2, &cfg).unwrap())
            .collect();
        assert_eq!(cold.store_hits(), 0);
        assert_eq!(cold.store_misses(), jobs.len() as u64);
        drop(cold);
        // Warm: a second cache (second process, in effect) sees identical
        // outcomes straight from disk, running zero transients.
        let warm = DelayCache::persistent(Arc::new(Store::open(&dir).unwrap()));
        let warm_outcomes: Vec<_> = jobs
            .iter()
            .map(|&(d, v1, v2)| warm.measure(&tech, d, v1, v2, &cfg).unwrap())
            .collect();
        assert_eq!(warm_outcomes, cold_outcomes, "warm run must be identical");
        assert_eq!(warm.store_hits(), jobs.len() as u64);
        assert_eq!(warm.misses(), 0, "warm run must run no transients");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tech_perturbation_changes_key() {
        let cache = DelayCache::new();
        let cfg = fast_cfg();
        let tech = TechParams::date05();
        let mut tweaked = tech.clone();
        tweaked.nmos_vt0 += 1e-6;
        cache
            .measure(&tech, None, [false, true], [true, true], &cfg)
            .unwrap();
        cache
            .measure(&tweaked, None, [false, true], [true, true], &cfg)
            .unwrap();
        assert_eq!(cache.misses(), 2, "distinct techs must not share entries");
    }
}
