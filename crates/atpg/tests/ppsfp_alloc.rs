//! Proves the packed grading inner loop is allocation-free in steady
//! state: once an engine and a scratch arena are warm, grading any
//! number of faults against the packed blocks must not touch the heap.
//! The metrics the engine publishes when recording is on (grading
//! counters, the prepared width) are pinned here too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use obd_atpg::bist::run_bist;
use obd_atpg::fault::{em_faults, obd_faults, stuck_at_faults, transition_faults, Fault};
use obd_atpg::faultsim::FaultSimulator;
use obd_atpg::ppsfp::{PpsfpEngine, PpsfpScratch, DROPPING_WIDTH, SUPERLANE_WIDTH};
use obd_atpg::random::random_two_pattern;
use obd_core::BreakdownStage;
use obd_logic::circuits::{c17, fig8_sum_circuit};
use obd_logic::netlist::Netlist;

/// Counts heap operations from the measured thread while `COUNTING` is
/// set; otherwise defers straight to the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set on the thread whose grading loop is being measured, so the
    /// test harness's own threads cannot leak allocations into the
    /// window. Const-init keeps reading the flag allocation-free inside
    /// the allocator.
    static MEASURED_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.load(Ordering::Relaxed) && MEASURED_THREAD.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The allocation-counting window and the global metrics switch are both
/// process-wide, so tests in this binary must not overlap.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn mixed_faults(nl: &Netlist) -> Vec<Fault> {
    let mut faults = stuck_at_faults(nl);
    faults.extend(transition_faults(nl));
    faults.extend(obd_faults(nl, BreakdownStage::Mbd2, false));
    faults.extend(obd_faults(nl, BreakdownStage::Hbd, false));
    faults.extend(em_faults(nl, false));
    faults
}

/// With metrics disabled (branch-only counters), a warm engine grades
/// every fault model without a single heap operation.
#[test]
fn warm_packed_grading_does_not_allocate() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    MEASURED_THREAD.with(|c| c.set(true));
    obd_metrics::disable();

    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let tests = random_two_pattern(nl.inputs().len(), 1024, 0xFEED);
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    // 1024 tests at 512 patterns per super-lane block: the warm loop
    // below really walks multiple blocks, not a single one.
    assert_eq!(engine.num_blocks(), 1024 / (64 * SUPERLANE_WIDTH));
    assert_eq!(engine.scalar_fallback_tests(), 0);

    // Warm-up: one full pass sizes every scratch buffer.
    let mut scratch = PpsfpScratch::default();
    for f in &faults {
        engine.grade_one(f, &mut scratch).unwrap();
    }

    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for f in &faults {
        engine.grade_one(f, &mut scratch).unwrap();
    }
    COUNTING.store(false, Ordering::SeqCst);

    let calls = ALLOC_CALLS.load(Ordering::SeqCst);
    assert_eq!(
        calls,
        0,
        "steady-state packed grading performed {calls} heap allocations over {} faults",
        faults.len()
    );
    obd_metrics::enable();
}

/// Contrast run proving the counters really sit on the counted path: the
/// same loop with metrics enabled moves `atpg.blocks_graded` and
/// `atpg.good_sim_cache_hits` (so the zero-allocation claim above is not
/// measuring a dead path).
#[test]
fn enabled_metrics_sit_on_the_graded_path() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obd_metrics::enable();

    let nl = c17();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    // Two full super-lane blocks, so a detection in the first block
    // still has a second block to skip and `faults_dropped` can move.
    let tests = random_two_pattern(nl.inputs().len(), 1024, 0xBEEF);
    let engine = PpsfpEngine::<SUPERLANE_WIDTH>::prepare(&sim, &tests).unwrap();
    assert!(engine.num_blocks() > 1);

    let before = obd_metrics::snapshot();
    let mut scratch = PpsfpScratch::default();
    for f in &faults {
        engine.grade_one(f, &mut scratch).unwrap();
    }
    let after = obd_metrics::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert!(delta("atpg.blocks_graded") > 0);
    assert!(delta("atpg.good_sim_cache_hits") > 0);
    assert!(
        delta("atpg.faults_dropped") > 0,
        "c17 drops detected faults"
    );
    // OBD/EM faults force held values through the SoA core, so the wide
    // simulator's gate counter moves during grading too.
    assert!(delta("logic.soa_gates_simulated") > 0);
    // The SoA compile and engine prepare published their gauges.
    assert_eq!(
        after.gauge("atpg.superlane_width"),
        Some(SUPERLANE_WIDTH as f64)
    );
    assert!(
        after.gauge("logic.levels").unwrap_or(0.0) > 0.0,
        "c17 has depth"
    );
}

/// The width policy, read back from the `atpg.superlane_width` gauge:
/// every grader with dropping prepares a width-1 engine, and the
/// no-dropping paths (detection matrix, BIST detection row) a
/// `SUPERLANE_WIDTH` one. Each grader runs right after a wide path, so a
/// dropping grader that went back to the wide engine leaves the gauge at
/// 8 and fails here.
#[test]
fn width_gauge_follows_the_dropping_policy() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obd_metrics::enable();

    let nl = fig8_sum_circuit();
    let sim = FaultSimulator::new(&nl).unwrap();
    let faults = mixed_faults(&nl);
    let tests = random_two_pattern(nl.inputs().len(), 130, 0x3D);
    let width = || obd_metrics::snapshot().gauge("atpg.superlane_width");
    let graders: [(&str, &dyn Fn()); 4] = [
        ("grade", &|| drop(sim.grade(&faults, &tests).unwrap())),
        ("grade_parallel", &|| {
            drop(sim.grade_parallel(&faults, &tests, 3).unwrap())
        }),
        ("grade_auto", &|| {
            drop(sim.grade_auto(&faults, &tests).unwrap())
        }),
        ("grade_degraded", &|| {
            drop(sim.grade_degraded(&faults, &tests))
        }),
    ];
    for (name, grade) in graders {
        sim.detection_matrix(&faults, &tests).unwrap();
        assert_eq!(width(), Some(SUPERLANE_WIDTH as f64), "detection_matrix");
        grade();
        assert_eq!(width(), Some(1.0), "{name}");
        run_bist(&nl, Some(&faults[0]), &tests).unwrap();
        assert_eq!(width(), Some(SUPERLANE_WIDTH as f64), "BIST detection row");
    }

    // The cache-hit counter stays exact under threads: on a fresh engine
    // every evaluation but each block's first is a hit, and an
    // undetectable fault makes sure every block is touched.
    let engine = PpsfpEngine::<DROPPING_WIDTH>::prepare(&sim, &tests).unwrap();
    let before = obd_metrics::snapshot();
    let detected = engine.grade_parallel(&faults, 3).unwrap();
    let after = obd_metrics::snapshot();
    assert!(
        detected.contains(&false),
        "fig8 has redundant, undetectable faults"
    );
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(
        delta("atpg.good_sim_cache_hits"),
        delta("atpg.blocks_graded") - engine.num_blocks() as u64
    );
}
