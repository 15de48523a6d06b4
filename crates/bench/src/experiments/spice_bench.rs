//! Analog-engine throughput benchmark behind `BENCH_spice.json`.
//!
//! Times the Newton kernel (split linear/nonlinear stamping + memoized,
//! zero-allocation dense LU), the full characterization transient, Table 1
//! serial and on every available thread, a cold-then-warm Table 1 over a
//! throwaway persistent store, and a small Monte Carlo campaign.
//!
//! Wall-clock timings take the minimum over a few repetitions: the
//! benchmark does identical work every repetition, so the minimum is the
//! least noise-contaminated estimate on a shared, busy host.

use std::sync::Arc;
use std::time::Instant;

use obd_cmos::expand::expand;
use obd_cmos::TechParams;
use obd_core::cache::DelayCache;
use obd_core::characterize::{
    characterize_table1, characterize_table1_cached, measure_cell_transition_with_options,
    BenchConfig, Fig5Bench,
};
use obd_core::monte::{run_monte, MonteConfig};
use obd_core::ObdError;
use obd_logic::netlist::GateKind;
use obd_spice::devices::{EvalCtx, Integration, SourceWave};
use obd_spice::engine::Solver;
use obd_spice::SimOptions;
use obd_store::Store;

/// Throughput report for the analog substrate.
#[derive(Debug, Clone)]
pub struct SpiceBenchReport {
    /// ns per Newton iteration (assembly + LU).
    pub newton_ns_per_iter: f64,
    /// Iterations behind the estimate.
    pub newton_iters: u64,
    /// Full characterization transients per second.
    pub transients_per_sec: f64,
    /// Transients behind the estimate.
    pub transient_count: u64,
    /// Table 1 wall time, single-threaded (s).
    pub table1_serial_s: f64,
    /// Table 1 wall time on `table1_threads` workers (s).
    pub table1_parallel_s: f64,
    /// Worker count used for the parallel run.
    pub table1_threads: usize,
    /// Table 1 wall time populating an empty persistent store (s).
    pub table1_cold_s: f64,
    /// Table 1 wall time of a fresh cache over the warm store (s).
    pub table1_warm_s: f64,
    /// Store hits of the warm pass (the whole grid when healthy).
    pub warm_store_hits: u64,
    /// Whether the warm table is byte-identical to the cold one.
    pub warm_byte_identical: bool,
    /// Monte Carlo corners sampled for the throughput section.
    pub monte_samples: usize,
    /// Probes measured per corner.
    pub monte_probes: usize,
    /// Worker threads of the Monte Carlo fan-out.
    pub monte_threads: usize,
    /// Monte Carlo campaign wall time (s).
    pub monte_wall_s: f64,
}

impl SpiceBenchReport {
    /// Serial → parallel Table 1.
    pub fn thread_speedup(&self) -> f64 {
        self.table1_serial_s / self.table1_parallel_s
    }

    /// Cold (store-populating) → warm (store-served) rerun.
    pub fn warm_speedup(&self) -> f64 {
        self.table1_cold_s / self.table1_warm_s
    }

    /// Monte Carlo corners per second.
    pub fn monte_corners_per_sec(&self) -> f64 {
        self.monte_samples as f64 / self.monte_wall_s
    }

    /// Monte Carlo individual measurements (corners × probes) per second.
    pub fn monte_measurements_per_sec(&self) -> f64 {
        (self.monte_samples * self.monte_probes) as f64 / self.monte_wall_s
    }
}

/// Times the Newton kernel: a warm solver on the Fig. 5 bench circuit,
/// re-solved from the operating point under a transient context. Returns
/// the fastest of [`NEWTON_WINDOWS`] timing windows as (ns/iteration,
/// iterations timed in that window), so a noisy host cannot inflate it.
fn newton_kernel(tech: &TechParams) -> Result<(f64, u64), ObdError> {
    let bench = Fig5Bench::new()?;
    let mut exp = expand(&bench.netlist, tech)?;
    exp.drive_input(bench.pis[0], SourceWave::dc(0.0));
    exp.drive_input(bench.pis[1], SourceWave::dc(tech.vdd));

    let opts = SimOptions::new();
    let mut solver = Solver::new(&exp.circuit, &opts)?;
    let ctx = EvalCtx {
        time: 1e-9,
        source_scale: 1.0,
        gmin: opts.gmin,
        integ: Integration::Trapezoidal { h: 5e-12 },
        vt: obd_spice::THERMAL_VOLTAGE,
    };
    let x0 = solver.operating_point()?;
    let mut x = vec![0.0; solver.dim()];
    // Warm every buffer (and the caches) before the timed window.
    for _ in 0..10 {
        solver.newton_into(&ctx, &x0, &mut x)?;
    }

    let mut best = (f64::INFINITY, 0);
    for _ in 0..NEWTON_WINDOWS {
        let iters_before = solver.newton_iterations();
        let t0 = Instant::now();
        let mut solves = 0u64;
        while solves < 200 || t0.elapsed().as_millis() < 100 {
            solver.newton_into(&ctx, &x0, &mut x)?;
            solves += 1;
        }
        let wall = t0.elapsed();
        let iters = solver.newton_iterations() - iters_before;
        let ns_per_iter = wall.as_secs_f64() * 1e9 / iters as f64;
        if ns_per_iter < best.0 {
            best = (ns_per_iter, iters);
        }
    }
    Ok(best)
}

/// Timing windows (each ≥ 100 ms and ≥ 200 solves) behind the Newton
/// kernel's ns/iteration.
const NEWTON_WINDOWS: usize = 5;

/// Times the full two-pattern characterization transient (fault-free
/// fall on the NAND bench).
fn transient_kernel(tech: &TechParams, cfg: &BenchConfig) -> Result<(f64, u64), ObdError> {
    let opts = SimOptions::new();
    let measure = || {
        measure_cell_transition_with_options(
            tech,
            GateKind::Nand,
            None,
            [false, true],
            [true, true],
            cfg,
            &opts,
        )
    };
    measure()?;
    let t0 = Instant::now();
    let mut count = 0u64;
    while count < 3 || t0.elapsed().as_millis() < 500 {
        measure()?;
        count += 1;
    }
    Ok((count as f64 / t0.elapsed().as_secs_f64(), count))
}

/// Runs the full benchmark. `cfg` drives the transient and Table 1
/// measurements; the paper resolution (`BenchConfig::table1()`) is the
/// honest setting, coarser ones just run faster.
pub fn run(tech: &TechParams, cfg: &BenchConfig) -> Result<SpiceBenchReport, ObdError> {
    let opts = SimOptions::new();
    let (newton_ns_per_iter, newton_iters) = newton_kernel(tech)?;
    let (transients_per_sec, transient_count) = transient_kernel(tech, cfg)?;

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    const REPS: usize = 3;
    let mut table1_serial_s = f64::INFINITY;
    let mut table1_parallel_s = f64::INFINITY;
    let mut serial = None;
    let mut parallel = None;
    for _ in 0..REPS {
        let t1 = Instant::now();
        serial = Some(characterize_table1(tech, cfg, &opts, 1)?);
        table1_serial_s = table1_serial_s.min(t1.elapsed().as_secs_f64());
        let t2 = Instant::now();
        parallel = Some(characterize_table1(tech, cfg, &opts, threads)?);
        table1_parallel_s = table1_parallel_s.min(t2.elapsed().as_secs_f64());
    }
    let (serial, parallel) = (serial.expect("REPS > 0"), parallel.expect("REPS > 0"));

    assert_eq!(
        serial.render(),
        parallel.render(),
        "serial and parallel Table 1 must agree"
    );

    // Warm-start benchmark: one cold Table 1 populating a throwaway
    // persistent store, then a *fresh* cache over the same store. The
    // warm pass must run zero transients and reproduce the cold table
    // byte for byte (outcomes are stored as exact f64 bit patterns).
    let store_dir = std::env::temp_dir().join(format!("obd-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Arc::new(
        Store::open(&store_dir).map_err(|e| ObdError::Spice(format!("bench store: {e}")))?,
    );
    let cold_cache = DelayCache::persistent(Arc::clone(&store));
    let t3 = Instant::now();
    let cold_table = characterize_table1_cached(tech, cfg, &cold_cache)?;
    let table1_cold_s = t3.elapsed().as_secs_f64();
    let warm_cache = DelayCache::persistent(store);
    let t4 = Instant::now();
    let warm_table = characterize_table1_cached(tech, cfg, &warm_cache)?;
    let table1_warm_s = t4.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&store_dir);
    assert_eq!(
        cold_table.render(),
        serial.render(),
        "the cached driver must regenerate the same Table 1"
    );
    let warm_byte_identical = format!("{cold_table:?}") == format!("{warm_table:?}");

    // Monte Carlo throughput: a small campaign at the bench resolution,
    // sized to time the fan-out rather than characterize the spread.
    let monte_cfg = MonteConfig {
        samples: 6,
        threads,
        bench: BenchConfig {
            at_speed_ps: None,
            ..cfg.clone()
        },
        ..MonteConfig::new()
    };
    let t7 = Instant::now();
    let monte = run_monte(tech, &monte_cfg)?;
    let monte_wall_s = t7.elapsed().as_secs_f64();

    Ok(SpiceBenchReport {
        newton_ns_per_iter,
        newton_iters,
        transients_per_sec,
        transient_count,
        table1_serial_s,
        table1_parallel_s,
        table1_threads: threads,
        table1_cold_s,
        table1_warm_s,
        warm_store_hits: warm_cache.store_hits(),
        warm_byte_identical,
        monte_samples: monte.samples,
        monte_probes: monte.probes.len(),
        monte_threads: threads,
        monte_wall_s,
    })
}

/// Hand-rolled JSON (the workspace builds offline, with no serializer
/// crate); all values are finite numbers, so no escaping is needed.
pub fn to_json(r: &SpiceBenchReport) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"newton\": {{ \"ns_per_iter\": {:.2}, \"iterations\": {} }},\n",
            "  \"transient\": {{ \"per_sec\": {:.3}, \"count\": {} }},\n",
            "  \"table1\": {{\n",
            "    \"optimized_serial_s\": {:.4},\n",
            "    \"optimized_parallel_s\": {:.4},\n",
            "    \"threads\": {},\n",
            "    \"thread_speedup\": {:.3}\n",
            "  }},\n",
            "  \"store\": {{\n",
            "    \"cold_s\": {:.6},\n",
            "    \"warm_s\": {:.6},\n",
            "    \"warm_speedup\": {:.3},\n",
            "    \"warm_store_hits\": {},\n",
            "    \"byte_identical\": {}\n",
            "  }},\n",
            "  \"monte\": {{\n",
            "    \"samples\": {},\n",
            "    \"probes\": {},\n",
            "    \"threads\": {},\n",
            "    \"wall_s\": {:.4},\n",
            "    \"corners_per_sec\": {:.3},\n",
            "    \"measurements_per_sec\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        r.newton_ns_per_iter,
        r.newton_iters,
        r.transients_per_sec,
        r.transient_count,
        r.table1_serial_s,
        r.table1_parallel_s,
        r.table1_threads,
        r.thread_speedup(),
        r.table1_cold_s,
        r.table1_warm_s,
        r.warm_speedup(),
        r.warm_store_hits,
        r.warm_byte_identical,
        r.monte_samples,
        r.monte_probes,
        r.monte_threads,
        r.monte_wall_s,
        r.monte_corners_per_sec(),
        r.monte_measurements_per_sec(),
    )
}

/// Human-readable summary for the repro log.
pub fn render(r: &SpiceBenchReport) -> String {
    format!(
        concat!(
            "  newton kernel     : {:.1} ns/iter ({} iters timed)\n",
            "  transient         : {:.2}/s ({} timed)\n",
            "  table1 end-to-end : serial {:.2} s, parallel {:.2} s on {} threads ({:.2}x)\n",
            "  warm start        : cold {:.3} s, warm {:.6} s ({:.0}x, {} store hits, byte-identical: {})\n",
            "  monte carlo       : {} corners x {} probes on {} threads in {:.2} s ({:.2} corners/s)"
        ),
        r.newton_ns_per_iter,
        r.newton_iters,
        r.transients_per_sec,
        r.transient_count,
        r.table1_serial_s,
        r.table1_parallel_s,
        r.table1_threads,
        r.thread_speedup(),
        r.table1_cold_s,
        r.table1_warm_s,
        r.warm_speedup(),
        r.warm_store_hits,
        r.warm_byte_identical,
        r.monte_samples,
        r.monte_probes,
        r.monte_threads,
        r.monte_wall_s,
        r.monte_corners_per_sec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let r = SpiceBenchReport {
            newton_ns_per_iter: 1234.5,
            newton_iters: 1000,
            transients_per_sec: 12.25,
            transient_count: 37,
            table1_serial_s: 10.0,
            table1_parallel_s: 2.5,
            table1_threads: 8,
            table1_cold_s: 10.0,
            table1_warm_s: 0.5,
            warm_store_hits: 100,
            warm_byte_identical: true,
            monte_samples: 6,
            monte_probes: 4,
            monte_threads: 8,
            monte_wall_s: 3.0,
        };
        assert_eq!(r.thread_speedup(), 4.0);
        assert_eq!(r.warm_speedup(), 20.0);
        assert_eq!(r.monte_corners_per_sec(), 2.0);
        assert_eq!(r.monte_measurements_per_sec(), 8.0);
        let j = to_json(&r);
        assert!(j.contains("\"ns_per_iter\": 1234.50"));
        assert!(j.contains("\"thread_speedup\": 4.000"));
        assert!(j.contains("\"warm_store_hits\": 100"));
        assert!(j.contains("\"byte_identical\": true"));
        assert!(j.contains("\"corners_per_sec\": 2.000"));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        // Balanced braces — the artifact must stay machine-parseable.
        let open = j.matches('{').count();
        assert_eq!(open, j.matches('}').count());
        assert_eq!(open, 6);
    }
}
