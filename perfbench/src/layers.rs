//! Turns a run into metrics: the end-to-end set of an untraced run and
//! the per-layer set (plus the printed span table) of a traced run.
//!
//! Every workload prints every metric. A layer's span time is therefore
//! given as its share of the traced operation (0 where the workload makes
//! no such call), and the metrics in seconds are ones every workload has.

use crate::serve::Serve;
use crate::trace::{median, percentile, Counts};
use crate::workloads::{nproc, OpStats};
use crate::Run;

/// `(name, value, unit)` of one reported metric.
pub type Metric = (String, f64, &'static str);

/// Figures only the serve workload has, folded from its rounds.
#[derive(Debug, Default)]
pub struct ServeFigures {
    /// `JobResult.wall_ms` of every job of every round.
    pub job_ms: Vec<f64>,
    pub cold_pass_s: f64,
    pub warm_pass_s: f64,
    /// Job time of the first round, both passes, in seconds.
    pub round_busy_s: f64,
    /// Share of the first round's job time spent in each job kind.
    pub kind_share: [(&'static str, f64); 4],
    pub cold: Counts,
    pub warm: Counts,
}

/// Replaces the parent-side figures of a serve run with the ones its
/// child rounds measured: the child's set-up and memory, the first
/// traced round's counters, and as the operation's time the round's job
/// time over both passes divided by the worker count. The passes' own
/// wall times end only when the watchdog next polls (every 200 ms at the
/// default deadline), so they move in whole ticks; they are reported as
/// `bench.cold_s` and `bench.warm_s`.
pub fn fold_serve(run: &mut Run, serve: &Serve) {
    let rounds = &serve.done;
    for (op, round) in run.ops.iter_mut().zip(rounds) {
        op.0 = round.busy_s(None) / nproc() as f64;
    }
    run.setup_s = rounds.iter().map(|r| r.setup_s).collect();
    run.rss_mb = rounds.iter().map(|r| r.rss_mb).fold(run.rss_mb, f64::max);
    let traced = rounds.iter().find(|r| !r.counters.is_empty());
    let pass = |p: &str| {
        traced
            .and_then(|r| r.counters.get(p))
            .cloned()
            .unwrap_or_default()
    };
    let (cold, warm) = (pass("cold"), pass("warm"));
    run.counts = cold.clone();
    for (k, v) in &warm {
        *run.counts.entry(k.clone()).or_default() += v;
    }
    let share = |kind: &str| {
        rounds.first().map_or(0.0, |r| {
            r.busy_s(Some(kind)) / r.busy_s(None).max(f64::MIN_POSITIVE)
        })
    };
    run.serve = Some(ServeFigures {
        job_ms: rounds
            .iter()
            .flat_map(|r| r.jobs.iter().map(|j| j.2))
            .collect(),
        cold_pass_s: median(rounds.iter().map(|r| r.cold_s).collect()),
        warm_pass_s: median(rounds.iter().map(|r| r.warm_s).collect()),
        round_busy_s: rounds.first().map_or(0.0, |r| r.busy_s(None)),
        kind_share: [
            ("table1", share("table1")),
            ("grade", share("grade")),
            ("fleet", share("fleet")),
            ("noop", share("noop")),
        ],
        cold,
        warm,
    });
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let ops = &run.ops;
    let of = |f: &dyn Fn(&(f64, bool, OpStats)) -> f64| median(ops.iter().map(f).collect());
    let attempted: u64 = ops.iter().map(|o| o.2.attempted).sum();
    let failed: u64 = ops.iter().map(|o| o.2.failed).sum();
    vec![
        ("wall_s".into(), of(&|o| o.0), "s"),
        ("setup_s".into(), median(run.setup_s.clone()), "s"),
        ("peak_rss_mb".into(), run.rss_mb, "MiB"),
        ("items_per_s".into(), of(&|o| o.2.items / o.0), "1/s"),
        (
            "success_rate".into(),
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        ("coverage".into(), of(&|o| o.2.coverage), "ratio"),
        ("test_count".into(), of(&|o| o.2.tests), "count"),
    ]
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run, and the span table printed
/// beside them.
pub fn report(run: &Run) -> Result<(String, Vec<Metric>), String> {
    let c = |name: &str| run.counts.get(name).copied().unwrap_or(0);
    let t = &run.tracer;
    let traced_wall = median(run.walls(true));
    let untraced_wall = median(run.walls(false));
    let traced_ops = run.walls(true).len();
    let table = t.report(traced_ops, untraced_wall)?;
    let sv = run.serve.as_ref();

    // Share of the traced operation spent in one span, self time only.
    let op_s = t.per_op_secs("op").max(f64::MIN_POSITIVE);
    let share = |span: &str| t.per_op_self_secs(span) / op_s;
    let kind_share = |kind: &str| {
        sv.and_then(|s| s.kind_share.iter().find(|k| k.0 == kind))
            .map_or(0.0, |k| k.1)
    };
    let store_ratio = |counts: Option<&Counts>| {
        let get = |n: &str| counts.and_then(|m| m.get(n)).copied().unwrap_or(0);
        ratio(get("store.hits"), get("store.hits") + get("store.misses"))
    };

    // Newton iterations per millisecond of analog thread time: Monte
    // Carlo fans corners out over every CPU, the Fig. 9 run and serve's
    // Table 1 jobs are serial.
    let table1_s = sv.map_or(0.0, |s| kind_share("table1") * s.round_busy_s);
    let analog_thread_ms = 1e3
        * (t.per_op_secs("core.run_monte") * nproc() as f64
            + t.per_op_secs("bench.fig9_run")
            + table1_s);
    let newton = c("spice.newton_iterations");
    let newton_per_ms = if analog_thread_ms > 0.0 {
        newton as f64 / analog_thread_ms
    } else {
        0.0
    };

    // Requests are serve's jobs, and every other workload's operations.
    // Cold is serve's pass on an empty store, elsewhere the run's first
    // operation; warm is serve's pass on the filled store, elsewhere the
    // median of the later operations.
    let mut requests_ms: Vec<f64> = match sv {
        Some(s) => s.job_ms.clone(),
        None => run.ops.iter().map(|o| o.0 * 1e3).collect(),
    };
    let (cold_s, warm_s) = match sv {
        Some(s) => (s.cold_pass_s, s.warm_pass_s),
        None => (
            run.ops.first().map_or(0.0, |o| o.0),
            median(run.ops.iter().skip(1).map(|o| o.0).collect()),
        ),
    };

    let m = |name: &str, v: f64, unit: &'static str| (name.to_string(), v, unit);
    let n = |name: &str| m(name, c(name) as f64, "count");
    let metrics = vec![
        n("linalg.lu_factorizations"),
        m(
            "linalg.memo_hit_ratio",
            ratio(
                c("linalg.memo_full_hits") + c("linalg.memo_solve_hits"),
                c("linalg.memo_full_hits") + c("linalg.memo_solve_hits") + c("linalg.memo_misses"),
            ),
            "ratio",
        ),
        n("linalg.refinement_steps"),
        n("linalg.sparse_factorizations"),
        m(
            "linalg.symbolic_reuse_ratio",
            ratio(
                c("linalg.symbolic_reuse"),
                c("linalg.symbolic_reuse") + c("linalg.symbolic_builds"),
            ),
            "ratio",
        ),
        n("spice.newton_iterations"),
        m(
            "spice.newton_iters_per_solve",
            ratio(newton, c("spice.newton_solves")),
            "ratio",
        ),
        n("spice.tran_steps_accepted"),
        n("spice.tran_step_rejections"),
        m(
            "spice.predictor_hit_ratio",
            ratio(
                c("spice.tran_predictor_hits"),
                c("spice.tran_predictor_hits") + c("spice.tran_predictor_fallbacks"),
            ),
            "ratio",
        ),
        m(
            "spice.escalations",
            (c("spice.escalations_gmin")
                + c("spice.escalations_source")
                + c("spice.tran_escalations")) as f64,
            "count",
        ),
        n("spice.newton_nonconverged"),
        m("spice.newton_iters_per_ms", newton_per_ms, "1/ms"),
        m("core.run_monte_share", share("core.run_monte"), "ratio"),
        m("bench.fig9_run_share", share("bench.fig9_run"), "ratio"),
        n("core.transitions_measured"),
        n("core.pool_jobs"),
        n("core.window_escalations"),
        n("core.capture_limited_decided"),
        m(
            "core.monte_degraded_measurements",
            c("monte.degraded_measurements") as f64,
            "count",
        ),
        m(
            "core.delay_cache_hit_ratio",
            ratio(
                c("core.delay_cache_hits"),
                c("core.delay_cache_hits") + c("core.delay_cache_misses"),
            ),
            "ratio",
        ),
        n("core.delay_store_hits"),
        m("logic.compile_share", share("logic.compile"), "ratio"),
        n("logic.soa_gates_simulated"),
        n("logic.forced_blocks_simulated"),
        n("logic.blocks_simulated"),
        m("atpg.generate_share", share("atpg.generate"), "ratio"),
        m("atpg.grade_share", share("atpg.grade"), "ratio"),
        n("atpg.podem_runs"),
        n("atpg.podem_backtracks"),
        n("atpg.podem_implications"),
        n("atpg.podem_aborts"),
        m(
            "atpg.backtracks_per_run",
            ratio(c("atpg.podem_backtracks"), c("atpg.podem_runs")),
            "ratio",
        ),
        n("atpg.blocks_graded"),
        n("atpg.faults_dropped"),
        m(
            "atpg.detect_ratio",
            ratio(c("atpg.faults_detected"), c("atpg.faults_graded")),
            "ratio",
        ),
        n("atpg.good_store_hits"),
        n("fleet.devices_simulated"),
        n("fleet.bist_sessions"),
        m("fleet.job_share", kind_share("fleet"), "ratio"),
        n("store.hits"),
        n("store.misses"),
        n("store.puts"),
        m(
            "store.bytes_written",
            c("store.bytes_written") as f64,
            "bytes",
        ),
        m(
            "store.cold_hit_ratio",
            store_ratio(sv.map(|s| &s.cold)),
            "ratio",
        ),
        m(
            "store.warm_hit_ratio",
            store_ratio(sv.map(|s| &s.warm)),
            "ratio",
        ),
        m("serve.table1_share", kind_share("table1"), "ratio"),
        m("serve.grade_share", kind_share("grade"), "ratio"),
        m("serve.noop_share", kind_share("noop"), "ratio"),
        n("serve.jobs_done"),
        n("serve.jobs_degraded"),
        n("serve.jobs_panicked"),
        n("serve.retries"),
        n("serve.watchdog_restarts"),
        m("bench.request_p50_ms", median(requests_ms.clone()), "ms"),
        m(
            "bench.request_p90_ms",
            percentile(&mut requests_ms, 0.9),
            "ms",
        ),
        m("bench.cold_s", cold_s, "s"),
        m("bench.warm_s", warm_s, "s"),
        m("bench.traced_wall_s", traced_wall, "s"),
        m("bench.untraced_wall_s", untraced_wall, "s"),
        m("bench.trace_overhead_s", traced_wall - untraced_wall, "s"),
        m("bench.attributed_share", 1.0 - share("op"), "ratio"),
    ];
    let table = format!(
        "{} per-layer report: {traced_ops} traced / {} untraced operations, {} request samples\n{table}\
         tracing overhead: {:.6} s per operation (traced {traced_wall:.6} s − untraced {untraced_wall:.6} s)\n",
        run.workload,
        run.walls(false).len(),
        requests_ms.len(),
        traced_wall - untraced_wall
    );
    Ok((table, metrics))
}
