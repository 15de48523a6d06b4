//! Seeded benchmark of the OBD reproduction suite.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <monte|fig9|atpg|grade|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up from the seed (several times, reporting the
//! median), then repeats its operation for `--seconds`, checking every
//! output against the workload's oracle. The last line of stdout is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A wrong output exits nonzero and prints no
//! numbers.

mod layers;
mod serve;
mod trace;
mod workloads;

use std::time::Instant;

use trace::Tracer;
use workloads::OpStats;

/// Set-ups are timed in groups lasting at least [`SETUP_GROUP_S`], at
/// least [`SETUP_MIN_GROUPS`] groups and for about [`SETUP_BUDGET_S`]; the
/// median time per set-up is reported as `setup_s`. Grouping keeps set-ups
/// far shorter than a clock read measurable.
const SETUP_GROUP_S: f64 = 0.002;
const SETUP_MIN_GROUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 0.25;
/// Fewest operations a run measures, however long they take (twice as
/// many in a traced run, half of them traced).
const MIN_OPS: usize = 3;

/// Environment variables that would change what the library does (a
/// persistent store, a shorter serve deadline); removed at start so the
/// program sees only the generated inputs.
const IGNORED_ENV: [&str; 3] = [
    "OBD_STORE_DIR",
    "OBD_STORE_MAX_BYTES",
    "OBD_SERVE_DEADLINE_MS",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_round: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_round: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--serve-round" => args.serve_round = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Everything a run measured.
pub struct Run {
    pub workload: String,
    pub setup_s: Vec<f64>,
    /// `(wall_s, traced, stats)` per operation.
    pub ops: Vec<(f64, bool, OpStats)>,
    /// Counter deltas of the first traced operation.
    pub counts: trace::Counts,
    pub tracer: Tracer,
    pub rss_mb: f64,
    pub serve: Option<layers::ServeFigures>,
}

impl Run {
    pub fn walls(&self, traced: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.1 == traced)
            .map(|o| o.0)
            .collect()
    }
}

fn measure(args: &Args) -> Result<Run, String> {
    let begin = Instant::now();
    let mut wl = workloads::setup(&args.workload, args.seed)?;
    let group = (SETUP_GROUP_S / begin.elapsed().as_secs_f64().max(1e-9)).ceil() as usize;
    let mut setup_s = Vec::new();
    while setup_s.len() < SETUP_MIN_GROUPS || begin.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t = Instant::now();
        for _ in 0..group {
            wl = workloads::setup(&args.workload, args.seed)?;
        }
        setup_s.push(t.elapsed().as_secs_f64() / group as f64);
    }
    let mut tracer = Tracer::new();
    let mut ops = Vec::new();
    let mut counts = None;
    let min_ops = if args.trace { 2 * MIN_OPS } else { MIN_OPS };
    let start = Instant::now();
    while ops.len() < min_ops || start.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates traced and untraced operations, so the
        // difference of their medians is the tracing overhead.
        let traced = args.trace && ops.len() % 2 == 0;
        if traced {
            obd_metrics::enable();
        }
        tracer.set_on(traced);
        tracer.next_op();
        let before = traced.then(trace::counters);
        let root = tracer.enter("op");
        let t = Instant::now();
        wl.run(&mut tracer)?;
        let wall = t.elapsed().as_secs_f64();
        tracer.exit(root);
        if let Some(before) = before {
            counts.get_or_insert_with(|| trace::delta(&before, &trace::counters()));
        }
        obd_metrics::disable();
        let stats = wl.check()?;
        ops.push((wall, traced, stats));
    }
    if args.trace {
        wl.traced_check()?;
    }
    let mut run = Run {
        workload: args.workload.clone(),
        setup_s,
        ops,
        counts: counts.unwrap_or_default(),
        tracer,
        rss_mb: trace::peak_rss_mb(),
        serve: None,
    };
    if let Some(serve) = wl.as_serve() {
        layers::fold_serve(&mut run, serve);
    }
    Ok(run)
}

/// One `"name": {"value": v, "unit": u}` entry per metric.
fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    for var in IGNORED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.serve_round {
        if let Err(e) = serve::round(std::path::Path::new(dir), args.seed, args.trace) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let run = match measure(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench [{} seed {}]: {e}", args.workload, args.seed);
            std::process::exit(1);
        }
    };
    let metrics = if args.trace {
        let spans = serve::out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = run.tracer.write(&spans) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
            std::process::exit(1);
        }
        match layers::report(&run) {
            Ok((table, metrics)) => {
                eprintln!("{table}spans written to {}", spans.display());
                metrics
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    } else {
        layers::end_to_end(&run)
    };
    let attempted: u64 = run.ops.iter().map(|o| o.2.attempted).sum();
    let failed: u64 = run.ops.iter().map(|o| o.2.failed).sum();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
}
