//! The serve workload: a seeded JSONL batch drained twice by `nproc`
//! workers against a fresh store, once cold (writes the store) and once
//! warm (reads it back).
//!
//! The store is process-wide and opened once, so every round runs in a
//! child process of this benchmark (`--serve-round <dir>`) with its own
//! store directory. The child reports on stdout, one fact per line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use obd_bench::experiments::serve::{parse_batch, run_batch, JobStatus, ServeReport};

use crate::trace::{self, Counts, Tracer};
use crate::workloads::{derive, nproc, OpStats, Workload};

/// Jobs per batch, by kind. Sized so that no kind dominates a pass.
const TABLE1_JOBS: usize = 12;
const GRADE_JOBS: usize = 24;
const FLEET_JOBS: usize = 48;
const NOOP_JOBS: usize = 48;

/// Per-job sizes. Fixed, so that only the seeds handed to the jobs and
/// the queue order change with the workload seed.
const GRADE_TESTS: u64 = 48;
const FLEET_DEVICES: u64 = 8_000;
const NOOP_SPINS: u64 = 786_432;

/// Set-ups timed per round; the median is reported.
const SETUP_REPS: usize = 5;

/// Seeds handed to grade and fleet jobs are drawn from every integer a
/// job's JSON number holds exactly, zero included.
const MAX_EXACT_SEED: u64 = 1 << 53;

/// SplitMix64 stream for batch generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// The seeded JSONL batch: fixed job counts and sizes per kind, seeded
/// job seeds and a seeded queue order.
pub fn batch_text(seed: u64) -> String {
    let mut rng = Rng(derive(seed, "serve"));
    let mut lines = Vec::new();
    for _ in 0..TABLE1_JOBS {
        lines.push(r#""kind": "table1", "resolution": "fast""#.to_string());
    }
    for i in 0..GRADE_JOBS {
        let circuit = ["c17", "rca32"][i % 2];
        let seed = rng.range(0, MAX_EXACT_SEED);
        lines.push(format!(
            r#""kind": "grade", "circuit": "{circuit}", "tests": {GRADE_TESTS}, "seed": {seed}"#
        ));
    }
    for _ in 0..FLEET_JOBS {
        let seed = rng.range(0, MAX_EXACT_SEED);
        lines.push(format!(
            r#""kind": "fleet", "circuit": "c17", "devices": {FLEET_DEVICES}, "seed": {seed}"#
        ));
    }
    for _ in 0..NOOP_JOBS {
        lines.push(format!(r#""kind": "noop", "spins": {NOOP_SPINS}"#));
    }
    // Fisher–Yates shuffle of the queue order.
    for i in (1..lines.len()).rev() {
        let j = rng.range(0, i as u64) as usize;
        lines.swap(i, j);
    }
    lines
        .iter()
        .enumerate()
        .map(|(i, body)| format!("{{\"id\": \"j{i:03}\", {body}}}\n"))
        .collect()
}

/// Figures of one round, as reported by the child.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub cold_s: f64,
    pub warm_s: f64,
    pub rss_mb: f64,
    /// `(pass, kind, wall_ms)` per job.
    pub jobs: Vec<(String, String, f64)>,
    /// Counter deltas per pass (traced rounds only).
    pub counters: BTreeMap<String, Counts>,
    /// `(name, start_ns, end_ns)` relative to the child's start.
    pub spans: Vec<(String, u64, u64)>,
    pub stats: OpStats,
}

impl Round {
    fn parse(text: &str) -> Result<Round, String> {
        let mut r = Round::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| -> Result<f64, String> {
                f.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("serve round: bad line '{line}'"))
            };
            match f.first().copied() {
                Some("setup_s") => r.setup_s = num(1)?,
                Some("rss_mb") => r.rss_mb = num(1)?,
                Some("pass") => {
                    let (secs, start, end) = (num(2)?, num(3)? as u64, num(4)? as u64);
                    match f[1] {
                        "cold" => r.cold_s = secs,
                        _ => r.warm_s = secs,
                    }
                    r.spans.push((format!("serve.{}_pass", f[1]), start, end));
                }
                Some("job") => r.jobs.push((f[1].into(), f[2].into(), num(3)?)),
                Some("counter") => {
                    r.counters
                        .entry(f[1].into())
                        .or_default()
                        .insert(f[2].into(), num(3)? as u64);
                }
                Some("stats") => {
                    r.stats = OpStats {
                        attempted: num(1)? as u64,
                        failed: num(2)? as u64,
                        items: num(3)?,
                        coverage: num(4)?,
                        tests: num(5)?,
                    }
                }
                _ => return Err(format!("serve round: unexpected line '{line}'")),
            }
        }
        if r.cold_s == 0.0 || r.warm_s == 0.0 {
            return Err("serve round: missing pass times".into());
        }
        Ok(r)
    }

    /// Job seconds over both passes, of one kind or of every kind.
    pub fn busy_s(&self, kind: Option<&str>) -> f64 {
        self.jobs
            .iter()
            .filter(|(_, k, _)| kind.is_none_or(|kind| k == kind))
            .map(|(_, _, ms)| ms / 1e3)
            .sum()
    }
}

/// Parent side: one child process per round.
pub struct Serve {
    seed: u64,
    last: Option<Round>,
    /// Every round so far, for medians and job percentiles.
    pub done: Vec<Round>,
}

impl Serve {
    pub fn new(seed: u64) -> Self {
        Serve {
            seed,
            last: None,
            done: Vec::new(),
        }
    }
}

/// Directory for the benchmark's scratch files, inside the repository.
pub fn out_dir() -> PathBuf {
    Path::new("perfbench").join("out")
}

impl Workload for Serve {
    fn run(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let round = self.done.len() + 1;
        let dir = out_dir().join(format!("store-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let origin = tracer.now_ns();
        let traced = tracer.is_on();
        let out = Command::new(exe)
            .arg("--serve-round")
            .arg(&dir)
            .args(["--seed", &self.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn serve round: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        let out = out?;
        if !out.status.success() {
            return Err(format!("serve round exited with {}", out.status));
        }
        let round = Round::parse(&String::from_utf8_lossy(&out.stdout))?;
        for (name, start, end) in &round.spans {
            tracer.import(name, origin + start, origin + end);
        }
        self.last = Some(round);
        Ok(())
    }

    fn check(&mut self) -> Result<OpStats, String> {
        // The child checks its own outputs and exits nonzero on a
        // mismatch; here only the round's figures are collected.
        let round = self.last.take().expect("check follows run");
        let stats = round.stats.clone();
        self.done.push(round);
        Ok(stats)
    }

    fn as_serve(&self) -> Option<&Serve> {
        Some(self)
    }
}

/// Child side: set up, drain cold, drain warm, check, report.
pub fn round(store_dir: &Path, seed: u64, trace: bool) -> Result<(), String> {
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        jobs = parse_batch(&batch_text(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    if obd_store::set_global_dir(store_dir).is_none() {
        return Err(format!("cannot open store at {}", store_dir.display()));
    }
    let setup_s = trace::median(setups) + t.elapsed().as_secs_f64();
    if trace {
        obd_metrics::enable();
    }
    let mut lines = vec![format!("setup_s {setup_s}")];
    let mut drain = |pass: &str| -> ServeReport {
        let before = trace::counters();
        let start = now_ns();
        let report = run_batch(&jobs, nproc());
        let end = now_ns();
        lines.push(format!(
            "pass {pass} {} {start} {end}",
            (end - start) as f64 * 1e-9
        ));
        for (name, v) in trace::delta(&before, &trace::counters()) {
            lines.push(format!("counter {pass} {name} {v}"));
        }
        for j in &report.jobs {
            lines.push(format!("job {pass} {} {}", j.kind, j.wall_ms));
        }
        report
    };
    let cold = drain("cold");
    let warm = drain("warm");
    check(&cold, &warm)?;

    let failed = [&cold, &warm]
        .iter()
        .flat_map(|r| &r.jobs)
        .filter(|j| j.status != JobStatus::Done)
        .count();
    let (mut detected, mut faults, mut tests) = (0u64, 0u64, 0u64);
    for j in cold.jobs.iter().filter(|j| j.kind == "grade") {
        let field = |key: &str| -> u64 {
            j.artifact
                .as_deref()
                .and_then(|a| a.lines().find_map(|l| l.strip_prefix(key)))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        detected += field("detected:");
        faults += field("faults:");
        tests += field("tests:");
    }
    let attempted = cold.jobs.len() + warm.jobs.len();
    lines.push(format!("rss_mb {}", trace::peak_rss_mb()));
    lines.push(format!(
        "stats {attempted} {failed} {attempted} {} {tests}",
        detected as f64 / faults.max(1) as f64
    ));
    println!("{}", lines.join("\n"));
    Ok(())
}

/// The serve oracle: every job terminal, cold and warm passes agree on
/// every job's status, detail and artifact bytes.
fn check(cold: &ServeReport, warm: &ServeReport) -> Result<(), String> {
    if cold.jobs.len() != warm.jobs.len() {
        return Err("serve: passes returned different job counts".into());
    }
    for (c, w) in cold.jobs.iter().zip(&warm.jobs) {
        if c.attempts == 0 || w.attempts == 0 {
            return Err(format!("serve: job {} never reached a worker", c.id));
        }
        if c.status != w.status || c.artifact != w.artifact {
            return Err(format!("serve: job {} differs between cold and warm", c.id));
        }
    }
    if cold.canonical_jsonl() != warm.canonical_jsonl() {
        return Err("serve: canonical results differ between cold and warm".into());
    }
    Ok(())
}
