//! Tracing from the benchmark's own side: spans around each public call
//! into a layer, counter deltas read from `obd_metrics::snapshot()`, and
//! the per-layer report printed by a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a layer call made by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Operation (request) the span belongs to; spans of one operation
    /// share it.
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Spans stay in memory until [`Tracer::write`] at the end
/// of the run. A disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    on: bool,
    op: usize,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            on: false,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next operation; later spans carry its number.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds a span measured elsewhere (a child process) under the open
    /// span, clamped into the open span's interval so children never
    /// outlast their parent.
    pub fn import(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        let lo = parent.map_or(0, |p| self.spans[p].start_ns);
        let hi = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            op: self.op,
            start_ns: start_ns.clamp(lo, hi),
            end_ns: end_ns.clamp(lo, hi),
        });
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// The per-layer table: per span name, calls, total and self seconds
    /// per operation, and share of the untraced `wall_s`. Fails if any
    /// span's children last longer than the span itself.
    pub fn report(&self, ops: usize, wall_s: f64) -> Result<String, String> {
        let selfs = self.self_secs();
        let mut child_sum = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.secs();
            }
        }
        // Rows in order of each span name's first appearance, so the
        // operation comes first and its layers follow in call order.
        let mut rows: Vec<(&str, (usize, f64, f64))> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Every span the benchmark records runs on the calling thread,
            // so its children run one after another inside it.
            if child_sum[i] > s.secs() + 1e-6 {
                return Err(format!(
                    "span {} lasts {:.6} s but its children sum to {:.6} s",
                    s.name,
                    s.secs(),
                    child_sum[i]
                ));
            }
            let r = match rows.iter().position(|r| r.0 == s.name) {
                Some(k) => &mut rows[k].1,
                None => {
                    rows.push((&s.name, (0, 0.0, 0.0)));
                    &mut rows.last_mut().expect("just pushed").1
                }
            };
            r.0 += 1;
            r.1 += s.secs();
            r.2 += selfs[i];
        }
        let ops = ops.max(1) as f64;
        let mut out = String::from(
            "span                        calls   total_s/op    self_s/op   share_of_wall\n",
        );
        for (name, (calls, total, selfs)) in rows {
            writeln!(
                out,
                "{name:<27} {calls:>6} {:>12.6} {:>12.6} {:>14.3}",
                total / ops,
                selfs / ops,
                selfs / ops / wall_s.max(f64::MIN_POSITIVE)
            )
            .expect("writing to a String cannot fail");
        }
        Ok(out)
    }

    /// Median over operations of the summed duration of spans named
    /// `name` (0 when the workload makes no such call).
    pub fn per_op_secs(&self, name: &str) -> f64 {
        let mut per_op: BTreeMap<usize, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(s.op).or_default() += s.secs();
        }
        median(per_op.into_values().collect())
    }

    /// Median over operations of the self time of spans named `name`.
    pub fn per_op_self_secs(&self, name: &str) -> f64 {
        let selfs = self.self_secs();
        let mut per_op: BTreeMap<usize, f64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            if s.name == name {
                *per_op.entry(s.op).or_default() += t;
            }
        }
        median(per_op.into_values().collect())
    }
}

/// Counter values by name.
pub type Counts = BTreeMap<String, u64>;

/// Current value of every counter touched so far.
pub fn counters() -> Counts {
    obd_metrics::snapshot().counters.into_iter().collect()
}

/// `after − before` for every counter in `after`.
pub fn delta(before: &Counts, after: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, &v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Median of a sample (0 for an empty one).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        0.5 * (v[m - 1] + v[m])
    } else {
        v[m]
    }
}

/// Nearest-rank percentile (0 for an empty sample).
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
