//! `repro monte`: the batched Monte Carlo variation campaign, and
//! `repro variation`, a view over two such campaigns.
//!
//! Samples process corners around the DATE-05 technology and measures
//! the Table 1 probe set at every corner (engine:
//! [`obd_core::monte`]). Writes `results/MONTE_run.json`, which is
//! byte-identical for a fixed seed regardless of `OBD_MONTE_THREADS` —
//! corner `k` derives its RNG stream from `(seed, k)` alone and results
//! land in per-index slots, so scheduling never reorders the artifact.
//!
//! `repro variation` (extension X8) asks §3.3's question — does a
//! breakdown's delay shift clear process noise? — of two [`run_monte`]
//! reports: the fault-free fall's spread across 5 %-spread corners, and
//! each stage's NMOS-fall shift at the nominal corner.

use obd_cmos::TechParams;
use obd_core::characterize::BenchConfig;
use obd_core::monte::{run_monte, MonteConfig, MonteReport};
use obd_core::{BreakdownStage, ObdError, Polarity};

/// Builds the campaign configuration from a key → value lookup;
/// [`config_from_env`] feeds it the process environment, tests feed it a
/// map. Unset or malformed values keep the library defaults.
///
/// Keys: `OBD_MONTE_SAMPLES`, `OBD_MONTE_SEED` (decimal or 0x-hex),
/// `OBD_MONTE_THREADS`, `OBD_MONTE_SPREAD` (relative 1-sigma, e.g.
/// `0.05`), `OBD_MONTE_AT_SPEED_PS`, `OBD_MONTE_STEP_PS` (transient step
/// for fast smoke runs), `OBD_MONTE_STAGES` (comma-separated stage names,
/// e.g. `sbd,mbd2`).
pub fn config_from(get: impl Fn(&str) -> Option<String>) -> MonteConfig {
    let mut cfg = MonteConfig::new();
    cfg.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let trimmed = |name: &str| get(name).map(|s| s.trim().to_string());
    let u64_of = |name: &str| -> Option<u64> {
        let t = trimmed(name)?;
        match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => t.parse().ok(),
        }
    };
    let f64_of = |name: &str| -> Option<f64> { trimmed(name)?.parse().ok() };
    if let Some(samples) = u64_of("OBD_MONTE_SAMPLES") {
        cfg.samples = (samples.max(1)) as usize;
    }
    if let Some(seed) = u64_of("OBD_MONTE_SEED") {
        cfg.seed = seed;
    }
    if let Some(threads) = u64_of("OBD_MONTE_THREADS") {
        cfg.threads = (threads.max(1)) as usize;
    }
    if let Some(spread) = f64_of("OBD_MONTE_SPREAD") {
        if spread.is_finite() && spread >= 0.0 {
            cfg.spread = spread;
        }
    }
    if let Some(limit) = f64_of("OBD_MONTE_AT_SPEED_PS") {
        if limit.is_finite() && limit > 0.0 {
            cfg.at_speed_ps = limit;
        }
    }
    if let Some(step) = f64_of("OBD_MONTE_STEP_PS") {
        if step.is_finite() && step > 0.0 {
            cfg.bench.step_ps = step;
        }
    }
    if let Some(stages) = parse_stages(trimmed("OBD_MONTE_STAGES").as_deref()) {
        cfg.stages = stages;
    }
    cfg
}

/// The campaign configuration the verb runs: library defaults, machine-
/// sized thread count, plus the `OBD_MONTE_*` environment overrides.
pub fn config_from_env() -> MonteConfig {
    config_from(|name| std::env::var(name).ok())
}

/// Parses a comma-separated stage list (`sbd,mbd2`); `None` when the
/// variable is unset or any name is unknown (keep the default rather
/// than silently dropping probes).
fn parse_stages(spec: Option<&str>) -> Option<Vec<BreakdownStage>> {
    let spec = spec?;
    let mut out = Vec::new();
    for name in spec.split(',') {
        let stage = match name.trim().to_ascii_lowercase().as_str() {
            "sbd" => BreakdownStage::Sbd,
            "mbd1" => BreakdownStage::Mbd1,
            "mbd2" => BreakdownStage::Mbd2,
            "mbd3" => BreakdownStage::Mbd3,
            "hbd" => BreakdownStage::Hbd,
            _ => return None,
        };
        out.push(stage);
    }
    Some(out)
}

/// `repro variation`'s view: the fault-free fall's spread across corners
/// and each stage's NMOS-fall shift at the nominal corner.
#[derive(Debug, Clone)]
pub struct Variation {
    /// Corners whose fault-free fall completed.
    pub corners: usize,
    /// Mean and population standard deviation of the fault-free fall (ps).
    pub mean_ps: f64,
    pub sigma_ps: f64,
    /// `(stage, shift (ps; infinite when stuck), shift ÷ sigma)` rows.
    pub stages: Vec<(BreakdownStage, f64, f64)>,
}

/// Runs the two campaigns: `samples` corners at 5 % spread probing only
/// the fault-free cell, and one spread-0 corner — exactly the nominal
/// technology — probing SBD through MBD3.
///
/// # Errors
///
/// Campaign errors, and any measurement that degraded.
pub fn run_variation(
    tech: &TechParams,
    samples: usize,
    bench: &BenchConfig,
) -> Result<Variation, ObdError> {
    use BreakdownStage::{Mbd1, Mbd2, Mbd3, Sbd};
    let mut cfg = config_from(|_| None);
    cfg.bench = bench.clone();
    cfg.seed = 0xFAB5;
    cfg.samples = samples;
    cfg.stages = vec![];
    let spread = run_monte(tech, &cfg)?;
    cfg.samples = 1;
    cfg.spread = 0.0;
    cfg.stages = vec![Sbd, Mbd1, Mbd2, Mbd3];
    let nominal = run_monte(tech, &cfg)?;
    match spread.degraded_total + nominal.degraded_total {
        0 => Ok(Variation::of(&spread, &nominal)),
        n => Err(ObdError::CorruptMeasurement(format!(
            "{n} variation measurements degraded"
        ))),
    }
}

/// Whether a shift of `z` sigma clears process noise.
fn screenable(z: f64) -> bool {
    z > 3.0
}

impl Variation {
    /// The view: mean and sigma of `spread`'s fault-free fall, and each
    /// NMOS-fall probe of `nominal` less its fault-free fall.
    pub fn of(spread: &MonteReport, nominal: &MonteReport) -> Self {
        let fault_free = |r: &MonteReport| {
            let p = r.probes.iter().find(|p| p.label == "fault_free_fall");
            p.map_or(Vec::new(), |p| p.delays_ps.clone())
        };
        let samples = fault_free(spread);
        let n = samples.len().max(1) as f64;
        let mean_ps = samples.iter().sum::<f64>() / n;
        let sigma_ps = (samples.iter().map(|d| (d - mean_ps).powi(2)).sum::<f64>() / n).sqrt();
        let base = fault_free(nominal).first().map_or(f64::NAN, |&d| d);
        let stages = nominal
            .probes
            .iter()
            .filter(|p| p.polarity == Some(Polarity::Nmos))
            .filter_map(|p| {
                let shift = p.delays_ps.first().map_or(f64::INFINITY, |&d| d - base);
                Some((p.stage?, shift, shift / sigma_ps.max(1e-9)))
            })
            .collect();
        Variation {
            corners: samples.len(),
            mean_ps,
            sigma_ps,
            stages,
        }
    }

    /// MBD stages whose shift does not clear 3 sigma (none should).
    pub fn unscreened(&self) -> Vec<BreakdownStage> {
        self.stages
            .iter()
            .filter(|&&(stage, _, z)| stage != BreakdownStage::Sbd && !screenable(z))
            .map(|&(stage, _, _)| stage)
            .collect()
    }

    /// Renders the `variation.txt` table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "fault-free NAND fall delay across {} process corners: mean {:.0} ps, sigma {:.1} ps\n",
            self.corners, self.mean_ps, self.sigma_ps
        );
        s.push_str("stage   delay shift    shift/sigma   screenable at 3-sigma?\n");
        for &(stage, shift, z) in &self.stages {
            let verdict = if screenable(z) {
                "yes"
            } else {
                "no — hides in process noise"
            };
            s.push_str(&format!(
                "{:<6} {shift:>9.0} ps   {z:>9.1}    {verdict}\n",
                stage.to_string()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg_of(pairs: &[(&str, &str)]) -> MonteConfig {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        config_from(|name| map.get(name).cloned())
    }

    #[test]
    fn defaults_survive_an_empty_environment() {
        let base = MonteConfig::new();
        let cfg = cfg_of(&[]);
        assert_eq!(cfg.samples, base.samples);
        assert_eq!(cfg.seed, base.seed);
        assert_eq!(cfg.spread, base.spread);
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn overrides_parse_and_clamp() {
        let cfg = cfg_of(&[
            ("OBD_MONTE_SAMPLES", "3"),
            ("OBD_MONTE_SEED", "0xBEEF"),
            ("OBD_MONTE_THREADS", "2"),
            ("OBD_MONTE_SPREAD", "0.1"),
            ("OBD_MONTE_AT_SPEED_PS", "700"),
            ("OBD_MONTE_STEP_PS", "8"),
            ("OBD_MONTE_STAGES", "mbd2, hbd"),
        ]);
        assert_eq!(cfg.samples, 3);
        assert_eq!(cfg.seed, 0xBEEF);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.spread, 0.1);
        assert_eq!(cfg.at_speed_ps, 700.0);
        assert_eq!(cfg.bench.step_ps, 8.0);
        assert_eq!(cfg.stages, vec![BreakdownStage::Mbd2, BreakdownStage::Hbd]);
    }

    #[test]
    fn malformed_values_keep_defaults() {
        let base = MonteConfig::new();
        let cfg = cfg_of(&[
            ("OBD_MONTE_SAMPLES", "zero"),
            ("OBD_MONTE_SPREAD", "NaN"),
            ("OBD_MONTE_STEP_PS", "-4"),
            ("OBD_MONTE_STAGES", "sbd,unknown"),
        ]);
        assert_eq!(cfg.samples, base.samples);
        assert_eq!(cfg.spread, base.spread);
        assert_eq!(cfg.bench.step_ps, base.bench.step_ps);
        assert_eq!(cfg.stages, base.stages);
    }

    #[test]
    fn zero_counts_clamp_to_one() {
        let cfg = cfg_of(&[("OBD_MONTE_SAMPLES", "0"), ("OBD_MONTE_THREADS", "0")]);
        assert_eq!(cfg.samples, 1);
        assert_eq!(cfg.threads, 1);
    }
}
