//! Percentiles and the end-to-end metrics of a measured phase.

use crate::drive::Phase;

/// Nearest-rank quantile of sorted values (0 for none).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted values (0 for none).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One named, unit-carrying number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Latency percentiles (µs) of one class of ops.
pub struct Lat {
    /// Samples.
    pub n: usize,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
}

fn lat(mut ns: Vec<u64>) -> Lat {
    ns.sort_unstable();
    Lat {
        n: ns.len(),
        p50_us: quantile(&ns, 0.50) / 1e3,
        p99_us: quantile(&ns, 0.99) / 1e3,
    }
}

/// Throughput and latency of a phase, over all its ops and split into
/// reads and writes.
pub struct E2e {
    /// Completed ops per second.
    pub ops_per_s: f64,
    /// All ops.
    pub all: Lat,
    /// Read-only ops.
    pub read: Lat,
    /// Mutating ops.
    pub write: Lat,
}

impl E2e {
    /// Summarize `phase`.
    pub fn of(phase: &Phase) -> Self {
        let samples = || phase.runs.iter().flat_map(|r| r.samples.iter());
        E2e {
            ops_per_s: phase.ops() as f64 / (phase.elapsed_ns as f64 / 1e9),
            all: lat(samples().map(|s| s.lat_ns).collect()),
            read: lat(samples().filter(|s| s.read).map(|s| s.lat_ns).collect()),
            write: lat(samples().filter(|s| !s.read).map(|s| s.lat_ns).collect()),
        }
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
