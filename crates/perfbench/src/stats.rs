//! Numbers the benchmark derives itself: slice medians and quartiles,
//! quantiles of the *difference* of two cumulative histograms, and the
//! `/proc` readers behind CPU time and peak RSS.

use streamshed_engine::histo::{bucket_high, bucket_index, bucket_low};
use streamshed_engine::spans::ProfileSnapshot;
use streamshed_engine::Histo;

/// Median and quartiles of one metric over the slices of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStat {
    /// The reported value: the median over slices.
    pub median: f64,
    /// First quartile over slices.
    pub q1: f64,
    /// Third quartile over slices.
    pub q3: f64,
    /// Number of slices.
    pub slices: usize,
    /// Median number of samples behind one slice's value (frames,
    /// sojourn samples, tuples — whatever the metric counts).
    pub samples: u64,
}

impl SliceStat {
    /// Summarises per-slice `(value, samples)` pairs.
    pub fn from_slices(per_slice: &[(f64, u64)]) -> Self {
        assert!(!per_slice.is_empty(), "a run has at least one slice");
        let values: Vec<f64> = per_slice.iter().map(|p| p.0).collect();
        let counts: Vec<f64> = per_slice.iter().map(|p| p.1 as f64).collect();
        let (q1, median, q3) = quartiles(&values);
        Self {
            median,
            q1,
            q3,
            slices: values.len(),
            samples: quartiles(&counts).1 as u64,
        }
    }

    /// A value measured once over the whole window (CPU time, peak RSS).
    pub fn single(value: f64, samples: u64) -> Self {
        Self {
            median: value,
            q1: value,
            q3: value,
            slices: 1,
            samples,
        }
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` gives them (the "exclusive" method), so the spreads printed
/// here are the ones a pipeline computing them in Python sees. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are not NaN"));
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = v.len() + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The cumulative bucket counts of a [`Histo`], read through its public
/// surface (`cumulative_le` at every `bucket_high`). Two of these taken
/// at a slice's boundaries difference into that slice's own histogram.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    /// `cum[i]` = recorded values in buckets `0..=i`.
    cum: Vec<u64>,
    /// Σ of recorded values.
    pub sum: u64,
}

impl Cdf {
    /// Reads `h`'s cumulative counts up to its largest occupied bucket.
    pub fn of(h: &Histo) -> Self {
        if h.count() == 0 {
            return Self::default();
        }
        let top = bucket_index(h.max());
        Self {
            cum: (0..=top).map(|i| h.cumulative_le(bucket_high(i))).collect(),
            sum: h.sum(),
        }
    }

    /// Bucket-wise sum of two cumulative reads (shards merged).
    pub fn merged(&self, other: &Cdf) -> Cdf {
        let n = self.cum.len().max(other.cum.len());
        Cdf {
            cum: (0..n).map(|i| self.at(i) + other.at(i)).collect(),
            sum: self.sum + other.sum,
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.cum.last().copied().unwrap_or(0)
    }

    fn at(&self, i: usize) -> u64 {
        // Past the top bucket the cumulative count stays at the total.
        self.cum.get(i).copied().unwrap_or_else(|| self.count())
    }
}

/// Quantile `q` of the values recorded between `earlier` and `later`
/// (two cumulative reads of one monotone histogram): the bucket holding
/// the `ceil(q·n)`-th smallest value — the bucket [`Histo::quantile`]
/// reports the midpoint of — interpolated linearly by the rank's position
/// among the bucket's own values, so that a percentile sitting in one
/// 4 ms-wide bucket run after run still shows which way it leans. `None`
/// when nothing was recorded.
pub fn diff_quantile(earlier: &Cdf, later: &Cdf, q: f64) -> Option<u64> {
    let total = later
        .count()
        .checked_sub(earlier.count())
        .filter(|&n| n > 0)?;
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let upto = |i: usize| later.at(i) - earlier.at(i);
    let idx = (0..later.cum.len()).find(|&i| upto(i) >= rank)?;
    let below = if idx == 0 { 0 } else { upto(idx - 1) };
    let share = (rank - below) as f64 / (upto(idx) - below + 1) as f64;
    let (low, high) = (bucket_low(idx), bucket_high(idx));
    Some(low + ((high - low) as f64 * share) as u64)
}

/// Which histogram of a [`ProfileSnapshot`] label to read.
#[derive(Debug, Clone, Copy)]
pub enum Series {
    /// Sampled end-to-end sojourn.
    Sojourn,
    /// One pipeline stage.
    Stage(streamshed_engine::Stage),
}

/// Merged cumulative read of `series` over the labels `keep` accepts.
/// Shard workers register under their shard index (`"0"`, `"1"`, …) and
/// listener threads under `"netN"`; the snapshot's own merged `sojourn`
/// mixes the two (frame turnarounds with tuple sojourns), which is why
/// every delay number here selects labels.
pub fn label_cdf(snap: &ProfileSnapshot, series: Series, keep: fn(&str) -> bool) -> Cdf {
    snap.labels
        .iter()
        .filter(|l| keep(&l.label))
        .fold(Cdf::default(), |acc, l| {
            let h = match series {
                Series::Sojourn => &l.sojourn,
                Series::Stage(s) => &l.stages[s.index()],
            };
            acc.merged(&Cdf::of(h))
        })
}

/// A shard worker's span label.
pub fn is_shard_label(label: &str) -> bool {
    label.parse::<usize>().is_ok()
}

/// A listener thread's span label.
pub fn is_net_label(label: &str) -> bool {
    label.starts_with("net")
}

/// `utime + stime` in clock ticks from the text of a `/proc/<…>/stat`
/// file. The command name (field 2) may contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, fixed at 100.
const NS_PER_TICK: u64 = 10_000_000;

fn cpu_ns_of(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0, |t| t * NS_PER_TICK)
}

/// CPU time of the whole process so far, ns (0 where `/proc` is absent).
pub fn process_cpu_ns() -> u64 {
    cpu_ns_of("/proc/self/stat")
}

/// CPU time of the calling thread so far, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns_of("/proc/thread-self/stat")
}

/// Summed CPU time, ns, of the process's threads whose name starts with
/// `prefix` (the listener threads are named `streamshed-net-N`; the
/// kernel truncates names to 15 bytes).
pub fn named_threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .map(|t| cpu_ns_of(&t.path().join("stat").to_string_lossy()))
        .sum()
}

/// Peak resident set of the process, MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}
