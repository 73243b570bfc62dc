//! Sample summaries: the percentile rule and means.

/// Percentiles the tail rule may pick from, lowest first, in per mille
/// (integers, so the rule has no rounding edge).
const LADDER: [u64; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of per-mille percentile `pm` among `n` samples.
fn rank(n: usize, pm: u64) -> usize {
    let n = n as u64;
    ((pm * n).div_ceil(1000)).clamp(1, n.max(1)) as usize
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 100]`.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), (p * 10.0).round() as u64) - 1]
}

/// Whether percentile `pm` (per mille) has [`TAIL_MIN_BEYOND`] of `n`
/// samples beyond it.
fn allowed(n: usize, pm: u64) -> bool {
    n >= TAIL_MIN_BEYOND && n - rank(n, pm) >= TAIL_MIN_BEYOND
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&pm| allowed(n, pm))
        .map(|&pm| pm as f64 / 10.0)
}

/// A latency sample set summarised by the percentile rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile, when the rule allows it (`n ≥ 1000`).
    pub p99: Option<f64>,
    /// The highest percentile the rule allows, with its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Some(Self {
            n,
            p50: percentile(&sorted, 50.0),
            p99: allowed(n, 990).then(|| percentile(&sorted, 99.0)),
            tail: tail_percentile(n).map(|p| (p, percentile(&sorted, p))),
        })
    }

    /// One report line: `<prefix>_p50_<unit>`, `<prefix>_p99_<unit>` and
    /// the highest percentile the rule allows, with the sample count.
    #[must_use]
    pub fn line(&self, prefix: &str, unit: &str) -> String {
        let p99 = self.p99.map_or_else(
            || "n/a (fewer than 1000 samples)".to_owned(),
            |v| format!("{v:.1} {unit}"),
        );
        let tail = self.tail.map_or_else(
            || "no percentile has 10 samples beyond it".to_owned(),
            |(p, v)| format!("highest reportable p{p} = {v:.1} {unit}"),
        );
        format!(
            "{prefix}_p50_{unit} = {:.1} {unit}; {prefix}_p99_{unit} = {p99}; {tail}; n = {}",
            self.p50, self.n
        )
    }
}

/// Most slices a run is cut into.
pub const MAX_SLICES: usize = 30;
/// Fewest samples a slice may hold: enough for its p99.
pub const MIN_SLICE_SAMPLES: usize = 1000;

/// A run's statistics as medians over equal time slices, so a disturbance
/// confined to one slice moves none of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Sliced {
    /// Slices used (1 when the run is too short to cut).
    pub slices: usize,
    /// Median over slices of each slice's median.
    pub p50: f64,
    /// Median over slices of each slice's p90.
    pub p90: f64,
    /// Median over slices of each slice's p99.
    pub p99: Option<f64>,
    /// Median over slices of completions per second.
    pub rate: f64,
}

/// The slice of `[start, start + span)` cut into `slices` that holds `t`;
/// times outside fall into the nearest end slice.
fn slice_of(t: f64, start: f64, span: f64, slices: usize) -> usize {
    (((t - start) / span) * slices as f64)
        .floor()
        .clamp(0.0, (slices - 1) as f64) as usize
}

/// Cuts `points` — `(completion time in s, latency)` — into as many equal
/// slices of `[start, end)` as keep [`MIN_SLICE_SAMPLES`] per slice on
/// average (at most [`MAX_SLICES`]), and takes medians over the slices.
#[must_use]
pub fn sliced(points: &[(f64, f64)], start: f64, end: f64) -> Option<Sliced> {
    let span = end - start;
    if points.is_empty() || span <= 0.0 {
        return None;
    }
    let slices = (points.len() / MIN_SLICE_SAMPLES).clamp(1, MAX_SLICES);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(t, v) in points {
        buckets[slice_of(t, start, span, slices)].push(v);
    }
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut p99s = Vec::new();
    let mut rates = Vec::new();
    for b in &buckets {
        let Some(s) = Summary::of(b) else { continue };
        p50s.push(s.p50);
        let mut sorted = b.clone();
        sorted.sort_by(f64::total_cmp);
        p90s.push(percentile(&sorted, 90.0));
        p99s.extend(s.p99);
        rates.push(b.len() as f64 / (span / slices as f64));
    }
    let med = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        percentile(&xs, 50.0)
    };
    Some(Sliced {
        slices,
        p50: med(p50s),
        p90: med(p90s),
        p99: (p99s.len() == slices).then(|| med(p99s)),
        rate: med(rates),
    })
}

/// Median over `slices` equal slices of `[start, end)` of how much a
/// cumulative counter grew per event in each slice. `readings` are
/// `(time, counter value)` in time order, spanning the interval; the
/// counter is read at each slice edge by linear interpolation. Events are
/// bucketed as [`sliced`] buckets its points; slices without events are
/// skipped. `None` when the readings do not span `[start, end]` or no
/// slice holds an event.
#[must_use]
pub fn sliced_per_event(
    readings: &[(f64, f64)],
    events: &[f64],
    start: f64,
    end: f64,
    slices: usize,
) -> Option<f64> {
    let at = |t: f64| -> Option<f64> {
        let i = readings.partition_point(|&(rt, _)| rt < t);
        let (t1, v1) = *readings.get(i)?;
        if t1 == t {
            return Some(v1);
        }
        let (t0, v0) = *readings.get(i.checked_sub(1)?)?;
        Some(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    };
    let span = end - start;
    if slices == 0 || span <= 0.0 {
        return None;
    }
    let mut counts = vec![0usize; slices];
    for &t in events {
        counts[slice_of(t, start, span, slices)] += 1;
    }
    let width = span / slices as f64;
    let mut per_event = Vec::new();
    for (i, &n) in counts.iter().enumerate() {
        let a = start + i as f64 * width;
        let grew = at(a + width)? - at(a)?;
        if n > 0 {
            per_event.push(grew / n as f64);
        }
    }
    if per_event.is_empty() {
        return None;
    }
    per_event.sort_by(f64::total_cmp);
    Some(percentile(&per_event, 50.0))
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_p99_only_when_allowed() {
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = Summary::of(&few).expect("samples");
        assert_eq!(s.p50, 250.0);
        assert_eq!(s.p99, None);
        assert_eq!(s.tail, Some((90.0, 450.0)));

        let many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&many).expect("samples");
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, Some(990.0));
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn slice_medians_ignore_one_disturbed_slice() {
        // 5 s at 1000/s of 100 µs, except that the first second runs at
        // 400 µs.
        let points: Vec<(f64, f64)> = (0..5000)
            .map(|i| {
                let t = f64::from(i) / 1000.0;
                (t, if t < 1.0 { 400.0 } else { 100.0 })
            })
            .collect();
        let s = sliced(&points, 0.0, 5.0).expect("samples");
        assert_eq!(s.slices, 5, "5000 samples give 5 slices of 1000");
        assert_eq!((s.p50, s.p90, s.p99), (100.0, 100.0, Some(100.0)));
        assert_eq!(s.rate, 1000.0);
        let whole = Summary::of(&points.iter().map(|p| p.1).collect::<Vec<_>>()).expect("samples");
        assert_eq!(
            whole.p99,
            Some(400.0),
            "unsliced, the disturbance sets the p99"
        );

        let short: Vec<(f64, f64)> = (0..500).map(|i| (f64::from(i) / 100.0, 1.0)).collect();
        let s = sliced(&short, 0.0, 5.0).expect("samples");
        assert_eq!((s.slices, s.p99), (1, None));
        assert_eq!(s.rate, 100.0);
    }

    #[test]
    fn counter_growth_per_event_is_a_slice_median() {
        // A counter read every 0.25 s over 5 s that grows 10 per second,
        // except 40 per second in the first; 100 events per second.
        let readings: Vec<(f64, f64)> = (0..=20)
            .map(|i| {
                let t = f64::from(i) / 4.0;
                (
                    t,
                    if t < 1.0 {
                        40.0 * t
                    } else {
                        40.0 + 10.0 * (t - 1.0)
                    },
                )
            })
            .collect();
        let events: Vec<f64> = (0..500).map(|i| f64::from(i) / 100.0).collect();
        let got = sliced_per_event(&readings, &events, 0.0, 5.0, 5).expect("spans");
        assert!((got - 0.1).abs() < 1e-12, "{got}");
        // An edge between readings is interpolated.
        let got = sliced_per_event(&readings, &events, 0.1, 4.1, 4).expect("spans");
        assert!((got - 0.1).abs() < 1e-12, "{got}");
        assert_eq!(sliced_per_event(&readings, &events, 0.0, 6.0, 5), None);
        assert_eq!(sliced_per_event(&readings, &[], 0.0, 5.0, 5), None);
    }

    #[test]
    fn nearest_rank_is_exact_on_small_sets() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 75.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }
}
