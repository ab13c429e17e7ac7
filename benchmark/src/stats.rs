//! The benchmark's statistics, done once: medians and quartiles over
//! reps, the highest percentile a sample pool supports, and span
//! self-time subtraction for the layer replay.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median, `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method the driver uses), `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    Some([1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// Nearest-rank percentile `p` in `[0, 1]` of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a p99 of 400
/// samples rests on four of them and is refused.
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    // The epsilon keeps 100 × (1 − 0.9) = 9.999… from reading as nine.
    let beyond = (samples.len() as f64 * (1.0 - p) + 1e-9).floor() as usize;
    if samples.is_empty() || (p > 0.5 && beyond < MIN_BEYOND) {
        return None;
    }
    let v = sorted(samples);
    Some(v[((v.len() - 1) as f64 * p).round() as usize])
}

/// The highest percentile of the ladder p50 / p90 / p99 / p99.9 that
/// `samples` supports, with its value.
pub fn highest_supported(samples: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find_map(|p| supported_percentile(samples, p).map(|v| (p, v)))
}

/// One recorded span: `[start, end)` in ns and the index of the span
/// that caused it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    /// Shared by every span of one burst.
    pub id: u32,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other or
/// stick out of the parent; the covered part is the union of the
/// children clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    let mut children: Vec<u32> = (0..spans.len() as u32)
        .filter(|&i| spans[i as usize].parent.is_some())
        .collect();
    children.sort_by_key(|&i| (spans[i as usize].parent, spans[i as usize].start));
    let mut i = 0;
    while i < children.len() {
        let parent = spans[children[i] as usize].parent.expect("filtered") as usize;
        let (lo, hi) = (spans[parent].start, spans[parent].end);
        let mut covered = 0u64;
        // Sweep the children in start order, merging overlaps.
        let mut reach = lo;
        while i < children.len() && spans[children[i] as usize].parent == Some(parent as u32) {
            let c = &spans[children[i] as usize];
            let (start, end) = (c.start.max(reach), c.end.min(hi));
            if end > start {
                covered += end - start;
                reach = end;
            }
            i += 1;
        }
        own[parent] = own[parent].saturating_sub(covered);
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
        assert_eq!(iqr_share(&[]), None);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let pool: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_percentile(&pool, 0.99), None);
        assert_eq!(supported_percentile(&pool, 0.5), Some(499.0));
        let pool: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&pool, 0.99), Some(989.0));
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        let pool: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(highest_supported(&pool), Some((0.9, 134.0)));
        let pool: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(highest_supported(&pool).map(|(p, _)| p), Some(0.999));
        assert_eq!(highest_supported(&[1.0, 2.0, 3.0]), Some((0.5, 2.0)));
        assert_eq!(highest_supported(&[]), None);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // burst [0,100) > a [10,40) > a1 [20,30); burst > b [50,70)
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_protruding_children_count_once() {
        // Children [10,50) and [30,70) overlap; [90,120) sticks out of
        // the parent [0,100): covered = 60 + 10.
        let spans = [
            span(0, 100, None),
            span(30, 70, Some(0)),
            span(10, 50, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 40, 30]);
    }

    #[test]
    fn childless_and_empty_inputs() {
        assert_eq!(self_times(&[]), Vec::<u64>::new());
        assert_eq!(self_times(&[span(5, 9, None)]), vec![4]);
    }
}
