//! The benchmark's clock, its in-memory span log and the statistics it
//! reports.
//!
//! Every wall-clock read of the benchmark goes through [`now`]. Spans
//! are recorded only in the traced run; they carry a name, a slot or
//! command index, the span that caused them, and their start and end as
//! offsets from the run's origin. They stay in memory until the run
//! ends and are then written out as one TSV file.

use std::time::{Duration, Instant};

/// The benchmark's one clock read.
pub fn now() -> Instant {
    // audit:allow(D2): the benchmark measures wall time around engine calls; no reading flows back into the engine
    Instant::now()
}

/// Milliseconds between two instants.
pub fn ms(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e3
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Slot index for engine spans, command index for serve spans.
    pub index: u32,
    /// Position of the causing span in the log.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its position, which children
    /// name as their parent.
    pub fn add(
        &mut self,
        name: &'static str,
        index: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            index,
            parent,
            start: start.duration_since(self.origin),
            end: end.duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Durations (ms) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// A span's duration minus the part its children cover (ms).
    pub fn self_ms(&self, at: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(at))
            .map(Span::ms)
            .sum();
        self.spans[at].ms() - children
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The whole log as TSV: one header line, one span per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tindex\tparent\tstart_us\tend_us\tself_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{}\t{}\t{parent}\t{:.1}\t{:.1}\t{:.1}\n",
                s.name,
                s.index,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                self.self_ms(i) * 1e3
            ));
        }
        out
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of up to five group means, the samples dealt to the
/// groups in turn (at least four samples per group), so every group
/// spans the whole run. On a host that switches between speed modes
/// for seconds at a time, a short sample lands in one mode and a plain
/// median jumps from one mode to the other as their shares of the run
/// cross a half; a group mean moves with the shares, and the median of
/// the groups still ignores a stall that hits one group. NaN when empty.
pub fn median_of_means(values: &[f64]) -> f64 {
    let groups = (values.len() / 4).clamp(1, 5);
    let means: Vec<f64> = (0..groups)
        .map(|g| {
            let group: Vec<f64> = values.iter().skip(g).step_by(groups).copied().collect();
            group.iter().sum::<f64>() / group.len() as f64
        })
        .collect();
    median(&means)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
    }

    #[test]
    fn median_of_means_follows_the_mix_and_drops_a_stall() {
        // Seven fast and five slow samples: the median is a fast one,
        // the group means (three groups of four) blend both.
        let mixed = [1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0];
        assert_eq!(median(&mixed), 1.0);
        assert_eq!(median_of_means(&mixed), 1.5);
        // A stall in one group of five leaves the median of the rest.
        let mut stalled = [1.0; 20];
        stalled[3] = 100.0;
        assert_eq!(median_of_means(&stalled), 1.0);
        assert_eq!(median_of_means(&[2.0, 4.0]), 3.0);
        assert!(median_of_means(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut trace = Trace::new();
        let t0 = now();
        let t = |ms: u64| t0 + Duration::from_millis(ms);
        let parent = trace.add("slot", 0, None, t(0), t(10));
        trace.add("advance", 0, Some(parent), t(0), t(4));
        trace.add("apply", 0, Some(parent), t(5), t(9));
        assert!((trace.self_ms(parent) - 2.0).abs() < 1e-9);
        assert_eq!(trace.durations("advance"), vec![4.0]);
        assert!(trace.to_tsv().lines().count() == 4);
    }
}
