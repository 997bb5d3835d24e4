//! Order statistics over latency samples.

/// How many samples must lie beyond a tail percentile for it to be
/// reported: fewer than this and the "percentile" is a single outlier.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (the mean of the two middle values for an even
/// count; `0.0` for no values).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The percentiles a tail may be reported at, in tenths of a percent,
/// highest first.
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A tail latency: the value, which percentile it is, and of how many
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail percentile.
    pub value: f64,
    /// The percentile, or 100 for the maximum of too few samples.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie beyond `value`.
    pub beyond: usize,
}

impl Tail {
    /// `p95 of 612 samples, 30 beyond it`, or a note that there were too
    /// few samples for any percentile to have ten beyond it.
    #[must_use]
    pub fn describe(&self) -> String {
        if self.beyond >= TAIL_BEYOND {
            format!(
                "p{} of {} samples, {} beyond it",
                self.percentile, self.samples, self.beyond
            )
        } else {
            format!(
                "maximum of {} samples (too few for {TAIL_BEYOND} beyond any percentile)",
                self.samples
            )
        }
    }
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 that has at least
/// [`TAIL_BEYOND`] samples beyond it, by the nearest-rank method. A fixed
/// ladder keeps the percentile the same from run to run while the sample
/// count varies a little, where "the 11th-largest sample" would drift with
/// it. With too few samples it falls back to the maximum (and says so in
/// [`Tail::describe`]).
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    for permille in TAIL_PERMILLE {
        let rank = (permille * n).div_ceil(1000);
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return Tail {
                value: sorted[rank - 1],
                percentile: permille as f64 / 10.0,
                samples: n,
                beyond: n - rank,
            };
        }
    }
    Tail {
        value: sorted.last().copied().unwrap_or(0.0),
        percentile: 100.0,
        samples: n,
        beyond: 0,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
