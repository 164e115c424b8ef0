//! Exact order statistics over raw samples, output-check tallies, and
//! the result line.

use std::collections::BTreeMap;

/// Raw samples of one quantity. Every percentile is read off the sorted
/// samples themselves (nearest rank), never off histogram buckets.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The nearest-rank `p`-th percentile: the smallest sample that at
    /// least `p` % of all samples are at or below.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(p, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Percentile `p` of each whole block of `block` consecutive
    /// samples; a last, partial block is left out. Fewer samples than
    /// a block make one block.
    pub fn per_block(&self, block: usize, p: f64) -> Samples {
        if self.len() < block {
            let whole = (!self.0.is_empty()).then(|| self.percentile(p));
            return whole.into_iter().collect();
        }
        self.0
            .chunks_exact(block)
            .map(|chunk| Samples(chunk.to_vec()).percentile(p))
            .collect()
    }

    /// The samples as space-separated numbers that parse back exactly.
    pub fn words(&self) -> String {
        let words: Vec<String> = self.0.iter().map(f64::to_string).collect();
        words.join(" ")
    }

    /// `name: median …, pNN … (n=…)`, where pNN is the highest tail
    /// percentile that still has ten samples beyond it.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let n = self.len();
        let tail = match tail_percentile(n) {
            Some(p) => format!(", p{p} {} {unit}", self.percentile(p)),
            None => String::new(),
        };
        format!("{name}: median {} {unit}{tail} (n={n})", self.median())
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

impl IntoIterator for Samples {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// hundredths of a percent so that, for example, 99.9 % of 1000 samples
/// is exactly rank 999.
fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside 0..=100");
    let hundredths = (p * 100.0).round() as u64;
    let rank = (hundredths * n as u64).div_ceil(10_000) as usize;
    rank.clamp(1, n)
}

/// The highest of the usual tail percentiles that leaves at least ten
/// samples above its rank, for `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= 10)
}

/// FNV-1a, the digest of outputs compared against a reference.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Operations checked against a reference, and how many did not match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

impl Checked {
    /// Tally one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Metric values by name. Units come from the benchmark's metric lists
/// when the result line is written.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record one value.
    ///
    /// # Panics
    ///
    /// Panics on a value that is not finite or a name recorded twice;
    /// both are benchmark bugs.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "{name} = {value} is not finite");
        let previous = self.0.insert(name.clone(), value);
        assert!(previous.is_none(), "{name} recorded twice");
    }

    /// Record percentile `p` of `samples` and print the distribution it
    /// was read from.
    pub fn timing(&mut self, name: &str, unit: &str, samples: &Samples, p: f64) {
        println!("{}", samples.describe(name, unit));
        self.put(name, samples.percentile(p));
    }
}

/// The last line of a run: whether every output check passed, the
/// operation counts, and every listed metric with its unit.
///
/// # Panics
///
/// Panics if a listed metric was not recorded or an unlisted one was.
pub fn result_line(checked: &Checked, listed: &[(&str, &str)], metrics: &Metrics) -> String {
    let unlisted: Vec<&String> = metrics
        .0
        .keys()
        .filter(|k| !listed.iter().any(|(name, _)| name == k))
        .collect();
    assert!(
        unlisted.is_empty(),
        "metrics missing from the lists: {unlisted:?}"
    );
    let body: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let value = metrics
                .0
                .get(*name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checked.failed == 0,
        checked.attempted,
        checked.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: u32) -> Samples {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn nearest_rank_percentiles_of_a_known_set() {
        let s = one_to(1000);
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.percentile(99.9), 999.0);
        assert_eq!(s.percentile(100.0), 1000.0);
        assert_eq!(s.percentile(0.0), 1.0);
        let four: Samples = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
        assert_eq!(four.median(), 2.0);
        assert_eq!(four.percentile(75.0), 3.0);
        assert_eq!(four.percentile(76.0), 4.0);
    }

    #[test]
    fn block_percentiles_take_whole_blocks_in_order() {
        let s = one_to(1050);
        let p99 = s.per_block(100, 99.0);
        assert_eq!(p99.len(), 10);
        assert_eq!(p99.percentile(0.0), 99.0);
        assert_eq!(p99.max(), 999.0);
        let short = s.per_block(2000, 50.0);
        assert_eq!((short.len(), short.median()), (1, 525.0));
        assert_eq!(Samples::default().per_block(10, 50.0).len(), 0);
    }

    #[test]
    fn percentiles_are_samples_not_bucket_edges() {
        // A log2 histogram reports 2^21 - 1 = 2097151 for every one of
        // these; the exact median is the middle sample.
        let s: Samples = [1.1e6, 1.9e6, 1.5e6, 1.3e6, 1.7e6].into_iter().collect();
        assert_eq!(s.median(), 1.5e6);
        assert_eq!(s.max(), 1.9e6);
        assert_eq!(s.sum(), 7.5e6);
    }

    #[test]
    fn the_tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert!(one_to(1000)
            .describe("x", "us")
            .contains("p99 990 us (n=1000)"));
    }

    #[test]
    fn the_result_line_carries_every_listed_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.put("a_s", 1.25);
        m.put("b_count", 3.0);
        let checked = Checked {
            attempted: 10,
            failed: 0,
        };
        assert_eq!(
            result_line(&checked, &[("a_s", "s"), ("b_count", "count")], &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"b_count\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        let mut failed = checked;
        failed.check(false);
        assert!(
            result_line(&failed, &[("a_s", "s"), ("b_count", "count")], &m)
                .starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1,")
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_listed_metric_must_be_measured() {
        result_line(&Checked::default(), &[("a_s", "s")], &Metrics::default());
    }
}
