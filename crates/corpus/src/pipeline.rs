//! The prototype-recovery pipeline (§3.1–3.2).
//!
//! For every external symbol: consult the manual page first ("we
//! nevertheless use the manual pages first because we have a higher
//! chance of success in case the function is defined across multiple
//! header files"), fall back to scanning all headers, and record which
//! route succeeded. The aggregate statistics of the run are the §3
//! numbers `healers extract` reports.

use std::collections::BTreeMap;

use healers_ctypes::FunctionPrototype;

use crate::generate::Corpus;

/// How a function's prototype was (or wasn't) recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// Found in a header named by the function's manual page.
    ManPageHeaders,
    /// Found by scanning every header under the include path.
    GlobalScan,
    /// Not found anywhere — most likely internal-use or deprecated.
    NotFound,
}

/// Recovery result for one function.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Function name.
    pub name: String,
    /// Which route succeeded.
    pub source: RecoverySource,
    /// The recovered prototype, if any.
    pub prototype: Option<FunctionPrototype>,
    /// Whether the function had a manual page at all.
    pub had_manpage: bool,
    /// Whether its manual page listed headers.
    pub manpage_listed_headers: bool,
    /// Whether the man-page route specifically failed despite listed
    /// headers (the "wrong headers" bucket).
    pub manpage_headers_wrong: bool,
}

/// The full report over a corpus.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    results: BTreeMap<String, Recovery>,
    internal_symbols: usize,
    total_symbols: usize,
}

impl RecoveryReport {
    /// Recovery outcome for one function.
    pub fn outcome(&self, name: &str) -> Option<&Recovery> {
        self.results.get(name)
    }

    /// Iterate over all outcomes.
    pub fn iter(&self) -> impl Iterator<Item = &Recovery> {
        self.results.values()
    }

    /// Number of external functions processed.
    pub fn externals(&self) -> usize {
        self.results.len()
    }

    /// Fraction of all global symbols that are internal (§3.1: > 34 %).
    pub fn internal_fraction(&self) -> f64 {
        self.internal_symbols as f64 / self.total_symbols as f64
    }

    /// Fraction of external functions with a manual page (§3.2: 51.1 %).
    pub fn manpage_coverage(&self) -> f64 {
        self.count(|r| r.had_manpage) as f64 / self.externals() as f64
    }

    /// Fraction of manual pages listing no headers (§3.2: 1.2 %).
    pub fn manpage_no_headers_fraction(&self) -> f64 {
        let paged = self.count(|r| r.had_manpage).max(1);
        self.count(|r| r.had_manpage && !r.manpage_listed_headers) as f64 / paged as f64
    }

    /// Fraction of manual pages listing wrong headers (§3.2: 7.7 %).
    pub fn manpage_wrong_headers_fraction(&self) -> f64 {
        let paged = self.count(|r| r.had_manpage).max(1);
        self.count(|r| r.manpage_headers_wrong) as f64 / paged as f64
    }

    /// Fraction of external functions whose prototype was found (§3.2:
    /// 96.0 %).
    pub fn found_fraction(&self) -> f64 {
        self.count(|r| r.prototype.is_some()) as f64 / self.externals() as f64
    }

    fn count(&self, pred: impl Fn(&Recovery) -> bool) -> usize {
        self.results.values().filter(|r| pred(r)).count()
    }
}

/// Run the pipeline over every external symbol of the corpus.
pub fn recover_all(corpus: &Corpus) -> RecoveryReport {
    let mut results = BTreeMap::new();
    for symbol in corpus.symbols.external() {
        results.insert(symbol.name.clone(), recover_one(corpus, &symbol.name));
    }
    RecoveryReport {
        results,
        internal_symbols: corpus.symbols.internal().count(),
        total_symbols: corpus.symbols.symbols.len(),
    }
}

/// Run the pipeline for one function.
pub fn recover_one(corpus: &Corpus, name: &str) -> Recovery {
    let page = corpus.manpages.page(name);
    let had_manpage = page.is_some();
    let mut manpage_listed_headers = false;
    let mut manpage_headers_wrong = false;

    if let Some(page) = page {
        let headers = page.synopsis_headers();
        if !headers.is_empty() {
            manpage_listed_headers = true;
            if let Some(proto) = corpus.headers.find_in(name, &headers) {
                return Recovery {
                    name: name.to_string(),
                    source: RecoverySource::ManPageHeaders,
                    prototype: Some(proto),
                    had_manpage,
                    manpage_listed_headers,
                    manpage_headers_wrong: false,
                };
            }
            manpage_headers_wrong = true;
        }
    }

    match corpus.headers.scan_all(name) {
        Some(proto) => Recovery {
            name: name.to_string(),
            source: RecoverySource::GlobalScan,
            prototype: Some(proto),
            had_manpage,
            manpage_listed_headers,
            manpage_headers_wrong,
        },
        None => Recovery {
            name: name.to_string(),
            source: RecoverySource::NotFound,
            prototype: None,
            had_manpage,
            manpage_listed_headers,
            manpage_headers_wrong,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::CorpusConfig;

    fn small_corpus() -> Corpus {
        CorpusConfig {
            filler_externals: 300,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn recovers_all_real_functions() {
        let corpus = small_corpus();
        let report = recover_all(&corpus);
        for (name, _, _) in healers_libc::decls::DECLS {
            let r = report.outcome(name).unwrap();
            assert!(r.prototype.is_some(), "{name} not recovered");
            // And the recovered prototype matches ground truth.
            let truth = corpus.truth[*name].as_ref().unwrap();
            assert_eq!(r.prototype.as_ref().unwrap(), truth, "{name} mismatch");
        }
    }

    #[test]
    fn statistics_land_near_the_paper() {
        let corpus = CorpusConfig::default().generate();
        let report = recover_all(&corpus);
        let internal = report.internal_fraction();
        let coverage = report.manpage_coverage();
        let no_headers = report.manpage_no_headers_fraction();
        let wrong = report.manpage_wrong_headers_fraction();
        let found = report.found_fraction();
        assert!((internal - 0.345).abs() < 0.02, "internal {internal}");
        assert!((coverage - 0.511).abs() < 0.06, "coverage {coverage}");
        assert!(no_headers < 0.04, "no-headers {no_headers}");
        assert!((wrong - 0.077).abs() < 0.06, "wrong {wrong}");
        assert!((found - 0.960).abs() < 0.03, "found {found}");
    }

    #[test]
    fn wrong_header_pages_fall_back_to_scan() {
        let corpus = small_corpus();
        let report = recover_all(&corpus);
        // At least one function must exercise the fallback route
        // because its page pointed at the wrong header.
        let fallback = report
            .iter()
            .filter(|r| r.manpage_headers_wrong && r.prototype.is_some())
            .count();
        assert!(fallback > 0);
        for r in report.iter().filter(|r| r.manpage_headers_wrong) {
            assert_ne!(r.source, RecoverySource::ManPageHeaders);
        }
    }

    #[test]
    fn headerless_functions_are_not_found() {
        let corpus = small_corpus();
        let report = recover_all(&corpus);
        for (name, truth) in &corpus.truth {
            if truth.is_none() {
                let r = report.outcome(name).unwrap();
                assert_eq!(r.source, RecoverySource::NotFound);
            }
        }
    }

    #[test]
    fn recovered_prototypes_match_ground_truth() {
        let corpus = small_corpus();
        let report = recover_all(&corpus);
        for r in report.iter() {
            if let (Some(found), Some(Some(truth))) = (&r.prototype, corpus.truth.get(&r.name)) {
                assert_eq!(found, truth, "{} prototype mismatch", r.name);
            }
        }
    }
}
