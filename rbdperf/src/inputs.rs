//! Workload inputs, generated from the seed by `rbd_corpus`. Every document
//! carries the generator's ground truth.

use rbd_corpus::{generate_document, sites, Domain, GeneratedDoc, GroundTruth};
use rbd_ontology::Ontology;

/// One input document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Application domain (selects the ontology).
    pub domain: Domain,
    /// Generating site's display name.
    pub site: &'static str,
    /// The HTML source.
    pub html: String,
    /// What the generator knows is right.
    pub truth: GroundTruth,
}

impl From<GeneratedDoc> for Doc {
    fn from(d: GeneratedDoc) -> Self {
        Doc {
            domain: d.domain,
            site: d.site,
            html: d.html,
            truth: d.truth,
        }
    }
}

/// The domain's application ontology (OM's and the recognizer's input).
pub fn ontology(domain: Domain) -> Ontology {
    match domain {
        Domain::Obituaries => rbd_ontology::domains::obituaries(),
        Domain::CarAds => rbd_ontology::domains::car_ads(),
        Domain::JobAds => rbd_ontology::domains::job_ads(),
        Domain::Courses => rbd_ontology::domains::courses(),
    }
}

/// The calibration and test sites of all four domains: five documents
/// from each calibration site plus one from each test site. Job ads and
/// courses calibrate on their test sites, so their test documents are
/// already among the calibration ones. 160 documents, about 560 KiB.
pub fn site_docs(seed: u64) -> Vec<Doc> {
    let mut docs = Vec::new();
    for domain in Domain::ALL {
        docs.extend(
            rbd_corpus::initial_corpus(domain, seed)
                .into_iter()
                .map(Doc::from),
        );
        if matches!(domain, Domain::Obituaries | Domain::CarAds) {
            docs.extend(
                rbd_corpus::test_corpus(domain, seed)
                    .into_iter()
                    .map(Doc::from),
            );
        }
    }
    docs
}

/// Target sizes of the large-page classes, smallest first.
pub const PAGE_CLASSES: [usize; 3] = [64 << 10, 256 << 10, 1 << 20];

/// Large pages: for each domain, one page per size class, class `i` drawn
/// from the domain's `i`-th test site with `SiteStyle::records` raised
/// until the page reaches the class size. 12 pages, about 5.3 MiB.
pub fn large_pages(seed: u64) -> Vec<Doc> {
    let mut docs = Vec::new();
    for domain in Domain::ALL {
        let test_sites = sites::test_sites(domain);
        for (class, &target) in PAGE_CLASSES.iter().enumerate() {
            let mut style = test_sites[class % test_sites.len()].clone();
            // Size a record from a 40-record page, scale, then correct
            // once more from the scaled page, so every seed's page lands
            // within a few percent of the class size (per-byte costs grow
            // with page size, so the size must not drift with the seed).
            let mut records = 40;
            for _ in 0..2 {
                style.records = (records, records);
                let probe = generate_document(&style, domain, 0, seed);
                let scaled = records as f64 * target as f64 / probe.html.len().max(1) as f64;
                records = (scaled.round() as usize).max(2);
            }
            style.records = (records, records);
            docs.push(generate_document(&style, domain, 0, seed).into());
        }
    }
    docs
}

/// A fresh copy of `html` with a distinct content hash (a leading comment
/// naming the run and the request), as a crawler sees a page whose only
/// change is a fetch stamp. Extraction ignores comments, so the ground
/// truth of the original still holds.
pub fn fresh_variant(html: &str, seed: u64, n: u64) -> String {
    format!("<!-- fetched: seed {seed} request {n} -->\n{html}")
}

/// Total input bytes.
pub fn total_bytes<'a>(docs: impl IntoIterator<Item = &'a Doc>) -> usize {
    docs.into_iter().map(|d| d.html.len()).sum()
}

/// Bytes to MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_docs_are_deterministic_per_seed() {
        let a = site_docs(3);
        let b = site_docs(3);
        let c = site_docs(4);
        assert_eq!(a.len(), 160);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.html == y.html && x.truth == y.truth));
        assert!(a.iter().zip(&c).any(|(x, y)| x.html != y.html));
    }

    #[test]
    fn large_pages_cover_every_class_and_domain() {
        let pages = large_pages(5);
        assert_eq!(pages.len(), Domain::ALL.len() * PAGE_CLASSES.len());
        for (i, page) in pages.iter().enumerate() {
            let target = PAGE_CLASSES[i % PAGE_CLASSES.len()];
            let len = page.html.len();
            let off = (len as f64 / target as f64 - 1.0).abs();
            assert!(
                off < 0.05,
                "page {i}: {len} bytes for a {target}-byte class"
            );
        }
        let again = large_pages(5);
        assert!(pages.iter().zip(&again).all(|(x, y)| x.html == y.html));
    }

    #[test]
    fn fresh_variants_differ_in_bytes_only_by_the_stamp() {
        let a = fresh_variant("<p>x", 1, 1);
        let b = fresh_variant("<p>x", 1, 2);
        assert_ne!(a, b);
        assert!(a.ends_with("<p>x"));
    }
}
