//! Output checks against the corpus generator's ground truth and against
//! properties every correct extraction has. Nothing here compares against
//! a saved copy of earlier output.

use crate::inputs::Doc;
use rbd_core::Extraction;
use rbd_db::Table;
use rbd_json::Json;
use rbd_store::StoredDoc;
use std::collections::BTreeSet;

/// Separator floor for ORSIH (ontology-driven, all five heuristics) over
/// the 160 site documents. A sweep over seeds 0–299 never went below 95.0 %
/// (152 of 160); the floor leaves one document of headroom under that.
pub const ORSIH_FLOOR: f64 = 0.94;

/// Separator floor for the structural configuration (no ontology), which
/// lacks OM's evidence. On the site documents it is right on 150 of 160
/// (93.8 %) at every seed swept; on the large pages it is right on 11 of 12
/// at every seed swept (the 1 MiB KSU courses page picks `<br>` over
/// `<h4>`). The floor admits exactly that one page of twelve.
pub const STRUCTURAL_FLOOR: f64 = 0.9;

/// Share of ground-truth field values the Figure-1 pipeline must fill in
/// correctly (the scorer's matching rule) on documents whose separator is
/// right. EXPERIMENTS.md reports 100 % recall on the clean test sites.
pub const ROW_RECALL_FLOOR: f64 = 0.99;

/// Share of the extracted field values (non-NULL cells of fields the
/// domain's truth fills, in rows aligned with truth records) that must
/// match a truth value, as `rbd-eval`'s scorer counts precision. Over
/// seeds 1–20 it never went below 99.6 %; a cell filled where the truth
/// has nothing, or a spurious row inside the aligned range, lowers it.
pub const ROW_PRECISION_FLOOR: f64 = 0.99;

/// The value `InstanceGenerator::populate` puts in a NOT NULL field it
/// recognized nothing for.
const UNRECOGNIZED: &str = "(unrecognized)";

/// What an extraction produced, in the form every path can give: an
/// in-process [`Extraction`], a committed [`StoredDoc`], or a service
/// response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Found {
    /// The chosen separator tag.
    pub separator: String,
    /// `(start, end)` byte offsets of each record in the source.
    pub spans: Vec<(u64, u64)>,
}

impl Found {
    /// From an in-process extraction.
    pub fn of_extraction(e: &Extraction) -> Self {
        Found {
            separator: e.outcome.separator.clone(),
            spans: e
                .records
                .iter()
                .map(|r| (r.start as u64, r.end as u64))
                .collect(),
        }
    }

    /// From a committed store document.
    pub fn of_stored(d: &StoredDoc) -> Self {
        Found {
            separator: d.separator.clone(),
            spans: d.records.iter().map(|r| (r.start, r.end)).collect(),
        }
    }

    /// From a `POST /extract` response body.
    pub fn of_response_body(body: &str) -> Result<Self, String> {
        let json = Json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
        let separator = json
            .get("separator")
            .and_then(Json::as_str)
            .ok_or("response has no separator")?
            .to_owned();
        let records = json
            .get("records")
            .and_then(Json::as_array)
            .ok_or("response has no records array")?;
        let offset = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64).map(|x| x as u64);
        let spans = records
            .iter()
            .map(|r| offset(r, "start").zip(offset(r, "end")))
            .collect::<Option<Vec<_>>>()
            .ok_or("a record lacks start/end offsets")?;
        Ok(Found { separator, spans })
    }
}

/// Running tally of separator verdicts plus every property violation.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Documents checked.
    pub docs: usize,
    /// Documents whose separator equals the ground truth.
    pub right: usize,
    /// Property violations, one line each.
    pub problems: Vec<String>,
}

impl Tally {
    /// Checks one document's extraction.
    ///
    /// Always: records are ordered, non-overlapping, non-empty, inside the
    /// document, and each starts at an occurrence of the chosen separator.
    /// Where the separator is right, the record count equals the truth,
    /// or falls one short when chunking absorbed the first record into the
    /// preamble (between-only separators; the alignment `rbd-eval`'s
    /// extraction scorer documents).
    pub fn check(&mut self, found: &Found, doc: &Doc) {
        if let Err(e) = record_properties(found, &doc.html) {
            self.problems.push(format!("{}: {e}", doc.site));
        }
        self.check_count(&found.separator, found.spans.len(), doc);
    }

    /// The separator verdict and record-count check alone, for paths that
    /// report records without source offsets.
    pub fn check_count(&mut self, separator: &str, records: usize, doc: &Doc) {
        self.docs += 1;
        if separator == doc.truth.separator {
            self.right += 1;
            let truth = doc.truth.record_count;
            if records != truth && records + 1 != truth {
                self.problems.push(format!(
                    "{}: {records} records where the truth has {truth}",
                    doc.site
                ));
            }
        }
    }

    /// Share of documents with the right separator.
    pub fn accuracy(&self) -> f64 {
        if self.docs == 0 {
            return 0.0;
        }
        self.right as f64 / self.docs as f64
    }

    /// Every problem, plus one when the separator accuracy is under
    /// `floor`.
    pub fn verdict(&self, floor: f64) -> Vec<String> {
        let mut out = self.problems.clone();
        if self.accuracy() < floor {
            out.push(format!(
                "separator right on {}/{} documents ({:.1} %), under the {:.0} % floor",
                self.right,
                self.docs,
                100.0 * self.accuracy(),
                100.0 * floor
            ));
        }
        out
    }
}

/// The record properties that hold whatever separator was chosen.
pub fn record_properties(found: &Found, html: &str) -> Result<(), String> {
    let mut prev_end = 0u64;
    for (i, &(start, end)) in found.spans.iter().enumerate() {
        if start >= end || end > html.len() as u64 {
            return Err(format!("record {i} has bad bounds {start}..{end}"));
        }
        if start < prev_end {
            return Err(format!("record {i} overlaps or precedes record {}", i - 1));
        }
        prev_end = end;
        let at = html.get(start as usize..).unwrap_or("");
        if !starts_with_tag(at, &found.separator) {
            return Err(format!(
                "record {i} does not start at <{}>",
                found.separator
            ));
        }
    }
    Ok(())
}

/// `true` when `s` opens with a start tag named `tag` (ASCII
/// case-insensitive, as HTML tag names are).
fn starts_with_tag(s: &str, tag: &str) -> bool {
    let bytes = s.as_bytes();
    let n = tag.len();
    bytes.first() == Some(&b'<')
        && bytes.len() > n
        && bytes[1..=n].eq_ignore_ascii_case(tag.as_bytes())
        && !bytes.get(n + 1).is_some_and(|b| b.is_ascii_alphanumeric())
}

/// Field-level tally of populated rows against ground truth, counted on
/// both sides the way `rbd-eval`'s extraction scorer counts them.
#[derive(Debug, Clone, Default)]
pub struct RowTally {
    /// Ground-truth field values considered.
    pub fields: usize,
    /// Of those, filled with a matching value.
    pub matched: usize,
    /// Non-NULL cells of tracked fields in the scored rows.
    pub extracted: usize,
    /// Row-count and alignment violations, one line each.
    pub problems: Vec<String>,
}

impl RowTally {
    /// Scores `doc`'s entity table, populated from `records` record tables
    /// that hold entries, against the truth.
    ///
    /// The table must have one row per such record table, plus at most one
    /// trailing row whose every field is NULL (the empty last partition a
    /// separator after the last record leaves). Rows align with
    /// `truth[offset..]`, where `offset` is how many records the preamble
    /// absorbed (at most one). A truth value matches when, trimmed and
    /// lowercased, either it or the cell contains the other; every non-NULL
    /// cell of a `tracked` field (one the domain's truth ever fills) in a
    /// scored row is an extracted value, as in the scorer's precision.
    pub fn score(&mut self, entity: &Table, records: usize, doc: &Doc, tracked: &BTreeSet<String>) {
        let fields = &entity.relation().columns[1..];
        // `populate` fills a NOT NULL field it found nothing for with this
        // marker; like the scorer, count it as no value.
        let value = |row: usize, field: &str| entity.get(row, field).filter(|v| *v != UNRECOGNIZED);
        let all_null = |row: usize| fields.iter().all(|c| value(row, &c.name).is_none());
        let trailing_null = entity.len() == records + 1 && all_null(records);
        if entity.len() != records && !trailing_null {
            self.problems.push(format!(
                "{}: {} entity rows for {records} record tables with entries",
                doc.site,
                entity.len()
            ));
            return;
        }
        let truth = &doc.truth.records;
        let offset = truth.len().saturating_sub(records);
        if offset > 1 {
            self.problems.push(format!(
                "{}: {records} rows do not align with {} truth records",
                doc.site,
                truth.len()
            ));
            return;
        }
        for (row, record) in truth.iter().skip(offset).enumerate() {
            for (field, want) in record {
                self.fields += 1;
                if entity
                    .get(row, field)
                    .is_some_and(|got| values_match(got, want))
                {
                    self.matched += 1;
                }
            }
            self.extracted += fields
                .iter()
                .filter(|c| tracked.contains(&c.name) && value(row, &c.name).is_some())
                .count();
        }
    }

    /// Share of truth values matched.
    pub fn recall(&self) -> f64 {
        if self.fields == 0 {
            return 0.0;
        }
        self.matched as f64 / self.fields as f64
    }

    /// Share of extracted values that match a truth value (1.0 when
    /// nothing was extracted).
    pub fn precision(&self) -> f64 {
        if self.extracted == 0 {
            return 1.0;
        }
        self.matched as f64 / self.extracted as f64
    }

    /// Every problem, plus one when recall or precision is under its
    /// floor.
    pub fn verdict(&self, recall_floor: f64, precision_floor: f64) -> Vec<String> {
        let mut out = self.problems.clone();
        if self.recall() < recall_floor {
            out.push(format!(
                "populated rows match {}/{} truth values ({:.1} %), under the {:.0} % floor",
                self.matched,
                self.fields,
                100.0 * self.recall(),
                100.0 * recall_floor
            ));
        }
        if self.precision() < precision_floor {
            out.push(format!(
                "{}/{} extracted values match the truth ({:.1} %), under the {:.0} % floor",
                self.matched,
                self.extracted,
                100.0 * self.precision(),
                100.0 * precision_floor
            ));
        }
        out
    }
}

/// `rbd-eval`'s loose value equality.
pub fn values_match(extracted: &str, truth: &str) -> bool {
    let e = extracted.trim().to_lowercase();
    let t = truth.trim().to_lowercase();
    e == t || e.contains(&t) || t.contains(&e)
}

/// Checks one service response: a 200 with the cache verdict the request
/// mix implies and exactly the expected body.
pub fn check_response(
    status: u16,
    cache: Option<&str>,
    body: &str,
    expected_cache: &str,
    expected_body: &str,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    if cache != Some(expected_cache) {
        return Err(format!(
            "x-rbd-cache {cache:?} where the mix implies {expected_cache}"
        ));
    }
    if body != expected_body {
        return Err(format!(
            "{expected_cache} body differs from the miss body for the same bytes"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_core::RecordExtractor;
    use rbd_corpus::{Domain, GroundTruth};

    fn page() -> Doc {
        let mut html = String::from("<html><body><table><tr><td><h1>Notices</h1><hr>");
        for name in ["Ann Smith", "Bob Jones", "Cal Young"] {
            html.push_str(&format!("<b>{name}</b><br> died on May 1, 1998.<hr>"));
        }
        html.push_str("</td></tr></table></body></html>");
        Doc {
            domain: Domain::Obituaries,
            site: "test",
            html,
            truth: GroundTruth {
                separator: "hr".to_owned(),
                record_count: 3,
                records: Vec::new(),
            },
        }
    }

    fn extract(doc: &Doc) -> Found {
        Found::of_extraction(
            &RecordExtractor::default()
                .extract_records(&doc.html)
                .unwrap(),
        )
    }

    #[test]
    fn a_right_extraction_passes() {
        let doc = page();
        let mut tally = Tally::default();
        tally.check(&extract(&doc), &doc);
        assert_eq!(tally.right, 1);
        assert!(tally.verdict(1.0).is_empty(), "{:?}", tally.problems);
    }

    #[test]
    fn a_wrong_separator_fails_the_floor() {
        let doc = page();
        let mut found = extract(&doc);
        found.separator = "b".to_owned();
        let mut tally = Tally::default();
        tally.check(&found, &doc);
        assert_eq!(tally.right, 0);
        // Records no longer start at the claimed separator, and the
        // accuracy is under any floor.
        assert!(tally
            .problems
            .iter()
            .any(|p| p.contains("does not start at <b>")));
        assert_eq!(tally.verdict(ORSIH_FLOOR).len(), 2);
    }

    #[test]
    fn overlapping_or_miscounted_records_fail() {
        let doc = page();
        let mut found = extract(&doc);
        found.spans.swap(0, 1);
        assert!(record_properties(&found, &doc.html).is_err());
        let mut found = extract(&doc);
        found.spans.truncate(1);
        let mut tally = Tally::default();
        tally.check(&found, &doc);
        assert!(tally
            .problems
            .iter()
            .any(|p| p.contains("1 records where the truth has 3")));
    }

    #[test]
    fn a_corrupted_response_body_fails() {
        let doc = page();
        let extraction = RecordExtractor::default()
            .extract_records(&doc.html)
            .unwrap();
        let body = rbd_serve::extraction_response_json(&extraction).to_string();
        assert!(check_response(200, Some("hit"), &body, "hit", &body).is_ok());
        let mut corrupted = body.clone().into_bytes();
        let i = corrupted.iter().position(|&b| b == b'A').unwrap();
        corrupted[i] = b'B';
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(check_response(200, Some("hit"), &corrupted, "hit", &body).is_err());
        assert!(check_response(200, Some("miss"), &body, "hit", &body).is_err());
        assert!(check_response(503, Some("hit"), &body, "hit", &body).is_err());
        // The body still parses, and its records still satisfy the
        // properties: only the byte comparison catches this corruption.
        assert_eq!(
            Found::of_response_body(&body).unwrap(),
            Found::of_extraction(&extraction)
        );
        assert!(Found::of_response_body("{\"separator\":").is_err());
    }

    #[test]
    fn a_spurious_row_fails_the_row_check() {
        let parts = crate::workloads::figure1_parts().unwrap();
        let doc = crate::inputs::site_docs(1)
            .into_iter()
            .find(|d| d.domain == Domain::Obituaries)
            .unwrap();
        let (extractor, recognizer, generator) = &parts[0];
        let ie = extractor
            .discover_and_recognize(&doc.html, recognizer)
            .unwrap();
        assert_eq!(ie.outcome.separator, doc.truth.separator);
        let mut tables = ie.record_tables();
        let records = tables.iter().filter(|t| !t.is_empty()).count();
        let tracked: BTreeSet<String> = doc
            .truth
            .records
            .iter()
            .flatten()
            .map(|(f, _)| f.clone())
            .collect();
        let score = |tables: &[rbd_recognizer::DataRecordTable]| {
            let db = generator.populate(tables);
            let mut rows = RowTally::default();
            rows.score(
                db.table(&db.scheme().entity_relation).unwrap(),
                records,
                &doc,
                &tracked,
            );
            rows
        };
        let rows = score(&tables);
        assert!(rows.problems.is_empty(), "{:?}", rows.problems);
        assert!(rows.fields > 0 && rows.recall() >= ROW_RECALL_FLOOR);
        // A repeated record adds a row that is not all NULL.
        tables.push(tables[0].clone());
        assert!(!score(&tables).problems.is_empty());
    }

    #[test]
    fn rows_are_scored_with_the_evaluation_rule() {
        assert!(values_match(" May 1, 1998 ", "may 1, 1998"));
        assert!(values_match("age 85", "85"));
        assert!(!values_match("May 2, 1998", "May 1, 1998"));
        let tally = RowTally {
            fields: 10,
            matched: 9,
            extracted: 9,
            problems: Vec::new(),
        };
        assert_eq!(
            tally.verdict(ROW_RECALL_FLOOR, ROW_PRECISION_FLOOR).len(),
            1
        );
        let overfilled = RowTally {
            fields: 10,
            matched: 10,
            extracted: 20,
            problems: Vec::new(),
        };
        assert_eq!(
            overfilled
                .verdict(ROW_RECALL_FLOOR, ROW_PRECISION_FLOOR)
                .len(),
            1
        );
    }
}
