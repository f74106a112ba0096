//! The traced pass: times calls into each layer's public functions on a
//! workload's own inputs and reports the per-layer metrics.
//!
//! Spans are taken in this crate, around the calls; the program itself is
//! not instrumented. Each workload times only the layers it runs; every
//! other per-layer metric reads 0 on it (the layer does no work there), so
//! each traced run still names every metric of [`PER_LAYER`].
//! `bench.layer_coverage` is the sum of the timed layers against the
//! untraced end-to-end time of the same documents, and
//! `bench.trace_overhead` the traced pass's wall time against that same
//! untraced time.

use crate::checks;
use crate::client;
use crate::inputs::{self, Doc};
use crate::report::{Metric, RunResult};
use crate::stats;
use crate::workloads::{self, domain_index, Workload, SERVE_ROUND};
use rbd_certainty::{CertaintyTable, CompoundHeuristic, HeuristicSet};
use rbd_core::{chunk_at_separators, Extraction, RecordExtractor};
use rbd_heuristics::ht::HighestCount;
use rbd_heuristics::it::IdentifiableTags;
use rbd_heuristics::om::OntologyMatching;
use rbd_heuristics::rp::RepeatingPattern;
use rbd_heuristics::sd::StandardDeviation;
use rbd_heuristics::view::DEFAULT_CANDIDATE_THRESHOLD;
use rbd_heuristics::{Heuristic, Ranking, SubtreeView};
use rbd_limits::Deadline;
use rbd_pipeline::{run_batch, BatchConfig};
use rbd_recognizer::estimate_record_count_from_table;
use rbd_serve::extraction_response_json;
use rbd_serve::http::{read_request, write_response, HttpCaps, Response};
use rbd_store::{ContentHash, Store, StoredDoc};
use rbd_tagtree::TagTreeBuilder;
use rbd_trace::{NullSink, TraceSink};
use std::collections::BTreeMap;
use std::path::Path as FilePath;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("html.tokenize_ms_per_mib", "ms/MiB"),
    ("tagtree.build_ms_per_mib", "ms/MiB"),
    ("tagtree.build_scaling", "ratio"),
    ("heuristics.view_ms_per_mib", "ms/MiB"),
    ("heuristics.sd_ms_per_mib", "ms/MiB"),
    ("heuristics.rp_ms_per_mib", "ms/MiB"),
    ("heuristics.om_ms_per_mib", "ms/MiB"),
    ("core.chunk_ms_per_mib", "ms/MiB"),
    ("core.records_per_mib", "1/MiB"),
    ("ontology.compile_ms", "ms"),
    ("recognizer.recognize_ms_per_mib", "ms/MiB"),
    ("db.populate_ms_per_mib", "ms/MiB"),
    ("pipeline.queue_wait_p50_ms", "ms"),
    ("pipeline.run_time_p50_ms", "ms"),
    ("pipeline.steals", "count"),
    ("pipeline.overhead_share", "share"),
    ("serve.read_request_us", "us"),
    ("serve.write_response_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("store.hash_gib_s", "GiB/s"),
    ("store.hit_us", "us"),
    ("store.append_ms", "ms"),
    ("store.open_ms_per_mib", "ms/MiB"),
    ("store.bytes_per_input_byte", "ratio"),
    ("store.hit_ratio", "share"),
    ("json.response_ms_per_mib", "ms/MiB"),
    ("bench.layer_coverage", "share"),
    ("bench.trace_overhead", "ratio"),
];

/// The extraction layers a workload runs, and what its reference (the
/// untraced operation the layers are compared with) is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Tokenize → tree → view → OM, RP, SD, IT, HT → consensus → chunk,
    /// against ORSIH `extract_records`.
    Orsih,
    /// Hash, the structural path (no OM), and one batch commit per pass,
    /// against hash + `extract_records` + the same commit.
    StructuralStored,
    /// The structural path alone, against `extract_records`: what a
    /// `serve-store` miss extracts.
    Structural,
    /// Tokenize → tree → view → recognize → OM estimate, RP, SD, IT, HT →
    /// consensus → record tables → populate, against
    /// `discover_and_recognize` + `populate`.
    Figure1,
}

/// Accumulated busy seconds and input bytes per layer.
#[derive(Debug, Default)]
struct Clock {
    seconds: BTreeMap<&'static str, f64>,
    bytes: BTreeMap<&'static str, usize>,
}

impl Clock {
    /// Runs `f` over `bytes` of input, adding its wall time to `layer`.
    fn time<T>(&mut self, layer: &'static str, bytes: usize, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        *self.seconds.entry(layer).or_default() += started.elapsed().as_secs_f64();
        *self.bytes.entry(layer).or_default() += bytes;
        out
    }

    fn get(&self, layer: &str) -> f64 {
        self.seconds.get(layer).copied().unwrap_or(0.0)
    }

    /// Seconds over every layer timed.
    fn total(&self) -> f64 {
        self.seconds.values().sum()
    }

    /// Milliseconds per MiB of the input the layer ran over (0 when the
    /// layer never ran).
    fn ms_per_mib(&self, layer: &str) -> f64 {
        let bytes = self.bytes.get(layer).copied().unwrap_or(0);
        if bytes == 0 {
            return 0.0;
        }
        self.get(layer) * 1e3 / inputs::mib(bytes)
    }
}

/// Per-layer values by metric name; names never set read 0.
type Values = BTreeMap<&'static str, f64>;

/// Runs the traced pass for `workload` and returns its per-layer metrics.
pub fn run(workload: Workload, opts: &workloads::Opts) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mut values = Values::new();
    let seconds = opts.seconds;
    match workload {
        Workload::OrsihBatch => {
            let docs = inputs::site_docs(opts.seed);
            let kit = Kit::new(Path::Orsih, &mut values)?;
            let pass = layer_pass(&kit, &docs, 0.5 * seconds, opts, &mut result)?;
            pass.report(&docs, &mut values);
            pipeline_probe(&docs, &kit.orsih, opts.jobs, &mut values)?;
            result.attempted = pass.attempted(&docs);
        }
        Workload::LargePages => {
            let docs = inputs::large_pages(opts.seed);
            let kit = Kit::new(Path::StructuralStored, &mut values)?;
            let pass = layer_pass(&kit, &docs, 0.5 * seconds, opts, &mut result)?;
            pass.report(&docs, &mut values);
            values.insert("store.hash_gib_s", hash_gib_s(&docs));
            values.insert("store.append_ms", median(&pass.commit_ms));
            values.insert(
                "store.bytes_per_input_byte",
                pass.store_bytes as f64 / inputs::total_bytes(&docs) as f64,
            );
            result.attempted = pass.attempted(&docs);
        }
        Workload::ServeStore => {
            let docs = inputs::site_docs(opts.seed);
            let kit = Kit::new(Path::Structural, &mut values)?;
            let pass = layer_pass(&kit, &docs, 0.25 * seconds, opts, &mut result)?;
            pass.report(&docs, &mut values);
            values.insert("store.hash_gib_s", hash_gib_s(&docs));
            let requests = serve_probe(&docs, opts, 0.25 * seconds, &mut values, &mut result)?;
            result.attempted = pass.attempted(&docs) + requests;
        }
        Workload::Figure1Pipeline => {
            let docs = inputs::site_docs(opts.seed);
            let kit = Kit::new(Path::Figure1, &mut values)?;
            let pass = layer_pass(&kit, &docs, 0.5 * seconds, opts, &mut result)?;
            pass.report(&docs, &mut values);
            result.attempted = pass.attempted(&docs);
        }
    }
    result.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(result)
}

fn median(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// The machinery a path needs, built once.
struct Kit {
    path: Path,
    /// OM per domain (`Domain::ALL` order); empty on structural paths.
    om: Vec<OntologyMatching>,
    /// ORSIH extractors per domain; empty unless the path is ORSIH.
    orsih: Vec<RecordExtractor>,
    /// Figure-1 machinery per domain; empty unless the path is Figure 1.
    figure1: workloads::Figure1Parts,
    structural: RecordExtractor,
    compound: CompoundHeuristic,
}

impl Kit {
    /// Builds the kit; on the ontology paths also times compiling the four
    /// domains' matching rules into `ontology.compile_ms`.
    fn new(path: Path, values: &mut Values) -> Result<Self, String> {
        let mut kit = Kit {
            path,
            om: Vec::new(),
            orsih: Vec::new(),
            figure1: Vec::new(),
            structural: RecordExtractor::default(),
            compound: CompoundHeuristic::new(HeuristicSet::ORSIH, CertaintyTable::paper_table4()),
        };
        if matches!(path, Path::Orsih | Path::Figure1) {
            let mut compile_ms = Vec::new();
            for _ in 0..21 {
                let started = Instant::now();
                kit.om = rbd_corpus::Domain::ALL
                    .iter()
                    .map(|&d| OntologyMatching::new(inputs::ontology(d)).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                compile_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
            values.insert("ontology.compile_ms", median(&compile_ms));
        }
        match path {
            Path::Orsih => kit.orsih = workloads::orsih_extractors()?,
            Path::Figure1 => kit.figure1 = workloads::figure1_parts()?,
            Path::StructuralStored | Path::Structural => {}
        }
        Ok(kit)
    }
}

/// What the decomposed passes measured.
struct Pass {
    clock: Clock,
    traced_wall: f64,
    untraced_wall: f64,
    passes: usize,
    records: usize,
    build_by_doc: Vec<f64>,
    /// Traced batch-commit times, one per pass (`large-pages`).
    commit_ms: Vec<f64>,
    /// Size of one pass's committed store file (`large-pages`).
    store_bytes: usize,
}

impl Pass {
    fn attempted(&self, docs: &[Doc]) -> u64 {
        (self.passes * docs.len()) as u64
    }

    /// Writes the extraction-layer metrics and the coverage and overhead.
    fn report(&self, docs: &[Doc], values: &mut Values) {
        for (name, layer) in [
            ("html.tokenize_ms_per_mib", "tokenize"),
            ("tagtree.build_ms_per_mib", "tree"),
            ("heuristics.view_ms_per_mib", "view"),
            ("heuristics.sd_ms_per_mib", "sd"),
            ("heuristics.rp_ms_per_mib", "rp"),
            ("heuristics.om_ms_per_mib", "om"),
            ("core.chunk_ms_per_mib", "chunk"),
            ("recognizer.recognize_ms_per_mib", "recognize"),
            ("db.populate_ms_per_mib", "populate"),
        ] {
            values.insert(name, self.clock.ms_per_mib(layer));
        }
        let mib = inputs::mib(inputs::total_bytes(docs)) * self.passes as f64;
        values.insert("core.records_per_mib", self.records as f64 / mib);
        values.insert(
            "tagtree.build_scaling",
            build_scaling(docs, &self.build_by_doc),
        );
        values.insert(
            "bench.layer_coverage",
            self.clock.total() / self.untraced_wall,
        );
        values.insert(
            "bench.trace_overhead",
            self.traced_wall / self.untraced_wall,
        );
    }
}

/// Decomposed passes over `docs`, one layer call at a time, alternating
/// document by document with the untraced reference, for `seconds` (at
/// least one pass). The first pass checks that the layer calls reach the
/// reference's separator and that the separator floor holds.
fn layer_pass(
    kit: &Kit,
    docs: &[Doc],
    seconds: f64,
    opts: &workloads::Opts,
    result: &mut RunResult,
) -> Result<Pass, String> {
    let mut pass = Pass {
        clock: Clock::default(),
        traced_wall: 0.0,
        untraced_wall: 0.0,
        passes: 0,
        records: 0,
        build_by_doc: vec![0.0; docs.len()],
        commit_ms: Vec::new(),
        store_bytes: 0,
    };
    let mut right = 0usize;
    let started = Instant::now();
    while pass.passes == 0 || started.elapsed().as_secs_f64() < seconds {
        pass.passes += 1;
        let mut commit = Vec::new();
        for (i, doc) in docs.iter().enumerate() {
            let reference = reference_run(kit, doc, &mut pass.untraced_wall)?;
            let before = pass.clock.get("tree");
            let wall = Instant::now();
            let (separator, n) = decomposed(kit, doc, &reference, &mut pass.clock);
            pass.traced_wall += wall.elapsed().as_secs_f64();
            pass.records += n;
            pass.build_by_doc[i] += pass.clock.get("tree") - before;
            if pass.passes == 1 {
                if separator != reference.separator() {
                    result.problem(format!(
                        "{}: layer calls chose <{separator}>, the workload's path <{}>",
                        doc.site,
                        reference.separator()
                    ));
                }
                right += usize::from(separator == doc.truth.separator);
            }
            if let Reference::Stored(stored, _) = reference {
                commit.push(stored);
            }
        }
        if kit.path == Path::StructuralStored {
            // The one batch commit per pass, untraced and traced, each into
            // a fresh store.
            let untraced_file = opts.scratch.join("commit-a.rbd");
            let mut untraced_store = fresh_store(&untraced_file)?;
            let t = Instant::now();
            untraced_store
                .append_batch(&commit)
                .map_err(|e| e.to_string())?;
            pass.untraced_wall += t.elapsed().as_secs_f64();
            let traced_file = opts.scratch.join("commit-b.rbd");
            let mut traced_store = fresh_store(&traced_file)?;
            let bytes = inputs::total_bytes(docs);
            let t = Instant::now();
            pass.clock
                .time("commit", bytes, || traced_store.append_batch(&commit))
                .map_err(|e| e.to_string())?;
            let elapsed = t.elapsed().as_secs_f64();
            pass.traced_wall += elapsed;
            pass.commit_ms.push(elapsed * 1e3);
            pass.store_bytes = file_len(&traced_file)?;
            for file in [untraced_file, traced_file] {
                let _ = std::fs::remove_file(file);
            }
        }
    }
    let floor = match kit.path {
        Path::Orsih | Path::Figure1 => checks::ORSIH_FLOOR,
        Path::StructuralStored | Path::Structural => checks::STRUCTURAL_FLOOR,
    };
    if (right as f64) < floor * docs.len() as f64 {
        result.problem(format!(
            "separator right on {right}/{} documents, under the {:.0} % floor",
            docs.len(),
            100.0 * floor
        ));
    }
    Ok(pass)
}

/// What the untraced reference run produced for one document, reused by
/// the layers that need a finished extraction.
enum Reference {
    Extraction(Box<Extraction>),
    Integrated(Box<rbd_core::IntegratedExtraction>),
    Stored(StoredDoc, Box<Extraction>),
}

impl Reference {
    fn separator(&self) -> &str {
        match self {
            Reference::Extraction(e) | Reference::Stored(_, e) => &e.outcome.separator,
            Reference::Integrated(ie) => &ie.outcome.separator,
        }
    }
}

/// Creates an empty store at `file`, replacing any earlier one.
fn fresh_store(file: &FilePath) -> Result<Store, String> {
    let _ = std::fs::remove_file(file);
    Store::open(file).map_err(|e| e.to_string())
}

fn file_len(file: &FilePath) -> Result<usize, String> {
    std::fs::metadata(file)
        .map(|m| m.len() as usize)
        .map_err(|e| format!("{}: {e}", file.display()))
}

/// The workload's own untraced operation on one document, timed into
/// `wall` (for `large-pages`, all but the batch commit, which the caller
/// times once per pass).
fn reference_run(kit: &Kit, doc: &Doc, wall: &mut f64) -> Result<Reference, String> {
    let d = domain_index(doc.domain);
    let started = Instant::now();
    let out = match kit.path {
        Path::Orsih => Reference::Extraction(Box::new(
            kit.orsih[d]
                .extract_records(&doc.html)
                .map_err(|e| e.to_string())?,
        )),
        Path::Figure1 => {
            let (extractor, recognizer, generator) = &kit.figure1[d];
            let ie = extractor
                .discover_and_recognize(&doc.html, recognizer)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(generator.populate(&ie.record_tables()));
            Reference::Integrated(Box::new(ie))
        }
        Path::StructuralStored => {
            let hash = ContentHash::of(doc.html.as_bytes());
            let e = kit
                .structural
                .extract_records(&doc.html)
                .map_err(|e| e.to_string())?;
            Reference::Stored(StoredDoc::from_extraction(hash, None, &e), Box::new(e))
        }
        Path::Structural => Reference::Extraction(Box::new(
            kit.structural
                .extract_records(&doc.html)
                .map_err(|e| e.to_string())?,
        )),
    };
    *wall += started.elapsed().as_secs_f64();
    Ok(out)
}

/// The workload's path, one layer call at a time. Returns the separator it
/// chose and the record count. On `figure1-pipeline` the record tables
/// (timed as `chunk`: they partition the recognized table at the
/// separator's cuts) and population run off the reference's integrated
/// extraction.
fn decomposed(kit: &Kit, doc: &Doc, reference: &Reference, clock: &mut Clock) -> (String, usize) {
    let html = doc.html.as_str();
    let n = html.len();
    let d = domain_index(doc.domain);
    if kit.path == Path::StructuralStored {
        clock.time("hash", n, || ContentHash::of(html.as_bytes()));
    }
    let tokens = clock.time("tokenize", n, || rbd_html::tokenize(html));
    let (tree, _) = clock.time("tree", n, || {
        TagTreeBuilder::default().build_from_tokens(html.len(), &tokens)
    });
    let view = clock.time("view", n, || {
        SubtreeView::from_tree(&tree, DEFAULT_CANDIDATE_THRESHOLD)
    });
    let mut rankings: Vec<Ranking> = Vec::with_capacity(5);
    let single = view.candidates().len() == 1;
    if kit.path == Path::Figure1 {
        let (_, recognizer, _) = &kit.figure1[d];
        let table = clock.time("recognize", n, || recognizer.recognize(view.text()));
        if !single {
            // OM's estimate comes from the recognized table: no second
            // regex pass.
            let ranking = clock.time("om", n, || {
                estimate_record_count_from_table(kit.om[d].ontology(), &table)
                    .map(|estimate| OntologyMatching::rank_with_estimate(&view, estimate))
            });
            rankings.extend(ranking);
        }
    }
    let separator = if single {
        view.candidates()[0].name.clone()
    } else {
        if kit.path == Path::Orsih {
            rankings.extend(clock.time("om", n, || kit.om[d].rank(&view)));
        }
        rankings.extend(clock.time("rp", n, || RepeatingPattern::default().rank(&view)));
        rankings.extend(clock.time("sd", n, || StandardDeviation.rank(&view)));
        rankings.extend(clock.time("it", n, || IdentifiableTags::default().rank(&view)));
        rankings.extend(clock.time("ht", n, || HighestCount.rank(&view)));
        let consensus = clock.time("combine", n, || kit.compound.combine(&rankings));
        consensus.winners.first().cloned().unwrap_or_default()
    };
    if let Reference::Integrated(ie) = reference {
        let tables = clock.time("chunk", n, || ie.record_tables());
        let db = clock.time("populate", n, || kit.figure1[d].2.populate(&tables));
        let rows = db
            .table(&db.scheme().entity_relation)
            .map_or(0, rbd_db::Table::len);
        return (separator, rows);
    }
    let (_, chunks) = clock.time("chunk", n, || {
        chunk_at_separators(html, &tree, view.root(), &separator, false)
    });
    (separator, chunks.len())
}

/// Per-byte tree-build time of the largest third of the documents over the
/// smallest third (on `large-pages`: the 1 MiB class over the 64 KiB one).
/// 1.0 means build time grows linearly with size.
fn build_scaling(docs: &[Doc], build_s: &[f64]) -> f64 {
    let mut order: Vec<usize> = (0..docs.len()).collect();
    order.sort_by_key(|&i| docs[i].html.len());
    let third = (docs.len() / 3).max(1);
    let per_byte = |ids: &[usize]| {
        let t: f64 = ids.iter().map(|&i| build_s[i]).sum();
        let b: usize = ids.iter().map(|&i| docs[i].html.len()).sum();
        t / b.max(1) as f64
    };
    per_byte(&order[order.len() - third..]) / per_byte(&order[..third])
}

/// `store.hash_gib_s`: `ContentHash::of` over the documents, repeated for
/// at least 50 ms.
fn hash_gib_s(docs: &[Doc]) -> f64 {
    let (mut seconds, mut hashed) = (0.0, 0usize);
    while seconds < 0.05 {
        let started = Instant::now();
        for doc in docs {
            std::hint::black_box(ContentHash::of(doc.html.as_bytes()));
        }
        seconds += started.elapsed().as_secs_f64();
        hashed += inputs::total_bytes(docs);
    }
    hashed as f64 / (1u64 << 30) as f64 / seconds
}

/// `pipeline.*`: one `run_batch` pass over the documents with the ORSIH
/// extractors on every core, one batch per domain as `orsih-batch` runs
/// them.
fn pipeline_probe(
    docs: &[Doc],
    orsih: &[RecordExtractor],
    jobs: usize,
    values: &mut Values,
) -> Result<(), String> {
    let sink: Arc<dyn TraceSink> = Arc::new(NullSink);
    let config = BatchConfig::with_jobs(jobs);
    let (mut waits, mut runs, mut steals, mut wall) = (Vec::new(), Vec::new(), 0u64, 0.0);
    for (d, extractor) in orsih.iter().enumerate() {
        let batch = docs
            .iter()
            .enumerate()
            .filter(|(_, doc)| domain_index(doc.domain) == d)
            .map(|(i, doc)| (i as u64, doc.html.clone()))
            .collect();
        let started = Instant::now();
        let report = run_batch(extractor, batch, &config, &sink).map_err(|e| e.to_string())?;
        wall += started.elapsed().as_secs_f64();
        steals += report
            .metrics
            .counters
            .get("pipeline_steals")
            .copied()
            .unwrap_or(0);
        for r in &report.results {
            waits.push(r.queue_wait.as_secs_f64() * 1e3);
            runs.push(r.run_time.as_secs_f64() * 1e3);
        }
    }
    let busy_s: f64 = runs.iter().sum::<f64>() / 1e3;
    values.insert("pipeline.queue_wait_p50_ms", median(&waits));
    values.insert("pipeline.run_time_p50_ms", median(&runs));
    values.insert("pipeline.steals", steals as f64);
    values.insert(
        "pipeline.overhead_share",
        1.0 - busy_s / (jobs as f64 * wall),
    );
    Ok(())
}

/// One request of the probe's mix.
struct Probe {
    raw: Vec<u8>,
    hit: bool,
}

/// Per-request layer times of one in-process replay.
#[derive(Default)]
struct Replay {
    clock: Clock,
    /// In-process time of each request, seconds.
    per_request: Vec<f64>,
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    hit_us: Vec<f64>,
    append_ms: Vec<f64>,
}

/// `serve.*`, `store.*` (but the hash rate) and `json.*` on `serve-store`:
/// one client sends the `serve-store` mix (49 stored documents, then one
/// fresh one) to a store-backed server for `seconds`; then the same
/// requests are replayed in process — HTTP parse, hash, store hit or
/// extraction + JSON + commit, response write into memory — once with a
/// clock around each layer and once untraced. Returns the requests sent.
fn serve_probe(
    docs: &[Doc],
    opts: &workloads::Opts,
    seconds: f64,
    values: &mut Values,
    result: &mut RunResult,
) -> Result<u64, String> {
    let served = opts.scratch.join("probe-serve.rbd");
    workloads::prefill_store(&served, docs, opts.jobs)?;
    let server = workloads::bind_server(&served, opts.jobs)?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let mut sent: Vec<Probe> = Vec::new();
    let mut latencies = Vec::new();
    let mut hits = 0usize;
    let started = Instant::now();
    let mut n = 0u64;
    while sent.is_empty() || started.elapsed().as_secs_f64() < seconds {
        for k in 0..SERVE_ROUND {
            let hit = k != SERVE_ROUND - 1;
            let html = if hit {
                docs[(n as usize) % docs.len()].html.clone()
            } else {
                inputs::fresh_variant(&docs[(n as usize) % docs.len()].html, opts.seed, n)
            };
            n += 1;
            let raw = client::extract_request(&html);
            match client::send(addr, &raw) {
                Ok(reply) if reply.status == 200 => {
                    latencies.push(reply.latency.as_secs_f64());
                    hits += usize::from(reply.cache.as_deref() == Some("hit"));
                }
                Ok(reply) => result.problem(format!("serve probe: status {}", reply.status)),
                Err(e) => result.problem(format!("serve probe: {e}")),
            }
            sent.push(Probe { raw, hit });
        }
    }
    shutdown.trigger();
    thread.join().map_err(|_| "server thread panicked")?;
    let _ = std::fs::remove_file(&served);

    // In-process replays, each against a store pre-filled the same way so
    // the fresh requests miss again. The pre-filled store's reopen is what
    // `Server::bind` recovers at set-up.
    let file = opts.scratch.join("probe-replay.rbd");
    let extractor = RecordExtractor::default();
    workloads::prefill_store(&file, docs, opts.jobs)?;
    let prefilled_bytes = file_len(&file)?;
    let mut open_ms = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        drop(Store::open(&file).map_err(|e| e.to_string())?);
        open_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let mut store = Store::open(&file).map_err(|e| e.to_string())?;
    let traced = Instant::now();
    let mut replay = Replay::default();
    for probe in &sent {
        replay_one(probe, &mut store, &extractor, Some(&mut replay))?;
    }
    let traced_s = traced.elapsed().as_secs_f64();
    drop(store);
    workloads::prefill_store(&file, docs, opts.jobs)?;
    let mut store = Store::open(&file).map_err(|e| e.to_string())?;
    let untraced = Instant::now();
    for probe in &sent {
        replay_one(probe, &mut store, &extractor, None)?;
    }
    let untraced_s = untraced.elapsed().as_secs_f64();
    drop(store);
    let _ = std::fs::remove_file(&file);

    let latency_p50_ms = median(&latencies) * 1e3;
    let in_process_p50_ms = median(&replay.per_request) * 1e3;
    values.insert("serve.read_request_us", median(&replay.read_us));
    values.insert("serve.write_response_us", median(&replay.write_us));
    values.insert("serve.overhead_ms", latency_p50_ms - in_process_p50_ms);
    values.insert(
        "serve.latency_p99_ms",
        stats::percentile(&latencies, 0.99).unwrap_or(0.0) * 1e3,
    );
    values.insert("store.hit_us", median(&replay.hit_us));
    values.insert("store.append_ms", median(&replay.append_ms));
    values.insert(
        "store.open_ms_per_mib",
        median(&open_ms) / inputs::mib(prefilled_bytes),
    );
    values.insert(
        "store.bytes_per_input_byte",
        prefilled_bytes as f64 / inputs::total_bytes(docs) as f64,
    );
    values.insert("store.hit_ratio", hits as f64 / sent.len() as f64);
    values.insert("json.response_ms_per_mib", replay.clock.ms_per_mib("json"));
    // On `serve-store` the request path, not the extraction layers, is
    // what coverage and overhead speak of.
    values.insert(
        "bench.layer_coverage",
        replay.per_request.iter().sum::<f64>() / latencies.iter().sum::<f64>(),
    );
    values.insert("bench.trace_overhead", traced_s / untraced_s);
    Ok(sent.len() as u64)
}

/// Answers one replayed request in process: parse, then a store hit, or
/// an extraction that is serialized and committed, then the response
/// write. With `replay`, each layer call is timed into it.
fn replay_one(
    probe: &Probe,
    store: &mut Store,
    extractor: &RecordExtractor,
    replay: Option<&mut Replay>,
) -> Result<(), String> {
    let mut clock = Clock::default();
    let (bytes, traced) = (probe.raw.len(), replay.is_some());
    let mut time = |layer: &'static str, f: &mut dyn FnMut()| {
        if traced {
            clock.time(layer, bytes, f)
        } else {
            f()
        }
    };
    let mut request = None;
    time("read", &mut || {
        request = Some(read_request(
            &mut probe.raw.as_slice(),
            HttpCaps::default(),
            &Deadline::after(Duration::from_secs(10)),
        ));
    });
    let request = request.ok_or("no request")?.map_err(|e| e.to_string())?;
    let body = &request.body;
    let mut hash = ContentHash::of(&[]);
    time("hash", &mut || hash = ContentHash::of(body));
    let response = if probe.hit {
        let mut entry = None;
        time("hit", &mut || {
            entry = store.contains(&hash).then(|| store.hit(&hash))
        });
        match entry {
            Some(Ok(Some(entry))) => Response::json(200, "OK", entry.response.clone()),
            _ => return Err("replayed hit missed the store".to_owned()),
        }
    } else {
        let html = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let mut extraction = None;
        time("extract", &mut || {
            extraction = Some(extractor.extract_records(html))
        });
        let extraction = extraction
            .ok_or("no extraction")?
            .map_err(|e| e.to_string())?;
        let mut text = String::new();
        time("json", &mut || {
            text = extraction_response_json(&extraction).to_string()
        });
        let mut appended = Ok(0);
        time("append", &mut || {
            appended = store.append_batch(&[StoredDoc::from_extraction(hash, None, &extraction)]);
        });
        appended.map_err(|e| e.to_string())?;
        Response::json(200, "OK", text)
    };
    let mut out = Vec::with_capacity(response.body.len() + 256);
    let mut written = Ok(());
    time("write", &mut || {
        written = write_response(&mut out, &response)
    });
    written.map_err(|e| e.to_string())?;
    std::hint::black_box(out);
    if let Some(replay) = replay {
        replay.per_request.push(clock.total());
        replay.read_us.push(clock.get("read") * 1e6);
        replay.write_us.push(clock.get("write") * 1e6);
        if probe.hit {
            replay.hit_us.push(clock.get("hit") * 1e6);
        } else {
            replay.append_ms.push(clock.get("append") * 1e3);
        }
        for (layer, seconds) in &clock.seconds {
            *replay.clock.seconds.entry(layer).or_default() += seconds;
            *replay.clock.bytes.entry(layer).or_default() += clock.bytes[layer];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_json::Json;

    #[test]
    fn per_layer_metrics_match_the_benchmark_description() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).unwrap();
        let listed: Vec<(String, String)> = json
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed, ours);
    }
}
