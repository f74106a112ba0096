//! The four workloads, each timed end to end with tracing off.

use crate::checks::{self, Found, RowTally, Tally};
use crate::client;
use crate::inputs::{self, Doc};
use crate::report::{self, Metric, RunResult};
use crate::stats;
use rbd_core::{ExtractorConfig, RecordExtractor};
use rbd_corpus::Domain;
use rbd_db::InstanceGenerator;
use rbd_pipeline::{run_batch, run_batch_stored, BatchConfig};
use rbd_recognizer::Recognizer;
use rbd_serve::{extraction_response_json, ServeConfig, Server};
use rbd_store::{ContentHash, Store};
use rbd_trace::{NullSink, TraceSink};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ORSIH through `run_batch` on every core, each domain with its
    /// ontology.
    OrsihBatch,
    /// Structural extraction of 64 KiB–1 MiB pages into a fresh store.
    LargePages,
    /// `rbd_serve::Server` backed by a pre-filled store, closed loop.
    ServeStore,
    /// `discover_and_recognize` → `record_tables` → `populate`, serially.
    Figure1Pipeline,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::OrsihBatch,
        Workload::LargePages,
        Workload::ServeStore,
        Workload::Figure1Pipeline,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OrsihBatch => "orsih-batch",
            Workload::LargePages => "large-pages",
            Workload::ServeStore => "serve-store",
            Workload::Figure1Pipeline => "figure1-pipeline",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings shared by every run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Worker threads and client connections (the host's core count).
    pub jobs: usize,
    /// Scratch directory for stores, inside the checkout; removed after.
    pub scratch: PathBuf,
}

/// `serve-store` repeats its set-up this many times before the loop and
/// again after it, binding (and draining) a server over a copy of the
/// pre-filled store, so the median samples the host at both ends of the
/// run without loading the machine while the clients run.
const SERVE_SETUP_REPS: usize = 4;

/// Requests per client round on `serve-store`: all but the last repeat a
/// stored document (a hit), the last is a fresh document (a miss), so 49
/// hits per miss. A miss commits with two `sync_data` calls under the
/// store mutex, and on this host fsync latency drifts between runs: at
/// nine hits per miss that drift spread throughput over ten runs by 15 %,
/// at 49 by 2.4 %. A 25-second run still answers about 400 misses, enough
/// for `miss_latency_p50_ms`, the bounded metric that sees the write path
/// (see README).
pub const SERVE_ROUND: u64 = 50;

/// Set-up timing. The set-up a run uses is timed before the first round;
/// the same set-up is then repeated (and discarded) after every round, so
/// the reported median samples the host across the whole run rather than
/// in one millisecond-long burst at its start.
struct SetupClock(Vec<f64>);

impl SetupClock {
    /// Times one set-up.
    fn time<T>(&mut self, make: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let started = Instant::now();
        let made = make()?;
        self.0.push(started.elapsed().as_secs_f64());
        Ok(made)
    }

    /// The median set-up time in seconds.
    fn median(&self) -> f64 {
        stats::median(&self.0).unwrap_or(0.0)
    }
}

/// The four ORSIH extractors, one per domain in `Domain::ALL` order.
pub fn orsih_extractors() -> Result<Vec<RecordExtractor>, String> {
    Domain::ALL
        .iter()
        .map(|&d| {
            RecordExtractor::new(ExtractorConfig::default().with_ontology(inputs::ontology(d)))
                .map_err(|e| format!("{d} extractor: {e}"))
        })
        .collect()
}

/// Index of `domain` in `Domain::ALL`.
pub fn domain_index(domain: Domain) -> usize {
    Domain::ALL.iter().position(|&d| d == domain).unwrap_or(0)
}

fn null_sink() -> Arc<dyn TraceSink> {
    Arc::new(NullSink)
}

/// Adds the end-to-end metrics. `latencies_ms` holds, per operation (a
/// request, or a round over the whole input set), the time from handing it to the
/// program to holding its answer; `miss_latencies_ms` the same for the
/// operations the program had no stored answer for (every operation, on
/// the workloads without a store or with a fresh one).
fn finish(
    result: &mut RunResult,
    setup_s: f64,
    throughput: f64,
    latencies_ms: &[f64],
    miss_latencies_ms: &[f64],
) {
    let p50 = |values: &[f64]| stats::percentile(values, 0.5).unwrap_or(0.0);
    result.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_mib_s", throughput, "MiB/s"),
        Metric::new("latency_p50_ms", p50(latencies_ms), "ms"),
        Metric::new("miss_latency_p50_ms", p50(miss_latencies_ms), "ms"),
    ];
    match report::peak_rss_mib() {
        Some(rss) => result.metrics.push(Metric::new("peak_rss_mib", rss, "MiB")),
        None => result.problem("peak RSS unavailable (no /proc/self/status)"),
    }
}

/// Runs whole rounds until `seconds` have passed (at least one). `round`
/// returns the timed seconds of its round.
fn timed_rounds(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || started.elapsed().as_secs_f64() < seconds {
        times.push(round(times.len())?);
    }
    Ok(times)
}

/// Runs one workload with tracing off.
pub fn run(workload: Workload, opts: &Opts) -> Result<RunResult, String> {
    match workload {
        Workload::OrsihBatch => orsih_batch(opts),
        Workload::LargePages => large_pages(opts),
        Workload::ServeStore => serve_store(opts),
        Workload::Figure1Pipeline => figure1(opts),
    }
}

/// `orsih-batch`: ORSIH `extract_records` through `run_batch` on every
/// core, one batch per domain with that domain's ontology.
fn orsih_batch(opts: &Opts) -> Result<RunResult, String> {
    let docs = inputs::site_docs(opts.seed);
    let mut setup = SetupClock(Vec::new());
    let extractors = setup.time(orsih_extractors)?;
    let config = BatchConfig::with_jobs(opts.jobs);
    let sink = null_sink();
    let bytes = inputs::total_bytes(&docs);
    let mut result = RunResult::default();
    let mut tally = Tally::default();
    let mut first: Vec<Option<Found>> = vec![None; docs.len()];

    let times = timed_rounds(opts.seconds, |round| {
        let mut batches: Vec<Vec<(u64, String)>> = vec![Vec::new(); Domain::ALL.len()];
        for (id, doc) in docs.iter().enumerate() {
            batches[domain_index(doc.domain)].push((id as u64, doc.html.clone()));
        }
        let started = Instant::now();
        let mut reports = Vec::with_capacity(batches.len());
        for (batch, extractor) in batches.into_iter().zip(&extractors) {
            reports.push(run_batch(extractor, batch, &config, &sink).map_err(|e| e.to_string())?);
        }
        let elapsed = started.elapsed().as_secs_f64();
        for r in reports.iter().flat_map(|r| &r.results) {
            result.attempted += 1;
            let id = r.doc_id as usize;
            match &r.outcome {
                Ok(extraction) => {
                    let found = Found::of_extraction(extraction);
                    if round == 0 {
                        tally.check(&found, &docs[id]);
                        first[id] = Some(found);
                    } else if first[id].as_ref() != Some(&found) {
                        result.problem(format!(
                            "{}: round {round} differs from round 0",
                            docs[id].site
                        ));
                    }
                }
                Err(e) => {
                    result.failed += 1;
                    result.problem(format!("{}: {e}", docs[id].site));
                }
            }
        }
        setup.time(orsih_extractors)?;
        Ok(elapsed)
    })?;
    for p in tally.verdict(checks::ORSIH_FLOOR) {
        result.problem(p);
    }
    let per_round: Vec<f64> = times.iter().map(|t| inputs::mib(bytes) / t).collect();
    // The caller holds the answers to the whole input set, four domain
    // batches, when the round's last `run_batch` returns.
    let latencies_ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    finish(
        &mut result,
        setup.median(),
        stats::median(&per_round).unwrap_or(0.0),
        &latencies_ms,
        &latencies_ms,
    );
    Ok(result)
}

/// Removes a store file, ignoring "not found".
fn remove(path: &Path) {
    if let Err(e) = std::fs::remove_file(path) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("warning: cannot remove {}: {e}", path.display());
        }
    }
}

/// `large-pages`: structural extraction of 64 KiB–1 MiB pages through
/// `run_batch_stored` on one worker into a fresh store per round, so every
/// page is a miss and each round ends with one durable commit.
fn large_pages(opts: &Opts) -> Result<RunResult, String> {
    let docs = inputs::large_pages(opts.seed);
    let store_path = |round: usize| opts.scratch.join(format!("pages-{round}.rbd"));
    // Set-up: the extractor and the run's first fresh store. Every later
    // round's fresh store is created the same way and timed as a set-up
    // repetition.
    let mut setup = SetupClock(Vec::new());
    let new_store = |round: usize| {
        let path = store_path(round);
        remove(&path);
        Store::open(&path).map_err(|e| format!("create store: {e}"))
    };
    let (extractor, first_store) =
        setup.time(|| Ok((RecordExtractor::default(), new_store(0)?)))?;
    let mut first_store = Some(first_store);
    let config = BatchConfig::with_jobs(1);
    let sink = null_sink();
    let bytes = inputs::total_bytes(&docs);
    let mut result = RunResult::default();
    let mut tally = Tally::default();
    let mut first: Vec<Option<Found>> = vec![None; docs.len()];

    let times = timed_rounds(opts.seconds, |round| {
        let path = store_path(round);
        let mut store = match first_store.take() {
            Some(store) => store,
            None => setup.time(|| new_store(round))?,
        };
        let batch: Vec<(u64, Option<String>, String)> = docs
            .iter()
            .enumerate()
            .map(|(id, d)| (id as u64, None, d.html.clone()))
            .collect();
        let started = Instant::now();
        let report = run_batch_stored(&extractor, batch, &config, &sink, &mut store)
            .map_err(|e| e.to_string())?;
        let elapsed = started.elapsed().as_secs_f64();
        drop(store);

        if report.hits != 0 || report.misses != docs.len() as u64 {
            result.problem(format!(
                "fresh store answered {} hits / {} misses",
                report.hits, report.misses
            ));
        }
        if let Some(e) = &report.write_error {
            result.problem(format!("commit failed: {e}"));
        }
        let mut reopened = Store::open(&path).map_err(|e| format!("reopen store: {e}"))?;
        let mut committed = 0u64;
        for r in &report.results {
            result.attempted += 1;
            let id = r.doc_id as usize;
            match &r.outcome {
                Ok(stored) => {
                    committed += 1;
                    let found = Found::of_stored(stored);
                    if round == 0 {
                        tally.check(&found, &docs[id]);
                        first[id] = Some(found);
                    } else if first[id].as_ref() != Some(&found) {
                        result.problem(format!(
                            "{}: round {round} differs from round 0",
                            docs[id].site
                        ));
                    }
                    match reopened.get(&r.hash) {
                        Ok(Some(back)) if &back == stored => {}
                        other => result.problem(format!(
                            "{}: reopened store returns {:?} instead of the committed document",
                            docs[id].site,
                            other.map(|d| d.map(|d| d.separator))
                        )),
                    }
                }
                Err(e) => {
                    result.failed += 1;
                    result.problem(format!("{}: {e}", docs[id].site));
                }
            }
        }
        if reopened.len() != committed {
            result.problem(format!(
                "reopened store holds {} documents, {committed} were committed",
                reopened.len()
            ));
        }
        drop(reopened);
        remove(&path);
        Ok(elapsed)
    })?;
    for p in tally.verdict(checks::STRUCTURAL_FLOOR) {
        result.problem(p);
    }
    let per_round: Vec<f64> = times.iter().map(|t| inputs::mib(bytes) / t).collect();
    // Every page's answer arrives, committed, when `run_batch_stored`
    // returns: a page's latency is its round's time.
    let latencies_ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    finish(
        &mut result,
        setup.median(),
        stats::median(&per_round).unwrap_or(0.0),
        &latencies_ms,
        &latencies_ms,
    );
    Ok(result)
}

/// The serve response body a fresh default-profile extraction of `html`
/// gets — what a miss must return and a later hit must repeat.
pub fn expected_body(extractor: &RecordExtractor, html: &str) -> Result<String, String> {
    extractor
        .extract_records(html)
        .map(|e| extraction_response_json(&e).to_string())
        .map_err(|e| e.to_string())
}

/// Commits every document to a new store at `path` through
/// `run_batch_stored`; returns the number committed.
pub fn prefill_store(path: &Path, docs: &[Doc], jobs: usize) -> Result<u64, String> {
    remove(path);
    let mut store = Store::open(path).map_err(|e| format!("create store: {e}"))?;
    let batch = docs
        .iter()
        .enumerate()
        .map(|(id, d)| (id as u64, None, d.html.clone()))
        .collect();
    let report = run_batch_stored(
        &RecordExtractor::default(),
        batch,
        &BatchConfig::with_jobs(jobs),
        &null_sink(),
        &mut store,
    )
    .map_err(|e| e.to_string())?;
    if let Some(e) = report.write_error {
        return Err(format!("pre-fill commit failed: {e}"));
    }
    Ok(store.len())
}

/// Binds a store-backed server on a free loopback port.
pub fn bind_server(store: &Path, jobs: usize) -> Result<Server, String> {
    let config = ServeConfig {
        workers: jobs,
        store: Some(store.to_path_buf()),
        ..ServeConfig::default()
    };
    Server::bind(config, None).map_err(|e| e.to_string())
}

/// A fresh (miss) request's identity and the content hash of its answer,
/// verified after the run. Only the hash is kept, so that the run's peak
/// memory does not grow with the number of misses answered.
struct FreshReply {
    base: usize,
    n: u64,
    body: ContentHash,
}

/// What one `serve-store` client saw.
#[derive(Default)]
struct ClientLog {
    /// Latency, request bytes and miss flag of every answered request.
    answered: Vec<(Duration, usize, bool)>,
    fresh: Vec<FreshReply>,
    problems: Vec<String>,
    /// Requests without an answer (connection errors).
    lost: u64,
    /// Requests lost or answered with a status other than 200.
    failed: u64,
}

/// Shared state of the `serve-store` closed loop.
struct Loop<'a> {
    addr: std::net::SocketAddr,
    docs: &'a [Doc],
    hit_requests: &'a [Vec<u8>],
    expected: &'a [String],
    seed: u64,
    deadline: Instant,
    next_hit: AtomicU64,
    next_fresh: AtomicU64,
}

/// One closed-loop client: whole rounds of `SERVE_ROUND` requests, each
/// sent only after the previous reply, until the deadline.
fn client(l: &Loop<'_>) -> ClientLog {
    let mut log = ClientLog::default();
    let n_docs = l.docs.len() as u64;
    while Instant::now() < l.deadline {
        for k in 0..SERVE_ROUND {
            let is_miss = k == SERVE_ROUND - 1;
            let fresh_request;
            let (request, id, n): (&[u8], usize, u64) = if is_miss {
                let n = l.next_fresh.fetch_add(1, Ordering::Relaxed);
                let base = (n % n_docs) as usize;
                fresh_request =
                    client::extract_request(&inputs::fresh_variant(&l.docs[base].html, l.seed, n));
                (&fresh_request, base, n)
            } else {
                let id = (l.next_hit.fetch_add(1, Ordering::Relaxed) % n_docs) as usize;
                (&l.hit_requests[id], id, 0)
            };
            let reply = match client::send(l.addr, request) {
                Ok(reply) => reply,
                Err(e) => {
                    log.lost += 1;
                    log.failed += 1;
                    log.problems.push(format!("request failed: {e}"));
                    continue;
                }
            };
            log.failed += u64::from(reply.status != 200);
            let checked = if is_miss {
                let verdict = if reply.status == 200 && reply.cache.as_deref() == Some("miss") {
                    Ok(())
                } else {
                    Err(format!(
                        "fresh request got {} / {:?}",
                        reply.status, reply.cache
                    ))
                };
                log.fresh.push(FreshReply {
                    base: id,
                    n,
                    body: ContentHash::of(reply.body.as_bytes()),
                });
                verdict
            } else {
                checks::check_response(
                    reply.status,
                    reply.cache.as_deref(),
                    &reply.body,
                    "hit",
                    &l.expected[id],
                )
            };
            if let Err(e) = checked {
                log.problems.push(format!("{}: {e}", l.docs[id].site));
            }
            log.answered.push((reply.latency, request.len(), is_miss));
        }
    }
    log
}

/// `serve-store`: a closed loop of `jobs` clients against a store-backed
/// `Server`. Each client round is 49 requests for stored documents (hits)
/// and one fresh document (a miss).
fn serve_store(opts: &Opts) -> Result<RunResult, String> {
    let docs = inputs::site_docs(opts.seed);
    let path = opts.scratch.join("serve.rbd");
    let prefilled = prefill_store(&path, &docs, opts.jobs)?;
    let mut result = RunResult::default();
    if prefilled != docs.len() as u64 {
        result.problem(format!(
            "pre-fill committed {prefilled} of {} documents",
            docs.len()
        ));
    }
    let extractor = RecordExtractor::default();
    let mut tally = Tally::default();
    let mut expected = Vec::with_capacity(docs.len());
    for doc in &docs {
        let body = expected_body(&extractor, &doc.html)?;
        tally.check(&Found::of_response_body(&body)?, doc);
        expected.push(body);
    }
    for p in tally.verdict(checks::STRUCTURAL_FLOOR) {
        result.problem(p);
    }
    let hit_requests: Vec<Vec<u8>> = docs
        .iter()
        .map(|d| client::extract_request(&d.html))
        .collect();

    // Set-up: `Server::bind`, which recovers the pre-filled store.
    let copy = opts.scratch.join("serve-setup.rbd");
    std::fs::copy(&path, &copy).map_err(|e| format!("copy store: {e}"))?;
    let mut setup = SetupClock(Vec::new());
    let repeat_setup = |setup: &mut SetupClock| -> Result<(), String> {
        for _ in 0..SERVE_SETUP_REPS {
            let server = setup.time(|| bind_server(&copy, opts.jobs))?;
            server.shutdown_handle().trigger();
            server.run();
        }
        Ok(())
    };
    repeat_setup(&mut setup)?;
    let server = setup.time(|| bind_server(&path, opts.jobs))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let started = Instant::now();
    let shared = Loop {
        addr,
        docs: &docs,
        hit_requests: &hit_requests,
        expected: &expected,
        seed: opts.seed,
        deadline: started + Duration::from_secs_f64(opts.seconds),
        next_hit: AtomicU64::new(0),
        next_fresh: AtomicU64::new(0),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..opts.jobs)
            .map(|_| scope.spawn(|| client(&shared)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    shutdown.trigger();
    let report = server_thread.join().map_err(|_| "server thread panicked")?;
    repeat_setup(&mut setup)?;
    let setup_s = setup.median();
    if report.worker_panics != 0 {
        result.problem(format!("{} server worker panics", report.worker_panics));
    }
    let answered: Vec<(Duration, usize, bool)> =
        logs.iter().flat_map(|l| l.answered.clone()).collect();
    let fresh: Vec<&FreshReply> = logs.iter().flat_map(|l| &l.fresh).collect();
    for p in logs.iter().flat_map(|l| &l.problems).take(20) {
        result.problem(p.clone());
    }
    result.attempted = answered.len() as u64 + logs.iter().map(|l| l.lost).sum::<u64>();
    result.failed = logs.iter().map(|l| l.failed).sum();

    // Every miss body must be what an in-process extraction of the same
    // bytes gives, with the record properties; the store must reopen
    // holding the pre-filled documents plus every fresh one.
    let mut reopened = Store::open(&path).map_err(|e| format!("reopen store: {e}"))?;
    for f in fresh.iter().copied() {
        let html = inputs::fresh_variant(&docs[f.base].html, opts.seed, f.n);
        let want = expected_body(&extractor, &html)?;
        if f.body != ContentHash::of(want.as_bytes()) {
            result.problem(format!(
                "{}: miss body differs from in-process extraction",
                docs[f.base].site
            ));
        }
        if let Err(e) = Found::of_response_body(&want)
            .and_then(|found| checks::record_properties(&found, &html))
        {
            result.problem(format!("{}: {e}", docs[f.base].site));
        }
        if !reopened.contains(&ContentHash::of(html.as_bytes())) {
            result.problem(format!(
                "fresh request {} is not in the reopened store",
                f.n
            ));
        }
    }
    if reopened.len() != prefilled + fresh.len() as u64 {
        result.problem(format!(
            "reopened store holds {} documents, {} were committed",
            reopened.len(),
            prefilled + fresh.len() as u64
        ));
    }
    if let Ok(Some(entry)) = reopened.hit(&ContentHash::of(docs[0].html.as_bytes())) {
        if entry.response != expected[0] {
            result.problem("reopened store's hit body differs from the miss body");
        }
    }
    drop(reopened);
    remove(&path);
    remove(&copy);

    let ms = |latency: &Duration| latency.as_secs_f64() * 1e3;
    let latencies_ms: Vec<f64> = answered.iter().map(|(latency, ..)| ms(latency)).collect();
    let miss_latencies_ms: Vec<f64> = answered
        .iter()
        .filter(|(.., miss)| *miss)
        .map(|(latency, ..)| ms(latency))
        .collect();
    let bytes: usize = answered.iter().map(|(_, bytes, _)| bytes).sum();
    let throughput = inputs::mib(bytes) / wall;
    finish(
        &mut result,
        setup_s,
        throughput,
        &latencies_ms,
        &miss_latencies_ms,
    );
    Ok(result)
}

/// Per-domain Figure-1 machinery: ORSIH extractor, recognizer and
/// instance generator.
pub type Figure1Parts = Vec<(RecordExtractor, Recognizer, InstanceGenerator)>;

/// Builds the Figure-1 machinery for every domain.
pub fn figure1_parts() -> Result<Figure1Parts, String> {
    orsih_extractors()?
        .into_iter()
        .zip(Domain::ALL)
        .map(|(extractor, d)| {
            let ontology = inputs::ontology(d);
            let recognizer =
                Recognizer::new(&ontology).map_err(|e| format!("{d} recognizer: {e}"))?;
            Ok((extractor, recognizer, InstanceGenerator::new(&ontology)))
        })
        .collect()
}

/// `figure1-pipeline`: `discover_and_recognize`, `record_tables` and
/// `InstanceGenerator::populate`, serially over the four domains.
fn figure1(opts: &Opts) -> Result<RunResult, String> {
    let docs = inputs::site_docs(opts.seed);
    let mut setup = SetupClock(Vec::new());
    let parts = setup.time(figure1_parts)?;
    let bytes = inputs::total_bytes(&docs);
    // The fields each domain's truth ever fills: the scorer's precision
    // counts extracted values of these fields only.
    let mut tracked = vec![BTreeSet::new(); Domain::ALL.len()];
    for doc in &docs {
        let fields = doc.truth.records.iter().flatten().map(|(f, _)| f.clone());
        tracked[domain_index(doc.domain)].extend(fields);
    }
    let mut result = RunResult::default();
    let mut tally = Tally::default();
    let mut rows = RowTally::default();
    let mut first: Vec<Option<(String, usize, usize)>> = vec![None; docs.len()];

    let times = timed_rounds(opts.seconds, |round| {
        let mut outputs = Vec::with_capacity(docs.len());
        let started = Instant::now();
        for doc in &docs {
            let (extractor, recognizer, generator) = &parts[domain_index(doc.domain)];
            outputs.push(
                extractor
                    .discover_and_recognize(&doc.html, recognizer)
                    .map(|ie| {
                        let tables = ie.record_tables();
                        let db = generator.populate(&tables);
                        // A separator after the last record leaves an empty
                        // trailing partition (and an all-NULL row); only tables
                        // holding entries are records.
                        let records = tables.iter().filter(|t| !t.is_empty()).count();
                        (ie.outcome.separator, records, db)
                    }),
            );
        }
        let elapsed = started.elapsed().as_secs_f64();
        for (id, (doc, output)) in docs.iter().zip(outputs).enumerate() {
            result.attempted += 1;
            let (separator, records, db) = match output {
                Ok(o) => o,
                Err(e) => {
                    result.failed += 1;
                    result.problem(format!("{}: {e}", doc.site));
                    continue;
                }
            };
            let summary = (separator, records, db.total_rows());
            if round > 0 {
                if first[id].as_ref() != Some(&summary) {
                    result.problem(format!("{}: round {round} differs from round 0", doc.site));
                }
                continue;
            }
            tally.check_count(&summary.0, records, doc);
            if summary.0 == doc.truth.separator {
                match db.table(&db.scheme().entity_relation) {
                    Some(entity) => {
                        rows.score(entity, records, doc, &tracked[domain_index(doc.domain)]);
                    }
                    None => result.problem(format!("{}: no entity table", doc.site)),
                }
            }
            first[id] = Some(summary);
        }
        setup.time(figure1_parts)?;
        Ok(elapsed)
    })?;
    eprintln!(
        "figure1-pipeline: separator right on {}/{}; rows match {}/{} truth values, {}/{} extracted values",
        tally.right, tally.docs, rows.matched, rows.fields, rows.matched, rows.extracted
    );
    for p in tally
        .verdict(checks::ORSIH_FLOOR)
        .into_iter()
        .chain(rows.verdict(checks::ROW_RECALL_FLOOR, checks::ROW_PRECISION_FLOOR))
    {
        result.problem(p);
    }
    let per_round: Vec<f64> = times.iter().map(|t| inputs::mib(bytes) / t).collect();
    // The caller holds every document's populated database when the serial
    // round ends. (A per-document median would jump between the document
    // size classes from run to run.)
    let latencies_ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    finish(
        &mut result,
        setup.median(),
        stats::median(&per_round).unwrap_or(0.0),
        &latencies_ms,
        &latencies_ms,
    );
    Ok(result)
}
