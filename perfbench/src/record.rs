//! The three recording workloads: `ingest_tcp`, `feed_tcp` and `mixed_inproc`.
//!
//! All are closed loops: each recorder blocks on its ack and each reader on its answer. The
//! record window opens when the clients start and closes only after the cluster's closing
//! `flush()` returns, so throughput counts committed assertions, not router-buffered ones.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pasoa_cluster::{ClusterConfig, FeedOptions, PreservCluster};
use pasoa_core::ids::{ActorId, IdGenerator, SessionId};
use pasoa_core::passertion::{PAssertion, RecordedAssertion};
use pasoa_core::prep::{
    PagedQuery, PrepMessage, QueryPage, QueryRequest, QueryResponse, RecordMessage,
};
use pasoa_core::{prepwire, PROVENANCE_STORE_SERVICE};
use pasoa_feed::{FeedEventBody, FeedFilter, FeedSubscriberClient};
use pasoa_obs::RegistrySnapshot;
use pasoa_preserv::{KvBackend, LineageGraph, MemoryBackend, StorageBackend, StoreError};
use pasoa_wire::{Envelope, ServiceHost, Transport, TransportConfig};

use crate::gen::{self, Rng, RECORD_BATCH, SESSION_ASSERTIONS};
use crate::trace::Tracer;
use crate::verify::{self, Delivered};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 2 recorders over loopback TCP to 2 kvdb shards, replication 2.
    Ingest,
    /// 1 recorder plus 1 feed subscriber over TCP, 1 memory shard with the feed tier.
    Feed,
    /// 1 recorder plus 1 reader in process, 2 memory shards preloaded with a corpus.
    Mixed,
}

impl Kind {
    fn writers(self) -> usize {
        match self {
            Kind::Ingest => 2,
            Kind::Feed | Kind::Mixed => 1,
        }
    }
}

/// Record windows per run, each on a fresh deployment: each store, and the memory a window
/// holds, stays small. Every window still makes at least 1,000 record calls, so each window's
/// p99 has at least 10 calls beyond it.
pub const WINDOWS: usize = 20;

/// Page size of the reader's `query-page` requests.
const PAGE_SIZE: usize = 64;
/// Feed subscriber poll window (the feed's default batch size).
const POLL_MAX: usize = 32;
/// Recorded sessions read back and compared per run, spread evenly over its windows: 50 per
/// window, so each window's read-backs have a tail (p80) with 10 samples beyond it.
const SAMPLED_SESSIONS: usize = 1000;

pub struct Deployment {
    pub host: ServiceHost,
    pub cluster: Arc<PreservCluster>,
    pub kv_dir: Option<PathBuf>,
    /// Assertions in the store before the record window (the preloaded corpus).
    pub preloaded: u64,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // The router keeps the host it is registered on, and the host keeps the router: without
        // deregistering, a dropped deployment and everything it stored stay in memory.
        for host in [self.cluster.fabric(), &self.host] {
            for name in host.service_names() {
                host.deregister(&name);
            }
        }
        // A shard's store holds its feed queue's stager and the queue holds the store (for
        // lineage filters): without cutting that cycle, every feed deployment stays in memory.
        for store in self.cluster.shard_stores() {
            store.set_record_stager(None);
        }
    }
}

fn store_err(e: StoreError) -> String {
    e.to_string()
}

/// Deploy the workload's cluster (and preload it); `dir` is a fresh directory for kvdb shards.
pub fn deploy(kind: Kind, seed: u64, dir: &Path) -> Result<Deployment, String> {
    let host = ServiceHost::new();
    let memory = |_: usize| Ok(Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>);
    let (cluster, kv_dir) = match kind {
        Kind::Ingest => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let root = dir.to_path_buf();
            let cluster = PreservCluster::deploy_with(
                &host,
                ClusterConfig::replicated(2, 2).over_tcp(),
                move |shard| {
                    let backend = KvBackend::open(root.join(format!("shard-{shard}")))
                        .map_err(StoreError::Backend)?;
                    Ok(Arc::new(backend) as Arc<dyn StorageBackend>)
                },
            )
            .map_err(store_err)?;
            (cluster, Some(dir.to_path_buf()))
        }
        Kind::Feed => (
            PreservCluster::deploy_with(
                &host,
                ClusterConfig::with_shards(1)
                    .over_tcp()
                    .with_feed(FeedOptions::default()),
                memory,
            )
            .map_err(store_err)?,
            None,
        ),
        Kind::Mixed => (
            PreservCluster::deploy_with(&host, ClusterConfig::with_shards(2), memory)
                .map_err(store_err)?,
            None,
        ),
    };
    let mut preloaded = 0;
    if kind == Kind::Mixed {
        let transport = host.transport(TransportConfig::free());
        let ids = IdGenerator::new("bench-preload");
        for session in 0..gen::CORPUS_SESSIONS {
            let assertions = gen::corpus_session_assertions(seed, session);
            preloaded += assertions.len() as u64;
            let ack = record_call(&transport, &ids, &ActorId::new("bench-preload"), assertions)?;
            if ack != gen::CORPUS_PER_SESSION {
                return Err(format!(
                    "preload: {ack} of {} accepted",
                    gen::CORPUS_PER_SESSION
                ));
            }
        }
        cluster.flush().map_err(store_err)?;
    }
    Ok(Deployment {
        host,
        cluster,
        kv_dir,
        preloaded,
    })
}

/// One packed `Record` message through `transport`; returns how many assertions were accepted.
fn record_call(
    transport: &Transport,
    ids: &IdGenerator,
    asserter: &ActorId,
    assertions: Vec<RecordedAssertion>,
) -> Result<usize, String> {
    let sent = assertions.len();
    let message = RecordMessage {
        message_id: ids.message_id(),
        asserter: asserter.clone(),
        assertions,
    };
    let envelope = Envelope::request(PROVENANCE_STORE_SERVICE, "record")
        .with_header("sender", asserter.as_str())
        .with_body(prepwire::record_to_element(&message));
    let response = transport.call(envelope).map_err(|e| e.to_string())?;
    if response.is_fault() {
        return Err(response.fault_reason().unwrap_or_default());
    }
    let ack = prepwire::ack_from_element(&response.body).map_err(|e| e.to_string())?;
    if !ack.rejected.is_empty() {
        return Err(format!("{} of {sent} rejected", ack.rejected.len()));
    }
    Ok(ack.accepted)
}

/// One JSON-bodied PReP request through `transport`, its answer decoded.
pub fn wire_call<T: serde::de::DeserializeOwned>(
    transport: &Transport,
    action: &str,
    message: &PrepMessage,
) -> Result<T, String> {
    let envelope = Envelope::request(PROVENANCE_STORE_SERVICE, action)
        .with_json_payload(message)
        .map_err(|e| e.to_string())?;
    let response = transport.call(envelope).map_err(|e| e.to_string())?;
    if response.is_fault() {
        return Err(response.fault_reason().unwrap_or_default());
    }
    response.json_payload().map_err(|e| e.to_string())
}

/// By-session query over the wire.
fn query_session(
    transport: &Transport,
    session: &SessionId,
) -> Result<Vec<RecordedAssertion>, String> {
    let message = PrepMessage::Query(QueryRequest::BySession(session.clone()));
    match wire_call::<QueryResponse>(transport, "query", &message)? {
        QueryResponse::Assertions(found) => Ok(found),
        QueryResponse::Empty => Ok(Vec::new()),
        other => Err(format!("unexpected query response {other:?}")),
    }
}

/// What one recorder thread did.
#[derive(Default)]
pub struct WriterOut {
    pub latencies_us: Vec<f64>,
    pub calls: u64,
    pub acked: u64,
    /// Sessions whose four record calls were all acked.
    pub complete_sessions: Vec<usize>,
    /// `(session, chunk)` of every acked record call.
    pub acked_chunks: Vec<(usize, usize)>,
    pub errors: Vec<String>,
}

/// Record whole sessions until `deadline`, timing every call (flush-paying ones included).
/// `issued`, when given, receives the instant each call was issued, indexed by call number.
fn writer(
    transport: &Transport,
    seed: u64,
    w: usize,
    deadline: Instant,
    issued: Option<&Mutex<Vec<Instant>>>,
    tracer: Option<&Tracer>,
) -> WriterOut {
    let asserter = ActorId::new(format!("bench-recorder-{w}"));
    let mut out = WriterOut::default();
    let chunks = SESSION_ASSERTIONS / RECORD_BATCH;
    let mut session = 0;
    while Instant::now() < deadline {
        let ids = IdGenerator::new(gen::record_session(seed, w, session).as_str().to_string());
        let mut complete = true;
        for chunk in 0..chunks {
            let assertions: Vec<RecordedAssertion> = (chunk * RECORD_BATCH
                ..(chunk + 1) * RECORD_BATCH)
                .map(|i| gen::record_assertion(seed, w, session, i))
                .collect();
            if let Some(issued) = issued {
                issued
                    .lock()
                    .expect("issue log poisoned")
                    .push(Instant::now());
            }
            let start = Instant::now();
            let result = match tracer {
                Some(t) => {
                    let request = ((w as u64) << 40) | out.calls;
                    t.span(request, None, "record", |_| {
                        record_call(transport, &ids, &asserter, assertions)
                    })
                    .0
                }
                None => record_call(transport, &ids, &asserter, assertions),
            };
            out.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            out.calls += 1;
            match result {
                Ok(n) if n == RECORD_BATCH => {
                    out.acked += n as u64;
                    out.acked_chunks.push((session, chunk));
                }
                Ok(n) => {
                    complete = false;
                    out.errors
                        .push(format!("record: {n} of {RECORD_BATCH} accepted"));
                }
                Err(e) => {
                    complete = false;
                    out.errors.push(format!("record: {e}"));
                }
            }
        }
        if complete {
            out.complete_sessions.push(session);
        }
        session += 1;
    }
    out
}

/// The reader's expected answers for one corpus session.
pub struct CorpusAnswers {
    /// In the store's answer order: interaction key, then record order within it.
    ordered: Vec<RecordedAssertion>,
    closure_ids: Vec<String>,
}

/// Expected answers for every corpus session, computed from the seed alone.
pub fn corpus_answers(seed: u64) -> Vec<CorpusAnswers> {
    (0..gen::CORPUS_SESSIONS)
        .map(|s| {
            let mut ordered: Vec<(String, usize, RecordedAssertion)> =
                gen::corpus_session_assertions(seed, s)
                    .into_iter()
                    .enumerate()
                    .map(|(k, a)| (interaction_key(&a), k, a))
                    .collect();
            ordered.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
            CorpusAnswers {
                ordered: ordered.into_iter().map(|(_, _, a)| a).collect(),
                closure_ids: gen::corpus_closure_ids(seed, s),
            }
        })
        .collect()
}

fn interaction_key(recorded: &RecordedAssertion) -> String {
    match &recorded.assertion {
        PAssertion::Interaction(p) => p.interaction_key.as_str().to_string(),
        PAssertion::ActorState(p) => p.interaction_key.as_str().to_string(),
        PAssertion::Relationship(p) => p.interaction_key.as_str().to_string(),
    }
}

#[derive(Default)]
pub struct ReaderOut {
    pub latencies_us: Vec<f64>,
    pub by_op_us: [Vec<f64>; 3],
    pub results: u64,
    pub misses: Vec<String>,
}

/// The reader mix: by-session `query`, `lineage` closure of the deepest item, first
/// `query-page` page — round robin, each against a seeded choice of preloaded session.
fn reader(
    transport: &Transport,
    seed: u64,
    deadline: Instant,
    answers: &[CorpusAnswers],
) -> ReaderOut {
    let mut rng = Rng::new(gen::substream(seed, 0x7265_6164));
    let mut out = ReaderOut::default();
    let mut op = 0usize;
    while Instant::now() < deadline {
        let s = rng.below(gen::CORPUS_SESSIONS);
        let session = gen::corpus_session(seed, s);
        let expected = &answers[s];
        let start = Instant::now();
        let (result, label) = match op % 3 {
            0 => (
                query_session(transport, &session).map(|found| {
                    let n = found.len();
                    let misses = if found == expected.ordered {
                        Vec::new()
                    } else {
                        verify::session_answer("by-session", &expected.ordered, &found)
                    };
                    (n, misses)
                }),
                "query",
            ),
            1 => (
                wire_call::<LineageGraph>(
                    transport,
                    "lineage",
                    &PrepMessage::Query(QueryRequest::BySession(session.clone())),
                )
                .map(|graph| {
                    let closure = graph.closure_of(&gen::corpus_deepest(seed, s));
                    let ids: Vec<String> = closure.nodes.keys().cloned().collect();
                    let misses = if ids == expected.closure_ids {
                        Vec::new()
                    } else {
                        vec![format!(
                            "lineage: closure of {} nodes, expected {}",
                            ids.len(),
                            expected.closure_ids.len()
                        )]
                    };
                    (ids.len(), misses)
                }),
                "lineage",
            ),
            _ => (
                wire_call::<QueryPage>(
                    transport,
                    "query-page",
                    &PrepMessage::QueryPage(PagedQuery {
                        request: QueryRequest::BySession(session.clone()),
                        cursor: None,
                        page_size: PAGE_SIZE,
                    }),
                )
                .map(|page| {
                    let n = page.assertions.len();
                    let misses = verify::ordered_answer(
                        "query-page",
                        &expected.ordered[..PAGE_SIZE],
                        &page.assertions,
                    );
                    (n, misses)
                }),
                "query-page",
            ),
        };
        let us = start.elapsed().as_secs_f64() * 1e6;
        out.latencies_us.push(us);
        out.by_op_us[op % 3].push(us);
        match result {
            Ok((n, misses)) => {
                out.results += n as u64;
                out.misses.extend(misses);
            }
            Err(e) => out.misses.push(format!("{label}: {e}")),
        }
        op += 1;
    }
    out
}

#[derive(Default)]
pub struct SubscriberOut {
    pub lags_us: Vec<f64>,
    /// Round trips (poll and ack) of the polls that delivered events.
    pub poll_us: Vec<f64>,
    pub polls: u64,
    pub empty_polls: u64,
    pub delivered: Vec<Delivered>,
    /// Seconds from the start of the window until the last event arrived.
    pub delivery_s: f64,
    pub errors: Vec<String>,
}

/// Poll and ack until the recorder has finished, its writes are flushed and every acked
/// assertion has arrived (or `give_up` passes).
fn subscriber(
    mut client: FeedSubscriberClient,
    start: Instant,
    issued: &Mutex<Vec<Instant>>,
    done: &AtomicBool,
    acked: &AtomicU64,
    give_up: Duration,
) -> SubscriberOut {
    let mut out = SubscriberOut::default();
    let mut drain_started: Option<Instant> = None;
    let calls_per_session = SESSION_ASSERTIONS / RECORD_BATCH;
    loop {
        let begun = Instant::now();
        let polled = client.poll_once(POLL_MAX);
        let now = Instant::now();
        let round_trip_us = (now - begun).as_secs_f64() * 1e6;
        out.polls += 1;
        let events = match polled {
            Ok(events) => events,
            Err(e) => {
                out.errors.push(format!("feed poll: {e}"));
                break;
            }
        };
        if events.is_empty() {
            out.empty_polls += 1;
            if done.load(Ordering::SeqCst) {
                if out.delivered.len() as u64 >= acked.load(Ordering::SeqCst) {
                    break;
                }
                let since = *drain_started.get_or_insert(now);
                if now - since > give_up {
                    break;
                }
            }
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        out.poll_us.push(round_trip_us);
        out.delivery_s = (now - start).as_secs_f64();
        let log = issued.lock().expect("issue log poisoned");
        for event in events {
            match &event.event.body {
                FeedEventBody::Change(recorded) => {
                    if let Some((session, i)) = gen::record_position(recorded) {
                        let call = session * calls_per_session + i / RECORD_BATCH;
                        if let Some(at) = log.get(call) {
                            out.lags_us
                                .push(now.saturating_duration_since(*at).as_secs_f64() * 1e6);
                        }
                    }
                    out.delivered.push(Delivered {
                        seq: event.seq,
                        key: interaction_key(recorded),
                    });
                }
                FeedEventBody::Overflow { dropped } => {
                    out.errors
                        .push(format!("feed: overflow, {dropped} events dropped"));
                }
            }
        }
    }
    out
}

/// Everything one run of a recording workload measured.
pub struct RunOut {
    pub window_s: f64,
    pub writers: Vec<WriterOut>,
    pub reader: Option<ReaderOut>,
    pub subscriber: Option<SubscriberOut>,
    /// Latencies of the post-run read-back of sampled sessions (timed on `ingest_tcp` only,
    /// where it goes over the client's transport).
    pub readback_us: Vec<f64>,
    /// Output checks made: the statistics comparison and one per sampled session.
    pub checks: u64,
    pub misses: Vec<String>,
    /// Bytes every TCP server of the deployment read during the window.
    pub server_bytes_in: u64,
    pub before: RegistrySnapshot,
    pub after: RegistrySnapshot,
    /// Bytes in the kvdb shard directories after the run.
    pub kv_bytes: u64,
}

impl RunOut {
    pub fn acked(&self) -> u64 {
        self.writers.iter().map(|w| w.acked).sum()
    }

    pub fn record_latencies(&self) -> Vec<f64> {
        self.writers
            .iter()
            .flat_map(|w| w.latencies_us.iter().copied())
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        let calls: u64 = self.writers.iter().map(|w| w.calls).sum();
        calls
            + self
                .reader
                .as_ref()
                .map_or(0, |r| r.latencies_us.len() as u64)
            + self.subscriber.as_ref().map_or(0, |s| s.polls)
            + self.checks
    }

    /// Every failed or refused call and every failed output check, one line each.
    pub fn failures(&self) -> Vec<String> {
        let mut all = self.misses.clone();
        for w in &self.writers {
            all.extend(w.errors.iter().cloned());
        }
        all
    }
}

/// Observability snapshot across the deployment: the caller's host (client-side proxies) plus
/// the cluster's merged router and shard registries.
fn snapshot(d: &Deployment) -> RegistrySnapshot {
    let mut merged = match d.cluster.stats_snapshot() {
        Ok(s) => s.merged(),
        Err(_) => RegistrySnapshot::default(),
    };
    if d.cluster.router_addr().is_some() {
        merged.merge(&d.host.registry().snapshot());
    }
    merged
}

fn server_bytes_in(d: &Deployment) -> u64 {
    d.cluster
        .net_server_stats()
        .iter()
        .map(|(_, stats)| stats.bytes_in)
        .sum()
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Run one record window of `seconds` against `d`, then verify.
pub fn run(
    kind: Kind,
    d: &Deployment,
    seed: u64,
    seconds: f64,
    answers: Option<&[CorpusAnswers]>,
    tracer: Option<&Tracer>,
) -> RunOut {
    let before = snapshot(d);
    let bytes_in_before = server_bytes_in(d);
    let transport_config = match kind {
        // The TCP proxy already serializes every envelope; the textual simulation would be a
        // second codec on the same hop.
        Kind::Ingest | Kind::Feed => TransportConfig::passthrough(),
        Kind::Mixed => TransportConfig::free(),
    };
    let issued = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);
    let acked_so_far = AtomicU64::new(0);
    let mut misses = Vec::new();
    let client = (kind == Kind::Feed).then(|| {
        let shard = d.cluster.router().shard_names().remove(0);
        let mut client = FeedSubscriberClient::new(
            d.cluster.fabric().transport(TransportConfig::passthrough()),
            shard,
            format!("bench-subscriber-{seed:x}"),
            FeedFilter::All,
        );
        if let Err(e) = client.connect() {
            misses.push(format!("feed subscribe: {e}"));
        }
        client
    });

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (writers, reader, sub, window_s, flushed) = std::thread::scope(|scope| {
        let sub = client.map(|client| {
            let (issued, done, acked) = (&issued, &done, &acked_so_far);
            scope.spawn(move || {
                subscriber(client, start, issued, done, acked, Duration::from_secs(20))
            })
        });
        let reader = (kind == Kind::Mixed).then(|| {
            let transport = d.host.transport(transport_config.clone());
            let answers = answers.expect("mixed workload needs its corpus answers");
            scope.spawn(move || reader(&transport, seed, deadline, answers))
        });
        let handles: Vec<_> = (0..kind.writers())
            .map(|w| {
                let transport = d.host.transport(transport_config.clone());
                let issued = (kind == Kind::Feed).then_some(&issued);
                scope.spawn(move || writer(&transport, seed, w, deadline, issued, tracer))
            })
            .collect();
        let writers: Vec<WriterOut> = handles
            .into_iter()
            .map(|h| h.join().expect("recorder thread panicked"))
            .collect();
        let flushed = d.cluster.flush();
        let window_s = start.elapsed().as_secs_f64();
        acked_so_far.store(writers.iter().map(|w| w.acked).sum(), Ordering::SeqCst);
        done.store(true, Ordering::SeqCst);
        let reader = reader.map(|h| h.join().expect("reader thread panicked"));
        let sub = sub.map(|h| h.join().expect("subscriber thread panicked"));
        (writers, reader, sub, window_s, flushed)
    });
    let after = snapshot(d);
    let server_bytes_in = server_bytes_in(d) - bytes_in_before;
    if let Err(e) = flushed {
        misses.push(format!("closing flush: {e}"));
    }

    // Zero acked loss and no phantoms: the committed count equals the acked count...
    let acked: u64 = writers.iter().map(|w| w.acked).sum();
    match d.cluster.statistics() {
        Ok(stats) => misses.extend(verify::committed_count(
            "statistics",
            stats.total_passertions(),
            d.preloaded + acked,
        )),
        Err(e) => misses.push(format!("statistics: {e}")),
    }
    // ...and sampled sessions answer exactly the generated assertions.
    let mut complete: Vec<(usize, usize)> = writers
        .iter()
        .enumerate()
        .flat_map(|(w, out)| out.complete_sessions.iter().map(move |&s| (w, s)))
        .collect();
    let mut rng = Rng::new(gen::substream(seed, 0x7361_6d70));
    let mut sampled = Vec::new();
    while !complete.is_empty() && sampled.len() < SAMPLED_SESSIONS / WINDOWS {
        sampled.push(complete.swap_remove(rng.below(complete.len())));
    }
    let checks = 1 + sampled.len() as u64;
    let mut readback_us = Vec::new();
    let readback = d.host.transport(transport_config);
    for (w, s) in sampled {
        let session = gen::record_session(seed, w, s);
        let label = format!("session {}", session.as_str());
        let start = Instant::now();
        let found = if kind == Kind::Ingest {
            let found = query_session(&readback, &session);
            readback_us.push(start.elapsed().as_secs_f64() * 1e6);
            found
        } else {
            d.cluster
                .assertions_for_session(&session)
                .map_err(store_err)
        };
        match found {
            Ok(found) => misses.extend(verify::session_answer(
                &label,
                &gen::session_assertions(seed, w, s),
                &found,
            )),
            Err(e) => misses.push(format!("{label}: {e}")),
        }
    }
    if let Some(r) = &reader {
        misses.extend(r.misses.iter().cloned());
    }
    if let Some(sub) = &sub {
        misses.extend(sub.errors.iter().cloned());
        let acked_keys: Vec<String> = writers[0]
            .acked_chunks
            .iter()
            .flat_map(|&(s, c)| {
                (c * RECORD_BATCH..(c + 1) * RECORD_BATCH)
                    .map(move |i| interaction_key(&gen::record_assertion(seed, 0, s, i)))
            })
            .collect();
        misses.extend(verify::feed_delivery(&acked_keys, &sub.delivered));
    }
    let kv_bytes = d.kv_dir.as_deref().map_or(0, dir_bytes);
    RunOut {
        window_s,
        writers,
        reader,
        subscriber: sub,
        readback_us,
        checks,
        misses,
        server_bytes_in,
        before,
        after,
        kv_bytes,
    }
}
