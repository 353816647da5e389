//! Per-layer replays for the traced run: a sample of the workloads' own generated requests sent
//! through each layer's public entry point on its own, one span per layer, all spans of one
//! replayed request sharing its request id.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pasoa_bioseq::{collate_sample, shuffle_with_seed, SyntheticGenerator};
use pasoa_cluster::{ClusterConfig, FeedOptions, PreservCluster};
use pasoa_compress::Method;
use pasoa_core::ids::{ActorId, IdGenerator, SessionId};
use pasoa_core::passertion::{PAssertion, RecordedAssertion};
use pasoa_core::prep::{PagedQuery, QueryRequest, RecordAck, RecordMessage};
use pasoa_core::recorder::{AsyncRecorder, NullRecorder, ProvenanceRecorder, SyncRecorder};
use pasoa_core::{prepwire, PROVENANCE_STORE_SERVICE};
use pasoa_experiment::measure::MeasureKit;
use pasoa_experiment::{RunRecording, StoreDeployment};
use pasoa_feed::{FeedFilter, FeedSubscriberClient};
use pasoa_kvdb::{Db, WriteBatch};
use pasoa_net::{NetClient, NetClientConfig, NetServer, NetServerConfig};
use pasoa_obs::Registry;
use pasoa_preserv::{
    KvBackend, MemoryBackend, PreservService, ProvenanceStore, StorageBackend, StoreOptions,
};
use pasoa_query::QueryEngine;
use pasoa_wire::codec::{decode_envelope, encode_envelope};
use pasoa_wire::{
    Envelope, MessageHandler, NetworkProfile, ServiceHost, TransportConfig, WireResult,
};

use crate::gen::{self, RECORD_BATCH};
use crate::trace::Tracer;

/// Replayed requests per layer.
const REPLAYS: usize = 200;

/// Mean microseconds of the spans named `name` (self time: nested child spans excluded).
pub fn layer_us(tracer: &Tracer, name: &str) -> f64 {
    crate::trace::mean_self_us(&tracer.spans(), name).0
}

/// Replay `body` once per sampled request under a span named `layer`.
fn replay<T>(tracer: &Tracer, layer: &str, inputs: &[T], mut body: impl FnMut(&T)) {
    for (request, input) in inputs.iter().enumerate() {
        tracer.span(request as u64, None, layer, |_| body(input));
    }
}

/// The workloads' record messages: 16 generated assertions each.
fn sample_records(seed: u64) -> Vec<RecordMessage> {
    (0..REPLAYS)
        .map(|r| {
            let session = 1_000_000 + r / 4;
            let chunk = r % 4;
            RecordMessage {
                message_id: IdGenerator::new(format!("replay-{r}")).message_id(),
                asserter: ActorId::new("bench-recorder-0"),
                assertions: (chunk * RECORD_BATCH..(chunk + 1) * RECORD_BATCH)
                    .map(|i| gen::record_assertion(seed, 0, session, i))
                    .collect(),
            }
        })
        .collect()
}

fn record_envelope(message: &RecordMessage) -> Envelope {
    Envelope::request(PROVENANCE_STORE_SERVICE, "record")
        .with_header("sender", message.asserter.as_str())
        .with_body(prepwire::record_to_element(message))
}

fn ack_envelope(message: &RecordMessage) -> Envelope {
    Envelope::response("record").with_body(prepwire::ack_to_element(&RecordAck {
        message_id: message.message_id.clone(),
        accepted: message.assertions.len(),
        rejected: Vec::new(),
    }))
}

/// A no-op service: answers every request with a fixed response.
struct Echo {
    response: Envelope,
}

impl MessageHandler for Echo {
    fn handle(&self, _request: Envelope) -> WireResult<Envelope> {
        Ok(self.response.clone())
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

fn m(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// The fig4 workload's encoded 8 KiB sample, as its Encode by Groups step produces it.
fn encoded_sample() -> Vec<u8> {
    let config = crate::fig4::config(0, 0, RunRecording::None);
    let generator = SyntheticGenerator::new(config.synthetic);
    let sample = collate_sample("replay", &generator.proteins(), config.sample_size);
    config
        .grouping
        .coding()
        .encode(&sample.residues)
        .expect("synthetic residues encode")
}

/// Layers the fig4 sweep crosses: compression, shuffling, measurement, recording.
pub fn experiment_layers(tracer: &Tracer, seed: u64) -> Vec<Metric> {
    let sample = encoded_sample();
    let indices: Vec<usize> = (1..=20).collect();
    for method in [Method::Gzip, Method::Ppmz] {
        let compressor = method.compressor();
        let name = match method {
            Method::Gzip => "compress.gzip",
            _ => "compress.ppmz",
        };
        replay(tracer, name, &indices, |_| {
            black_box(compressor.compressed_len(black_box(&sample)));
        });
    }
    replay(tracer, "bioseq.shuffle", &indices, |&i| {
        black_box(shuffle_with_seed(&sample, seed.wrapping_add(i as u64)));
    });
    let kit = MeasureKit::new(&[Method::Gzip, Method::Ppmz]);
    let session = SessionId::new("session:replay:measure");
    let null = NullRecorder::new(session.clone());
    let ids = IdGenerator::new("replay-measure");
    replay(tracer, "experiment.measure", &indices, |&i| {
        black_box(
            kit.measure(&sample, i, seed, &null, &ids, false)
                .expect("null recorder"),
        );
    });

    // Recording against the fig4 deployment: one synchronous record per assertion, and the
    // asynchronous journal shipped at the end.
    let deployment = StoreDeployment::in_memory(NetworkProfile::Paper2005.latency_model(), false);
    let assertions: Vec<PAssertion> = sample_records(seed)
        .into_iter()
        .flat_map(|r| r.assertions)
        .map(|r| r.assertion)
        .take(REPLAYS)
        .collect();
    let sync = SyncRecorder::new(
        SessionId::new("session:replay:sync"),
        ActorId::new("replay"),
        deployment.transport(),
        IdGenerator::new("replay-sync"),
    );
    replay(tracer, "core.sync_record", &assertions, |a| {
        sync.record(a.clone()).expect("sync record");
    });
    let mut ship_us = Vec::new();
    for round in 0..5 {
        let recorder = AsyncRecorder::new(
            SessionId::new(format!("session:replay:async{round}")),
            ActorId::new("replay"),
            deployment.transport(),
            IdGenerator::new(format!("replay-async{round}")),
            64,
        );
        for a in &assertions {
            recorder.record(a.clone()).expect("journal");
        }
        let start = Instant::now();
        recorder.flush().expect("ship journal");
        ship_us.push(start.elapsed().as_secs_f64() * 1e6 / assertions.len() as f64);
    }
    vec![
        m("compress.gzip_us", layer_us(tracer, "compress.gzip")),
        m("compress.ppmz_us", layer_us(tracer, "compress.ppmz")),
        m("bioseq.shuffle_us", layer_us(tracer, "bioseq.shuffle")),
        m(
            "experiment.measure_us",
            layer_us(tracer, "experiment.measure"),
        ),
        m("core.sync_record_us", layer_us(tracer, "core.sync_record")),
        m("core.async_ship_us", crate::stats::median(&ship_us)),
    ]
}

/// Layers a record message crosses: pack, codecs, frame, socket, router, store, kvdb, feed.
pub fn record_layers(tracer: &Tracer, seed: u64, work: &Path) -> Vec<Metric> {
    let records = sample_records(seed);
    let envelopes: Vec<Envelope> = records.iter().map(record_envelope).collect();
    let per = RECORD_BATCH as f64;

    replay(tracer, "core.pack", &records, |r| {
        black_box(prepwire::record_to_element(r));
    });
    let elements: Vec<_> = records.iter().map(prepwire::record_to_element).collect();
    replay(tracer, "core.unpack", &elements, |e| {
        black_box(prepwire::record_from_element(e).expect("unpack"));
    });

    // Textual envelope of a 1-assertion record (the paper's synchronous mode).
    let singles: Vec<Envelope> = records
        .iter()
        .map(|r| {
            record_envelope(&RecordMessage {
                assertions: r.assertions[..1].to_vec(),
                ..r.clone()
            })
        })
        .collect();
    replay(tracer, "wire.xml_roundtrip", &singles, |e| {
        black_box(Envelope::from_wire(&e.to_wire()).expect("xml"));
    });
    replay(tracer, "wire.xml_roundtrip16", &envelopes, |e| {
        black_box(Envelope::from_wire(&e.to_wire()).expect("xml"));
    });
    replay(tracer, "wire.codec_roundtrip", &envelopes, |e| {
        let mut buf = Vec::new();
        encode_envelope(e, &mut buf);
        black_box(decode_envelope(&buf).expect("codec"));
    });
    let xml_bytes = mean_bytes(&envelopes, |e| e.to_wire().len());
    let bin_bytes = mean_bytes(&envelopes, |e| {
        let mut buf = Vec::new();
        encode_envelope(e, &mut buf);
        buf.len()
    });

    // In-process transport to a no-op handler.
    let host = ServiceHost::new();
    host.register(
        PROVENANCE_STORE_SERVICE,
        Arc::new(Echo {
            response: ack_envelope(&records[0]),
        }) as Arc<dyn MessageHandler>,
    );
    let free = host.transport(TransportConfig::free());
    replay(tracer, "wire.inproc_call", &envelopes, |e| {
        black_box(free.call(e.clone()).expect("in-process call"));
    });

    // Frame codec and a loopback round trip sized like the workload's record and ack.
    replay(tracer, "net.frame_roundtrip", &envelopes, |e| {
        let frame = pasoa_net::encode_frame(e);
        black_box(
            pasoa_net::decode_frame(&frame, pasoa_net::DEFAULT_MAX_FRAME_BYTES).expect("frame"),
        );
    });
    let server = NetServer::bind(("127.0.0.1", 0), &host, NetServerConfig::default())
        .expect("bind loopback");
    let client = NetClient::new(
        server.local_addr(),
        PROVENANCE_STORE_SERVICE,
        NetClientConfig::default(),
    );
    client.call(&envelopes[0]).expect("warm connection");
    replay(tracer, "net.echo_rtt", &envelopes, |e| {
        black_box(client.call(e).expect("echo"));
    });
    let client_stats = client.stats();
    let echo_bytes_in = server.stats().bytes_in as f64 / ((REPLAYS + 1) as f64 * per);
    drop(client);
    server.shutdown();

    // Router: a buffered (non-flushing) record call over the direct in-process hop; a full
    // 64-assertion shard buffer flushed with one copy and with two.
    // A batch size no replay reaches: buffers flush only when asked to.
    let router_cluster = |replication: usize| {
        let host = ServiceHost::new();
        let mut config = ClusterConfig::replicated(2, replication);
        config.batch_size = usize::MAX / 2;
        let cluster = PreservCluster::deploy_with(&host, config, |_| {
            Ok(Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
        })
        .expect("memory cluster");
        (host, cluster)
    };
    let (_h, buffered) = router_cluster(1);
    replay(tracer, "router.record_call", &envelopes, |e| {
        black_box(buffered.router().handle(e.clone()).expect("router record"));
    });
    let mut flush_stats = None;
    for (name, replication) in [("router.flush", 1), ("router.replicated_flush", 2)] {
        let (_h, cluster) = router_cluster(replication);
        // The four records of one session fill one shard buffer with 64 assertions; the fill is
        // a child span, so the layer's self time is the flush that ships the buffer.
        for (request, session) in envelopes.chunks(4).enumerate() {
            tracer.span(request as u64, None, name, |parent| {
                tracer.span(request as u64, Some(parent), "router.fill", |_| {
                    for e in session {
                        cluster.router().handle(e.clone()).expect("router record");
                    }
                });
                cluster.flush().expect("flush");
            });
        }
        if replication == 1 {
            flush_stats = Some(cluster.stats_snapshot().expect("router stats").merged());
        }
    }
    let flush_stats = flush_stats.expect("the unreplicated flush replay ran");
    let flush_batch = flush_stats.histogram("router.flush.batch_size");

    // Store: record_all per assertion with and without the index keyspaces; dispatch overhead
    // of the service's wire handler around it.
    let batches: Vec<Vec<RecordedAssertion>> =
        records.iter().map(|r| r.assertions.clone()).collect();
    let store_time = |options: StoreOptions, label: &str| {
        let store = ProvenanceStore::open_with_options(Arc::new(MemoryBackend::new()), options)
            .expect("store");
        replay(tracer, label, &batches, |b| {
            store.record_all(b).expect("record_all");
        });
        layer_us(tracer, label) / per
    };
    let record_all_us = store_time(StoreOptions::default(), "preserv.record_all");
    let no_index_us = store_time(
        StoreOptions {
            maintain_indexes: false,
        },
        "preserv.record_all_noindex",
    );
    let service = PreservService::in_memory().expect("memory store");
    replay(tracer, "preserv.handle", &envelopes, |e| {
        black_box(service.handle(e.clone()).expect("store handle"));
    });
    let dispatch_us = layer_us(tracer, "preserv.handle") - record_all_us * per;

    // kvdb: the keys one record batch stages, written as one batch with the default policy.
    let kv_dir = work.join("replay-kv");
    let _ = std::fs::remove_dir_all(&kv_dir);
    let keys_per_assertion;
    let staged: Vec<Vec<(Vec<u8>, Vec<u8>)>> = {
        let backend = Arc::new(KvBackend::open(kv_dir.join("stage")).expect("kv backend"));
        let store =
            ProvenanceStore::open(Arc::clone(&backend) as Arc<dyn StorageBackend>).expect("store");
        let mut staged = Vec::new();
        let mut seen: std::collections::BTreeSet<Vec<u8>> = backend
            .db()
            .scan_prefix(b"")
            .expect("scan")
            .into_iter()
            .collect();
        let before = seen.len();
        for batch in batches.iter().take(20) {
            store.record_all(batch).expect("record_all");
            let now = backend.db().scan_prefix_values(b"").expect("scan");
            let fresh: Vec<(Vec<u8>, Vec<u8>)> = now
                .into_iter()
                .filter(|(k, _)| seen.insert(k.clone()))
                .collect();
            staged.push(fresh);
        }
        keys_per_assertion = (seen.len() - before) as f64 / (20.0 * per);
        staged
    };
    let db = Db::open(kv_dir.join("replay")).expect("kvdb");
    let kv_registry = Registry::new();
    db.attach_observability(&kv_registry);
    replay(tracer, "kvdb.write_batch", &staged, |entries| {
        let mut batch = WriteBatch::new();
        for (k, v) in entries {
            batch.put(k, v).expect("batch put");
        }
        db.write_batch(batch).expect("write_batch");
    });
    drop(db);
    let kv_snapshot = kv_registry.snapshot();
    let append = kv_snapshot
        .histogram("kvdb.append_nanos")
        .expect("kvdb appends recorded");
    let kv_user_bytes = (staged.len() * RECORD_BATCH * gen::PAYLOAD_BYTES) as f64;
    let kv_bytes_per_user_byte =
        crate::record::dir_bytes(&kv_dir.join("replay")) as f64 / kv_user_bytes;
    let _ = std::fs::remove_dir_all(&kv_dir);

    // Feed staging: record_all on a feed-enabled shard, with and without a subscriber.
    let stage_us = |subscribe: bool, label: &str| {
        let host = ServiceHost::new();
        let cluster = PreservCluster::deploy_with(
            &host,
            ClusterConfig::with_shards(1).with_feed(FeedOptions::default()),
            |_| Ok(Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>),
        )
        .expect("feed cluster");
        if subscribe {
            cluster.feed_queues()[0]
                .subscribe("replay", FeedFilter::All)
                .expect("subscribe");
        }
        let store = cluster.shard_stores().remove(0);
        replay(tracer, label, &batches, |b| {
            store.record_all(b).expect("record_all");
        });
        layer_us(tracer, label) / per
    };
    let feed_stage =
        stage_us(true, "feed.stage_subscribed") - stage_us(false, "feed.stage_unsubscribed");

    // Feed delivery: the replayed records committed on a feed-enabled shard, then drained by a
    // subscriber polling and acking through the in-process transport.
    let feed_host = ServiceHost::new();
    let feed_cluster = PreservCluster::deploy_with(
        &feed_host,
        ClusterConfig::with_shards(1).with_feed(FeedOptions::default()),
        |_| Ok(Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>),
    )
    .expect("feed cluster");
    let mut subscriber = FeedSubscriberClient::new(
        feed_cluster.fabric().transport(TransportConfig::free()),
        feed_cluster.router().shard_names().remove(0),
        "replay-subscriber",
        FeedFilter::All,
    );
    subscriber.connect().expect("subscribe");
    for e in &envelopes {
        feed_cluster
            .router()
            .handle(e.clone())
            .expect("router record");
    }
    feed_cluster.flush().expect("flush");
    let (mut polls, mut empty_polls, mut delivered) = (0u64, 0u64, 0usize);
    loop {
        let events = tracer
            .span(polls, None, "feed.poll", |_| subscriber.poll_once(32))
            .0
            .expect("feed poll");
        polls += 1;
        if events.is_empty() {
            empty_polls += 1;
            break;
        }
        delivered += events.len();
    }
    assert_eq!(
        delivered,
        REPLAYS * RECORD_BATCH,
        "the replayed feed delivers every record"
    );
    let feed_stats = feed_cluster.stats_snapshot().expect("feed stats").merged();
    let feed_lag_p99_ms = feed_stats
        .histogram("feed.delivery.lag_nanos")
        .map_or(0, |h| h.quantile(0.99)) as f64
        / 1e6;

    vec![
        m("core.pack_us", layer_us(tracer, "core.pack")),
        m("core.unpack_us", layer_us(tracer, "core.unpack")),
        m(
            "wire.xml_roundtrip_us",
            layer_us(tracer, "wire.xml_roundtrip"),
        ),
        m(
            "wire.codec_roundtrip_us",
            layer_us(tracer, "wire.codec_roundtrip"),
        ),
        m("wire.inproc_call_us", layer_us(tracer, "wire.inproc_call")),
        m("wire.xml_bytes_per_assertion", xml_bytes / per),
        m("wire.bin_bytes_per_assertion", bin_bytes / per),
        m("net.echo_rtt_us", layer_us(tracer, "net.echo_rtt")),
        m(
            "net.frame_roundtrip_us",
            layer_us(tracer, "net.frame_roundtrip"),
        ),
        m(
            "router.record_call_us",
            layer_us(tracer, "router.record_call"),
        ),
        m("net.client.connects", client_stats.connects as f64),
        m("net.client.retries", client_stats.retries as f64),
        m(
            "net.client.pool_evictions",
            client_stats.pool_evictions as f64,
        ),
        m("net.server.bytes_in_per_assertion", echo_bytes_in),
        m("router.flush_us", layer_us(tracer, "router.flush")),
        m(
            "router.replicated_flush_us",
            layer_us(tracer, "router.replicated_flush"),
        ),
        m(
            "router.flush.batch_size_mean",
            flush_batch.map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64),
        ),
        m(
            "router.flush.batches_per_1k",
            flush_stats.counter("router.flush.batches") as f64 * 1000.0 / (REPLAYS as f64 * per),
        ),
        m(
            "router.flush.merge_skips",
            flush_stats.counter("router.flush.merge_skips") as f64,
        ),
        m("preserv.record_all_us", record_all_us),
        m("preserv.index_share", 1.0 - no_index_us / record_all_us),
        m("preserv.keys_per_assertion", keys_per_assertion),
        m("preserv.dispatch_us", dispatch_us),
        m("kvdb.write_batch_us", layer_us(tracer, "kvdb.write_batch")),
        m("kvdb.append_p50_us", append.quantile(0.5) as f64 / 1e3),
        m("kvdb.append_p99_us", append.quantile(0.99) as f64 / 1e3),
        m("kvdb.bytes_per_user_byte", kv_bytes_per_user_byte),
        m("feed.poll_us", layer_us(tracer, "feed.poll")),
        m("feed.empty_poll_share", empty_polls as f64 / polls as f64),
        m("feed.events_per_poll", delivered as f64 / polls as f64),
        m("feed.stage_us", feed_stage),
        m("feed.server_lag_p99_ms", feed_lag_p99_ms),
        m(
            "feed.redelivery",
            feed_stats.counter("feed.redelivery") as f64,
        ),
    ]
}

fn mean_bytes(envelopes: &[Envelope], size: impl Fn(&Envelope) -> usize) -> f64 {
    envelopes.iter().map(&size).sum::<usize>() as f64 / envelopes.len() as f64
}

/// Query layers on one shard of the preloaded corpus, and the router's gather on top of them.
pub fn query_layers(tracer: &Tracer, seed: u64) -> Vec<Metric> {
    let host = ServiceHost::new();
    let cluster = PreservCluster::deploy_with(&host, ClusterConfig::with_shards(2), |_| {
        Ok(Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
    })
    .expect("memory cluster");
    for s in 0..gen::CORPUS_SESSIONS {
        let batch = gen::corpus_session_assertions(seed, s);
        let envelope = record_envelope(&RecordMessage {
            message_id: IdGenerator::new(format!("replay-corpus-{s}")).message_id(),
            asserter: ActorId::new("bench-preload"),
            assertions: batch,
        });
        cluster.router().handle(envelope).expect("preload");
    }
    cluster.flush().expect("flush");
    let sessions: Vec<usize> = (0..REPLAYS)
        .map(|r| (r * 7) % gen::CORPUS_SESSIONS)
        .collect();
    let stores = cluster.shard_stores();
    let engine_for = |s: usize| {
        let sid = gen::corpus_session(seed, s);
        let shard = cluster.router().shard_for_session(sid.as_str());
        (sid, QueryEngine::new(Arc::clone(&stores[shard])))
    };
    replay(tracer, "query.by_session", &sessions, |&s| {
        let (sid, engine) = engine_for(s);
        black_box(
            engine
                .query(&QueryRequest::BySession(sid))
                .expect("by-session"),
        );
    });
    replay(tracer, "query.lineage", &sessions, |&s| {
        let (sid, engine) = engine_for(s);
        black_box(
            engine
                .lineage_closure(&sid, &gen::corpus_deepest(seed, s))
                .expect("closure"),
        );
    });
    replay(tracer, "query.page", &sessions, |&s| {
        let (sid, engine) = engine_for(s);
        black_box(
            engine
                .page(&PagedQuery {
                    request: QueryRequest::BySession(sid),
                    cursor: None,
                    page_size: 64,
                })
                .expect("page"),
        );
    });
    // Gather: the cluster's by-session answer minus the per-shard calls it is made of, each
    // request replayed both ways back to back.
    for (request, &s) in sessions.iter().enumerate() {
        let sid = gen::corpus_session(seed, s);
        tracer.span(request as u64, None, "router.by_session", |_| {
            black_box(cluster.assertions_for_session(&sid).expect("gather"));
        });
        tracer.span(request as u64, None, "shards.by_session", |_| {
            for store in &stores {
                black_box(
                    store
                        .assertions_for_session(&sid)
                        .expect("shard by-session"),
                );
            }
        });
    }
    vec![
        m("query.by_session_us", layer_us(tracer, "query.by_session")),
        m("query.lineage_us", layer_us(tracer, "query.lineage")),
        m("query.page_us", layer_us(tracer, "query.page")),
        m(
            "router.gather_us",
            layer_us(tracer, "router.by_session") - layer_us(tracer, "shards.by_session"),
        ),
    ]
}
