//! The `fig4` workload: the paper's experiment (collate → encode by groups → permutation sweep
//! measuring gzip and ppmz) run with no, asynchronous and synchronous recording against one
//! in-memory PReServ on the in-process textual transport, latency virtual.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pasoa_core::ids::SessionId;
use pasoa_core::prep::{PagedQuery, PrepMessage, QueryRequest, ShardQueryPage};
use pasoa_experiment::{ExperimentConfig, ExperimentRunner, RunRecording, StoreDeployment};
use pasoa_preserv::PreservService;
use pasoa_wire::{Envelope, MessageHandler, NetworkProfile, Transport, WireResult};

use crate::gen;
use crate::trace::Tracer;

/// Permutations per sweep, and per scheduled script (the paper's grain).
pub const PERMUTATIONS: usize = 100;
/// Page reads after the sweeps, and their page size.
const READS: usize = 128;
const PAGE_SIZE: usize = 64;

pub const MODES: [RunRecording; 3] = [
    RunRecording::None,
    RunRecording::Asynchronous,
    RunRecording::Synchronous,
];

pub fn mode_name(mode: RunRecording) -> &'static str {
    match mode {
        RunRecording::None => "none",
        RunRecording::Asynchronous => "async",
        _ => "sync",
    }
}

/// Items on the first `query-page` page of `session`, fetched over `transport`.
fn first_page(transport: &Transport, session: &SessionId) -> Result<usize, String> {
    let message = PrepMessage::QueryPage(PagedQuery {
        request: QueryRequest::BySession(session.clone()),
        cursor: None,
        page_size: PAGE_SIZE,
    });
    let page: ShardQueryPage = crate::record::wire_call(transport, message.action(), &message)?;
    Ok(page.items.len())
}

/// The reduced 8 KiB sample of `ExperimentConfig::small`, at the paper's grain of 100
/// permutations per script. The workload seed sets the experiment's permutation seed; the
/// synthetic sample itself stays the configuration's, so every seed measures the same amount
/// of compression work.
pub fn config(seed: u64, permutations: usize, mode: RunRecording) -> ExperimentConfig {
    let mut config = ExperimentConfig::small(permutations, mode);
    config.permutations_per_script = PERMUTATIONS;
    config.seed = gen::substream(seed, 0x6669_6734);
    config
}

/// Times every `record` the store serves, from in front of the store's handler (the
/// in-process transport's textual codec runs outside it).
struct TimedStore {
    inner: Arc<PreservService>,
    record_us: Mutex<Vec<f64>>,
}

impl MessageHandler for TimedStore {
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        if request.action() != Some("record") {
            return self.inner.handle(request);
        }
        let start = Instant::now();
        let response = self.inner.handle(request);
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.record_us.lock().expect("timing log poisoned").push(us);
        response
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct Setup {
    runner: ExperimentRunner,
    timed: Arc<TimedStore>,
    /// Assertions the warm-up sweep recorded.
    warmup_assertions: u64,
}

/// Deploy the store, put the timing handler in front of it, and run one short warm-up sweep
/// so the sweep pool and lazy allocations exist before the timed phase.
fn setup(seed: u64) -> Setup {
    let deployment = StoreDeployment::in_memory(NetworkProfile::Paper2005.latency_model(), false);
    let service = Arc::clone(deployment.single_service().expect("single store"));
    let timed = Arc::new(TimedStore {
        inner: service,
        record_us: Mutex::new(Vec::new()),
    });
    deployment.host.register(
        pasoa_core::PROVENANCE_STORE_SERVICE,
        Arc::clone(&timed) as Arc<dyn MessageHandler>,
    );
    let runner = ExperimentRunner::new(deployment);
    let warmup = runner.run(&config(seed, 10, RunRecording::Synchronous));
    timed.record_us.lock().expect("timing log poisoned").clear();
    Setup {
        runner,
        timed,
        warmup_assertions: warmup.passertions,
    }
}

#[derive(Default)]
pub struct Fig4Out {
    /// Seconds per timed set-up (one per round).
    pub setup_s: Vec<f64>,
    /// Wall seconds per sweep, per mode (index as in [`MODES`]).
    pub sweep_s: [Vec<f64>; 3],
    pub assertions: [u64; 3],
    /// Store-side time of every record call (all recording sweeps).
    pub record_us: Vec<f64>,
    /// Every record call of the synchronous sweeps.
    pub sync_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub attempted: u64,
    pub misses: Vec<String>,
}

/// Page reads per round; rounds stop reading once [`READS`] are done.
const READS_PER_ROUND: usize = 8;

/// Run rounds until `seconds` have passed (whole rounds only). Each round sets up a fresh
/// store, sweeps the three modes, checks the results agree with every other sweep, checks the
/// store, and reads the recorded sessions back. Set-ups and reads are spread over the run, so
/// a slow stretch of the machine weighs on them no more than on the sweeps.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Fig4Out {
    let mut out = Fig4Out::default();
    let mut reference = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while Instant::now() < deadline || round == 0 {
        let start = Instant::now();
        let setup = setup(seed);
        out.setup_s.push(start.elapsed().as_secs_f64());
        let mut recorded = Vec::new();
        for (m, &mode) in MODES.iter().enumerate() {
            let cfg = config(seed, PERMUTATIONS, mode);
            let start = Instant::now();
            let report = match tracer {
                Some(t) => {
                    t.span(round << 2 | m as u64, None, mode_name(mode), |_| {
                        setup.runner.run(&cfg)
                    })
                    .0
                }
                None => setup.runner.run(&cfg),
            };
            let wall = start.elapsed().as_secs_f64();
            out.sweep_s[m].push(wall);
            out.attempted += 1;
            out.assertions[m] += report.passertions;
            let mut calls =
                std::mem::take(&mut *setup.timed.record_us.lock().expect("timing log poisoned"));
            if mode == RunRecording::Synchronous {
                out.sync_us.extend(calls.iter().copied());
            }
            out.record_us.append(&mut calls);
            // Compressibility must not depend on how (or whether) the run was documented.
            match &reference {
                None => reference = Some(report.results.clone()),
                Some(r) if *r != report.results => out.misses.push(format!(
                    "fig4 {}: results differ from the first sweep",
                    mode_name(mode)
                )),
                Some(_) => {}
            }
            if mode != RunRecording::None {
                recorded.push((mode, report.session.clone(), report.passertions));
            }
        }
        check_store(&setup, &recorded, &mut out.misses);
        let reads = READS_PER_ROUND.min(READS - out.read_us.len());
        read_back(&setup, &recorded, reads, &mut out);
        round += 1;
    }
    // Runs too short to spread the reads over still make every one of them.
    if out.read_us.len() < READS {
        let last = setup(seed);
        let recorded: Vec<_> = MODES[1..]
            .iter()
            .map(|&mode| {
                let report = last.runner.run(&config(seed, 10, mode));
                (mode, report.session, report.passertions)
            })
            .collect();
        read_back(&last, &recorded, READS - out.read_us.len(), &mut out);
    }
    out
}

/// Every recorded session holds as many assertions as its recorder counted, and the store
/// holds every recorded assertion and nothing else.
fn check_store(
    setup: &Setup,
    recorded: &[(RunRecording, SessionId, u64)],
    misses: &mut Vec<String>,
) {
    let store = setup.runner.deployment().store_handle();
    for (mode, session, passertions) in recorded {
        match store.assertions_for_session(session) {
            Ok(found) if found.len() as u64 == *passertions => {}
            Ok(found) => misses.push(format!(
                "fig4 {}: store holds {} assertions for the session, the recorder counted {passertions}",
                mode_name(*mode),
                found.len()
            )),
            Err(e) => misses.push(format!("fig4 {} read-back: {e}", mode_name(*mode))),
        }
    }
    let recorded_total: u64 = recorded.iter().map(|(_, _, n)| n).sum();
    match store.statistics() {
        Ok(stats) => misses.extend(crate::verify::committed_count(
            "fig4 statistics",
            stats.total_passertions(),
            setup.warmup_assertions + recorded_total,
        )),
        Err(e) => misses.push(format!("fig4 statistics: {e}")),
    }
}

/// Use the provenance as a reasoner would: fetch the first page of recorded sessions over the
/// transport, `reads` times.
fn read_back(
    setup: &Setup,
    recorded: &[(RunRecording, SessionId, u64)],
    reads: usize,
    out: &mut Fig4Out,
) {
    let transport = setup.runner.deployment().transport();
    for i in 0..reads {
        let (mode, session, passertions) = &recorded[i % recorded.len()];
        let start = Instant::now();
        let page = first_page(&transport, session);
        out.read_us.push(start.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        let want = (*passertions).min(PAGE_SIZE as u64);
        match page {
            Ok(n) if n as u64 == want => {}
            Ok(n) => out.misses.push(format!(
                "fig4 {}: first page holds {n} assertions, expected {want}",
                mode_name(*mode)
            )),
            Err(e) => out
                .misses
                .push(format!("fig4 {} page read: {e}", mode_name(*mode))),
        }
    }
}
