//! `diagnose`: the diagnosis service end to end, in three stages.
//!
//! 1. Stuck-at PST dictionary campaigns for every suite machine, each
//!    frozen into a `DictionaryArtifact`, written to disk and loaded back
//!    into a `Catalog` (stage a, `dict_s`).
//! 2. A `Coordinator` with two worker processes rebuilds scf's
//!    dictionary (stage b, `coord_s`); the merge must equal stage 1's.
//! 3. Two closed-loop `DiagnosisClient` connections — tester stations
//!    that wait for each answer — send a fixed, seeded request mix to a
//!    `DiagnosisServer` on loopback.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use stfsm::faults::{FaultModel, StuckAt};
use stfsm::fsm::Fsm;
use stfsm::json::JsonValue;
use stfsm::testsim::dictionary::FaultDictionary;
use stfsm::{
    BistStructure, Campaign, CampaignConfig, DictionaryArtifact, DictionaryObserver, SimEngine,
    SynthesisResult,
};
use stfsm_serve::worker::shard_bounds;
use stfsm_serve::{
    Catalog, Coordinator, DiagnosisClient, DiagnosisServer, DiagnosisService, Query, Request,
    Response, ServerConfig, ServiceHandle,
};

use crate::clock::Clock;
use crate::flow::{area_counters, suite_fsms, synthesize, synthesize_all, SplitMix};
use crate::report::{median, quantile, ratio, Ledger};
use crate::sim::{run_campaign, CampaignStats};
use crate::trace::{Breakdown, Tracer};
use crate::{Ctx, Values, Workload};

/// Pattern budget of the dictionary campaigns.
const PATTERNS: usize = 512;
/// The machine the coordinator shards.
const COORDINATED: &str = "scf";
/// Coordinator worker processes.
const WORKERS: usize = 2;
/// Concurrent client connections.
const CONNECTIONS: usize = 2;
/// Requests per pass, over all connections.
const REQUESTS: usize = 128;
/// Queries per batch request.
const BATCH: usize = 64;

pub struct Diagnose;

pub struct DiagnoseInputs {
    scf: Fsm,
    netlists: Vec<SynthesisResult>,
}

/// One pass of the three stages.
pub struct DiagnosePass {
    /// Stage a and stage b, in reference seconds.
    dict_s: f64,
    coord_s: f64,
    /// The in-process scf dictionary campaign of stage a.
    scf_campaign_s: f64,
    /// Replayed worker time per shard (traced passes only).
    shard_s: Vec<f64>,
    /// Stage c in wall time: a round trip is mostly TCP's delayed
    /// acknowledgement, which does not slow down with the host.
    query_wall_s: f64,
    latencies_us: Vec<f64>,
    stats: CampaignStats,
    replay_stats: CampaignStats,
    artifact_bytes: u64,
    serve: ServeStats,
}

/// Query-phase tallies; the per-request times come from the traced
/// in-process replay of each request.
#[derive(Debug, Default)]
struct ServeStats {
    requests: u64,
    errors: u64,
    queries: u64,
    candidates: u64,
    request_bytes: u64,
    response_bytes: u64,
    replayed: u64,
    lookup_ns: f64,
    request_codec_ns: f64,
    response_codec_ns: f64,
    transport_ns: f64,
}

impl Workload for Diagnose {
    type Inputs = DiagnoseInputs;
    type Pass = DiagnosePass;

    /// The first pass, with the requests, takes 13 to 16 s and a later
    /// one 7 s, so a 15 s run fits one or two passes.  A coordinator run
    /// alone varies by 2×, and the median of three resists one slow pass.
    const MIN_PASSES: usize = 3;

    fn setup(&self, _ctx: &Ctx, tr: &mut Tracer, ledger: &mut Ledger) -> DiagnoseInputs {
        let fsms = suite_fsms(tr, |_| true);
        let netlists = synthesize_all(&fsms, &[BistStructure::Pst], tr, ledger);
        let scf = fsms
            .into_iter()
            .find(|fsm| fsm.name() == COORDINATED)
            .expect("scf is a suite machine");
        DiagnoseInputs { scf, netlists }
    }

    fn pass(
        &self,
        ctx: &Ctx,
        inputs: &DiagnoseInputs,
        index: usize,
        clock: &mut Clock,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) -> DiagnosePass {
        let mut pass = DiagnosePass {
            dict_s: 0.0,
            coord_s: 0.0,
            scf_campaign_s: 0.0,
            shard_s: Vec::new(),
            query_wall_s: 0.0,
            latencies_us: Vec::new(),
            stats: CampaignStats::default(),
            replay_stats: CampaignStats::default(),
            artifact_bytes: 0,
            serve: ServeStats::default(),
        };

        // ---- stage a: dictionaries → artifacts → loaded catalog ---------
        let config = CampaignConfig {
            max_patterns: PATTERNS,
            seed: ctx.campaign_seed,
            engine: SimEngine::Auto,
            ..CampaignConfig::default()
        };
        let mark = clock.start();
        let mut written: Vec<(PathBuf, DictionaryArtifact)> = Vec::new();
        let mut scf_reference: Option<(Arc<FaultDictionary>, Vec<Option<usize>>)> = None;
        for synthesized in &inputs.netlists {
            let netlist = &synthesized.netlist;
            let name = netlist.name();
            let t = Instant::now();
            let faults = tr.span("faults.enumerate", |_| StuckAt.fault_list(netlist, true));
            let mut observer = DictionaryObserver::new();
            let campaign = Campaign::new(netlist)
                .config(config.clone())
                .faults(StuckAt.name(), faults)
                .observe(&mut observer);
            let outcome = tr.span("testsim.dictionary", |tr| run_campaign(tr, campaign));
            if name == COORDINATED {
                pass.scf_campaign_s = t.elapsed().as_secs_f64();
            }
            let what = format!("{name} dictionary campaign");
            let Some(outcome) = ledger.attempt(&what, outcome) else {
                continue;
            };
            ledger.check(outcome.incidents.is_empty(), || {
                format!("{what}: incidents {:?}", outcome.incidents)
            });
            pass.stats.absorb(&outcome);
            if name == COORDINATED {
                let section = &outcome.sections[0];
                scf_reference = section
                    .dictionary
                    .clone()
                    .map(|d| (d, section.detection_pattern.clone()));
            }
            let artifact = tr.span("testsim.artifact_build", |_| {
                DictionaryArtifact::from_outcome(netlist, &config, &outcome)
            });
            let Some(artifact) = ledger.attempt(&format!("{name} artifact"), artifact) else {
                continue;
            };
            if tr.enabled() {
                tr.span("testsim.artifact_encode", |_| artifact.encode());
            }
            let path = ctx.work_dir.join(format!("{name}.dict"));
            let bytes = tr.span("testsim.artifact_write", |_| artifact.write_to(&path));
            if let Some(bytes) = ledger.attempt(&format!("{name} artifact write"), bytes) {
                pass.artifact_bytes += bytes;
                written.push((path, artifact));
            }
        }
        // `Catalog::load` is these two calls; they are made one by one so
        // that each gets its own span.
        let mut catalog = Catalog::new();
        let mut loaded = Vec::new();
        for (path, _) in &written {
            let artifact = tr.span("testsim.artifact_load", |_| DictionaryArtifact::load(path));
            let artifact = ledger.attempt(&format!("loading {}", path.display()), artifact);
            if let Some(artifact) = &artifact {
                tr.span("serve.catalog_insert", |_| catalog.insert(artifact));
            }
            loaded.push(artifact);
        }
        pass.dict_s = clock.stop(mark);
        tr.span("bench.check", |_| {
            for ((path, artifact), loaded) in written.iter().zip(&loaded) {
                ledger.check(loaded.as_ref() == Some(artifact), || {
                    format!("{}: artifact does not round-trip", path.display())
                });
            }
        });

        // ---- stage b: the coordinator rebuilds scf ----------------------
        let coordinator = Coordinator::new(COORDINATED)
            .structure(BistStructure::Pst)
            .engine(SimEngine::Auto)
            .patterns(PATTERNS)
            .seed(ctx.campaign_seed)
            .workers(WORKERS)
            .dictionary(true)
            .artifact_dir(ctx.work_dir.join("coordinator"))
            .worker_binary(std::env::current_exe().expect("the running executable has a path"));
        let mark = clock.start();
        let merged = tr.span("serve.coordinator", |_| coordinator.run());
        pass.coord_s = clock.stop(mark);
        if let Some(merged) = ledger.attempt("coordinator run", merged) {
            tr.span("bench.check", |_| {
                let same = scf_reference
                    .as_ref()
                    .is_some_and(|(dictionary, detection)| {
                        merged.sections.len() == 1
                            && merged.sections[0].detection_pattern == *detection
                            && merged.sections[0].dictionary.as_ref() == Some(dictionary.as_ref())
                    });
                ledger.check(same, || {
                    "the coordinator's merged scf dictionary differs from the in-process one"
                        .to_string()
                });
            });
        }
        if tr.enabled() {
            replay_workers(ctx, &inputs.scf, tr, ledger, &mut pass);
        }

        // ---- stage c: closed-loop diagnosis requests over TCP -----------
        // The request latencies are steady, so later passes repeat only
        // stages a and b.
        if index > 0 {
            return pass;
        }
        let service = DiagnosisService::new(catalog);
        let handle = service.handle();
        let requests = tr.span("bench.inputs", |_| {
            plan_requests(&written, &handle, ctx.query_seed)
        });
        let server = tr.span("serve.server_start", |_| {
            DiagnosisServer::start("127.0.0.1:0", service.handle(), ServerConfig::default())
        });
        let Some(server) = ledger.attempt("server start", server) else {
            return pass;
        };
        let addr = server.local_addr();
        let started = Instant::now();
        let lanes = tr.span("serve.queries", |tr| {
            let forks: Vec<Tracer> = (0..CONNECTIONS).map(|_| tr.fork(CONNECTIONS)).collect();
            let done: Vec<(Tracer, Lane)> = std::thread::scope(|scope| {
                let threads: Vec<_> = forks
                    .into_iter()
                    .enumerate()
                    .map(|(connection, mut lane)| {
                        let mine: Vec<(usize, &Request)> = requests
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % CONNECTIONS == connection)
                            .collect();
                        let handle = service.handle();
                        scope.spawn(move || {
                            let result = lane.span("serve.connection", |lane| {
                                client_loop(addr, &mine, &handle, lane)
                            });
                            (lane, result)
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("client threads do not panic"))
                    .collect()
            });
            done.into_iter()
                .map(|(lane, result)| {
                    tr.adopt(lane);
                    result
                })
                .collect::<Vec<Lane>>()
        });
        pass.query_wall_s = started.elapsed().as_secs_f64();
        tr.span("serve.server_shutdown", |_| server.shutdown());
        tr.span("bench.check", |_| {
            check_answers(&requests, &lanes, &handle, ledger, &mut pass)
        });
        pass
    }

    fn exact_counters(
        &self,
        inputs: &DiagnoseInputs,
        pass: &DiagnosePass,
    ) -> Vec<(&'static str, u64)> {
        let mut counters = area_counters(&inputs.netlists);
        counters.push(("faults.count", pass.stats.faults));
        counters.extend(pass.stats.exact_counters());
        counters.push(("testsim.artifact_bytes", pass.artifact_bytes));
        // Last, so a pass without stage c compares only what it ran.
        if pass.latencies_us.is_empty() {
            return counters;
        }
        counters.extend([
            ("serve.request_bytes", pass.serve.request_bytes),
            ("serve.response_bytes", pass.serve.response_bytes),
            ("serve.queries", pass.serve.queries),
            ("serve.candidates", pass.serve.candidates),
        ]);
        counters
    }

    fn same_outputs(
        &self,
        untraced: (&DiagnoseInputs, &DiagnosePass),
        traced: (&DiagnoseInputs, &DiagnosePass),
        ledger: &mut Ledger,
    ) {
        ledger.check(untraced.0.netlists == traced.0.netlists, || {
            "the stage-by-stage replay differs from SynthesisFlow::synthesize".to_string()
        });
    }

    fn end_to_end(&self, inputs: &DiagnoseInputs, passes: &[DiagnosePass], values: &mut Values) {
        let dict: Vec<f64> = passes.iter().map(|p| p.dict_s).collect();
        let coord: Vec<f64> = passes.iter().map(|p| p.coord_s).collect();
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.latencies_us.iter().copied())
            .collect();
        let wall: f64 = passes.iter().map(|p| p.query_wall_s).sum();
        values.insert("stage_a_s", median(&dict));
        values.insert("stage_b_s", median(&coord));
        values.insert("rate_per_s", latencies.len() as f64 / wall);
        values.insert("p50_us", quantile(&latencies, 0.5));
        values.insert("p90_us", quantile(&latencies, 0.9));
        for (name, value) in area_counters(&inputs.netlists).into_iter() {
            values.insert(name, value as f64);
        }
    }

    fn per_layer(
        &self,
        inputs: &DiagnoseInputs,
        pass: &DiagnosePass,
        breakdown: &Breakdown,
        values: &mut Values,
    ) {
        for (name, value) in area_counters(&inputs.netlists).into_iter() {
            values.insert(name, value as f64);
        }
        let mut stats = pass.stats.clone();
        stats.merge(&pass.replay_stats);
        values.insert("faults.count", stats.faults as f64);
        stats.per_layer(breakdown.inclusive_ms("testsim.campaign"), values);
        values.insert("testsim.artifact_bytes", pass.artifact_bytes as f64);

        let coordinator_ms = breakdown.inclusive_ms("serve.coordinator");
        let slowest_ms = pass.shard_s.iter().copied().fold(0.0, f64::max) * 1e3;
        let mean_ms = ratio(
            pass.shard_s.iter().sum::<f64>() * 1e3,
            pass.shard_s.len() as f64,
        );
        values.insert("serve.shard_imbalance", ratio(slowest_ms, mean_ms));
        values.insert("serve.coordinator_overhead_ms", coordinator_ms - slowest_ms);
        values.insert(
            "serve.coordinator_speedup",
            ratio(pass.scf_campaign_s * 1e3, coordinator_ms),
        );

        let s = &pass.serve;
        let per_request = |ns: f64| ratio(ns / 1e3, s.replayed as f64);
        values.insert("serve.lookup_us", per_request(s.lookup_ns));
        values.insert("serve.request_codec_us", per_request(s.request_codec_ns));
        values.insert("serve.response_codec_us", per_request(s.response_codec_ns));
        values.insert("serve.transport_us", per_request(s.transport_ns));
        values.insert("serve.request_bytes", s.request_bytes as f64);
        values.insert("serve.response_bytes", s.response_bytes as f64);
        values.insert(
            "serve.candidates_per_query",
            ratio(s.candidates as f64, s.queries as f64),
        );
        values.insert("serve.errors", s.errors as f64);
        values.insert("serve.requests", s.requests as f64);
        values.insert("bench.samples", pass.latencies_us.len() as f64);
    }
}

/// Replays each coordinator worker's work in-process — synthesis, fault
/// enumeration and the campaign over its `shard_bounds` slice — so the
/// coordinator's wall time can be set against the work it ran.
fn replay_workers(
    ctx: &Ctx,
    scf: &Fsm,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    pass: &mut DiagnosePass,
) {
    for shard in 0..WORKERS {
        let t = Instant::now();
        tr.span("serve.shard", |tr| {
            let synthesized = tr.span("serve.worker_synth", |tr| {
                synthesize(scf, BistStructure::Pst, tr)
            });
            let Some(synthesized) = ledger.attempt("worker synthesis replay", synthesized) else {
                return;
            };
            let netlist = &synthesized.netlist;
            let faults = tr.span("faults.enumerate", |_| StuckAt.fault_list(netlist, true));
            let (lo, hi) = shard_bounds(faults.len(), WORKERS, shard);
            let mut observer = DictionaryObserver::new();
            let campaign = Campaign::new(netlist)
                .engine(SimEngine::Auto)
                .patterns(PATTERNS)
                .seed(ctx.campaign_seed)
                .faults(StuckAt.name(), faults[lo..hi].to_vec())
                .observe(&mut observer);
            let outcome = tr.span("serve.shard_campaign", |tr| run_campaign(tr, campaign));
            if let Some(outcome) = ledger.attempt("shard campaign replay", outcome) {
                pass.replay_stats.absorb(&outcome);
            }
        });
        pass.shard_s.push(t.elapsed().as_secs_f64());
    }
}

/// The seeded request mix: 7 in 8 requests are one query, 1 in 8 a batch
/// of [`BATCH`]; a query names a detected dictionary entry drawn
/// uniformly over the catalog (never a passing signature), carries the
/// entry's intermediate signatures 1 time in 4, and 1 time in 10 asks
/// for a failing signature no dictionary holds.
fn plan_requests(
    artifacts: &[(PathBuf, DictionaryArtifact)],
    handle: &ServiceHandle,
    seed: u64,
) -> Vec<Request> {
    let mut entries: Vec<(&str, usize, u64, &[u64])> = Vec::new();
    for (_, artifact) in artifacts {
        for (_, dictionary) in &artifact.sections {
            for entry in &dictionary.entries {
                if entry.first_detect.is_some() && entry.signature != dictionary.reference_signature
                {
                    entries.push((
                        &artifact.machine,
                        dictionary.signature_bits,
                        entry.signature,
                        &entry.segments,
                    ));
                }
            }
        }
    }
    if entries.is_empty() {
        return Vec::new();
    }
    let mut rng = SplitMix::new(seed);
    let query = |rng: &mut SplitMix| {
        let (machine, bits, signature, segments) = entries[rng.below(entries.len())];
        if rng.one_in(10) {
            let mask = (1u64 << bits.min(63)) - 1;
            for _ in 0..64 {
                let probe = Query::new(machine, rng.next_u64() & mask);
                let answer = handle.query(&probe);
                if answer.total_matches == 0 && !answer.reference {
                    return probe;
                }
            }
        }
        let mut query = Query::new(machine, signature);
        if rng.one_in(4) {
            query.segments = Some(segments.to_vec());
        }
        query
    };
    (0..REQUESTS)
        .map(|_| {
            if rng.one_in(8) {
                Request::Batch((0..BATCH).map(|_| query(&mut rng)).collect())
            } else {
                Request::Query(query(&mut rng))
            }
        })
        .collect()
}

/// What one client connection saw: per request, its id, round-trip time
/// and answer (or error), plus the traced replay's breakdown.
#[derive(Debug, Default)]
struct Lane {
    connect_error: Option<String>,
    answers: Vec<(usize, f64, Result<Response, String>)>,
    replay: ServeStats,
}

/// One closed-loop tester station: sends its requests one after another,
/// each as soon as the previous answer is decoded.
fn client_loop(
    addr: SocketAddr,
    requests: &[(usize, &Request)],
    handle: &ServiceHandle,
    lane: &mut Tracer,
) -> Lane {
    let mut out = Lane::default();
    let mut client = match DiagnosisClient::connect(addr) {
        Ok(client) => client,
        Err(error) => {
            out.connect_error = Some(error.to_string());
            return out;
        }
    };
    for &(id, request) in requests {
        let t = Instant::now();
        let answer = lane.request_span("serve.round_trip", id as u64, |_| match request {
            Request::Query(query) => client.query(query).map(Response::Result),
            Request::Batch(queries) => client.query_batch(queries).map(Response::Batch),
            Request::Ping | Request::Machines => unreachable!("the mix holds only queries"),
        });
        let round_trip_ns = t.elapsed().as_nanos() as f64;
        if lane.enabled() {
            replay_request(
                id as u64,
                request,
                handle,
                lane,
                round_trip_ns,
                &mut out.replay,
            );
        }
        out.answers
            .push((id, round_trip_ns, answer.map_err(|e| e.to_string())));
    }
    out
}

/// Times, in-process and on the same request, every step of the round
/// trip but the transport: request encode/parse/decode, the lookup, and
/// response encode/parse/decode.  The rest of the round trip is transport.
fn replay_request(
    id: u64,
    request: &Request,
    handle: &ServiceHandle,
    lane: &mut Tracer,
    round_trip_ns: f64,
    stats: &mut ServeStats,
) {
    fn timed<T>(lane: &mut Tracer, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let value = lane.request_span(name, id, |_| f());
        (value, t.elapsed().as_nanos() as f64)
    }
    let (encoded, encode_ns) = timed(lane, "serve.request_encode", id, || request.encode());
    let (parsed, parse_ns) = timed(lane, "serve.request_parse", id, || {
        JsonValue::parse(&encoded)
    });
    let Ok(parsed) = parsed else {
        stats.errors += 1;
        return;
    };
    let (decoded, decode_ns) = timed(lane, "serve.request_decode", id, || {
        Request::decode(&parsed)
    });
    let (response, lookup_ns) = timed(lane, "serve.lookup", id, || match decoded {
        Ok(Request::Query(query)) => Some(Response::Result(handle.query(&query))),
        Ok(Request::Batch(queries)) => Some(Response::Batch(handle.query_batch(&queries))),
        _ => None,
    });
    let Some(response) = response else {
        stats.errors += 1;
        return;
    };
    let (encoded, rencode_ns) = timed(lane, "serve.response_encode", id, || response.encode());
    let (parsed, rparse_ns) = timed(lane, "serve.response_parse", id, || {
        JsonValue::parse(&encoded)
    });
    let rdecode_ns = match parsed {
        Ok(parsed) => {
            timed(lane, "serve.response_decode", id, || {
                Response::decode(&parsed)
            })
            .1
        }
        Err(_) => {
            stats.errors += 1;
            return;
        }
    };
    let request_codec = encode_ns + parse_ns + decode_ns;
    let response_codec = rencode_ns + rparse_ns + rdecode_ns;
    stats.replayed += 1;
    stats.lookup_ns += lookup_ns;
    stats.request_codec_ns += request_codec;
    stats.response_codec_ns += response_codec;
    stats.transport_ns += round_trip_ns - request_codec - lookup_ns - response_codec;
}

/// Checks every TCP answer against `ServiceHandle` and tallies the
/// request, byte and candidate counts.
fn check_answers(
    requests: &[Request],
    lanes: &[Lane],
    handle: &ServiceHandle,
    ledger: &mut Ledger,
    pass: &mut DiagnosePass,
) {
    let serve = &mut pass.serve;
    for lane in lanes {
        if let Some(error) = &lane.connect_error {
            ledger.check(false, || format!("client connect: {error}"));
        }
        serve.errors += lane.replay.errors;
        serve.replayed += lane.replay.replayed;
        serve.lookup_ns += lane.replay.lookup_ns;
        serve.request_codec_ns += lane.replay.request_codec_ns;
        serve.response_codec_ns += lane.replay.response_codec_ns;
        serve.transport_ns += lane.replay.transport_ns;
    }
    let mut answers: Vec<&(usize, f64, Result<Response, String>)> =
        lanes.iter().flat_map(|lane| &lane.answers).collect();
    answers.sort_by_key(|answer| answer.0);
    ledger.check(answers.len() == requests.len(), || {
        format!("{} of {} requests answered", answers.len(), requests.len())
    });
    for (id, round_trip_ns, answer) in answers {
        let request = &requests[*id];
        let expected = match request {
            Request::Query(query) => Response::Result(handle.query(query)),
            Request::Batch(queries) => Response::Batch(handle.query_batch(queries)),
            Request::Ping | Request::Machines => unreachable!("the mix holds only queries"),
        };
        serve.requests += 1;
        serve.request_bytes += request.encode().len() as u64;
        serve.response_bytes += expected.encode().len() as u64;
        let results = match &expected {
            Response::Result(result) => std::slice::from_ref(result),
            Response::Batch(results) => results.as_slice(),
            _ => &[],
        };
        serve.queries += results.len() as u64;
        serve.candidates += results
            .iter()
            .map(|r| r.candidates.len() as u64)
            .sum::<u64>();
        match answer {
            Ok(response) => {
                if ledger.check(*response == expected, || {
                    format!("request {id}: TCP answer differs from ServiceHandle")
                }) {
                    pass.latencies_us.push(round_trip_ns / 1e3);
                }
            }
            Err(error) => {
                serve.errors += 1;
                ledger.check(false, || format!("request {id}: {error}"));
            }
        }
    }
}
