//! `experiments bench-serve` — the load generator for the vfps-serve
//! daemon.
//!
//! Drives N concurrent clients through a mixed **two-tenant** workload —
//! warm repeats of a hot request, cold requests with unique seeds, and
//! one-party churn, interleaved across the server's default dataset and a
//! second tenant ([`SECOND_DATASET`]) — then a deliberate over-capacity
//! burst, then a graceful shutdown. It verifies the service invariants
//! end to end:
//!
//! * **zero lost or duplicated responses** — every request id is answered
//!   exactly once;
//! * **warm serving, per tenant** — repeat requests report
//!   `cache_hits > 0` and `enc_instances == 0` under *each* dataset tag;
//! * **tenant isolation** — both tenants' primes run cold (no cross-tenant
//!   cache aliasing) and their warm paths stay disjoint;
//! * **typed backpressure** — the burst trips at least one `Busy`, never
//!   an unbounded queue;
//! * **clean drain** — the final report shows `in_flight == 0` and
//!   `accepted == completed + failed`.
//!
//! Results (throughput, client-observed p50/p95/p99 latency per mode, and
//! a per-tenant breakdown from the server's own `ListDatasets` accounting)
//! are merged into `BENCH_selection.json` as a `serve_breakdown` section
//! without disturbing the rest of the artifact.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vfps_serve::{Client, DrainReport, Response, SelectRequest, ServeConfig, Server};

use crate::markdown_table;
use vfps_obs::json::{parse, Value};

/// The server parameters the workload assumes. An external daemon driven
/// via `--addr` must be started with exactly these (`vfps serve
/// --synthetic Bank --instances 240 --parties 4 --seed 42`), or requests
/// will be cold where the bench expects warm.
pub const SERVER_DATASET: &str = "Bank";
/// Instance count matching [`SERVER_DATASET`].
pub const SERVER_INSTANCES: usize = 240;
/// Partition size the workload's party sets are drawn from.
pub const SERVER_PARTIES: usize = 4;
/// Dataset/partition seed; the hot request reuses it so a direct
/// `vfps --synthetic Bank --seed 42` run is bit-identical.
pub const SERVER_SEED: u64 = 42;
/// The second tenant the mixed workload drives (by dataset tag). An
/// external daemon must allow at least two resident tenants
/// (`--max-tenants 2` or more).
pub const SECOND_DATASET: &str = "Rice";

/// Load-generator configuration.
pub struct ServeBenchConfig {
    /// Fewer requests per client, smaller burst.
    pub quick: bool,
    /// Concurrent load clients (the acceptance floor is 8).
    pub clients: usize,
    /// Drive an already-running daemon (or, with `router`, an
    /// already-running routing tier) instead of an in-process one.
    pub addr: Option<String>,
    /// Drive the workload through a `vfps-router` tier over two daemons
    /// ([`bench_serve_router`]): adds a mid-load backend drain and
    /// bit-identity checks against an unrouted reference daemon.
    pub router: bool,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig { quick: false, clients: 8, addr: None, router: false }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Mode {
    Cold,
    Warm,
    Churn,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Cold => "cold",
            Mode::Warm => "warm",
            Mode::Churn => "churn",
        }
    }
}

struct Outcome {
    id: u64,
    mode: Mode,
    /// The dataset tag the request carried (`""` = the default tenant).
    dataset: &'static str,
    latency_us: u64,
    reply_status: String,
    enc_instances: u64,
    cache_hits: u64,
    busy_retries: u64,
}

fn hot_request(id: u64, dataset: &str) -> SelectRequest {
    SelectRequest {
        request_id: id,
        dataset: dataset.to_owned(),
        party_set: (0..SERVER_PARTIES).collect(),
        select: 2,
        k: 10,
        query_count: 8,
        mode: 1,
        seed: SERVER_SEED,
        deadline_ms: 0,
        maximizer: 0,
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// Runs the full workload and returns the human-readable report. Panics
/// on any violated invariant — the CI `serve` job runs this under a hard
/// timeout and treats a panic as failure.
#[must_use]
pub fn bench_serve(cfg: &ServeBenchConfig) -> String {
    let per_client: usize = if cfg.quick { 3 } else { 6 };
    let clients = cfg.clients.max(1);

    // 1. Server: in-process unless an external daemon was given.
    let (addr, server_handle) = match &cfg.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let server = Server::bind(&ServeConfig {
                addr: "127.0.0.1:0".into(),
                dataset: SERVER_DATASET.into(),
                instances: SERVER_INSTANCES,
                parties: SERVER_PARTIES,
                data_seed: SERVER_SEED,
                max_concurrent: 2,
                queue_capacity: clients / 2,
                default_deadline: Duration::from_secs(60),
                cache_dir: None,
                once: false,
                trace_out: None,
                max_tenants: 2,
            })
            .expect("bind in-process server");
            let addr = server.local_addr().to_string();
            (addr, Some(std::thread::spawn(move || server.run().expect("server run"))))
        }
    };

    // 2. Prime both tenants' caches: one cold run of each hot request.
    //    Identical (party_set, k, seed, …) tuples under different dataset
    //    tags — both MUST run cold, or tenants are aliasing cache entries.
    let mut primer = Client::connect(&addr).expect("connect primer");
    let prime = match primer.select(&hot_request(1, "")).expect("prime roundtrip") {
        Response::Selected(r) => r,
        other => panic!("prime request must select, got {other:?}"),
    };
    let prime2 = match primer.select(&hot_request(2, SECOND_DATASET)).expect("prime2 roundtrip") {
        Response::Selected(r) => r,
        other => panic!("second-tenant prime must select, got {other:?}"),
    };
    assert_eq!(prime.cache_status, "cold", "default-tenant prime must run cold");
    assert_eq!(
        prime2.cache_status, "cold",
        "second-tenant prime must run cold — a warm hit here means cross-tenant cache aliasing"
    );

    // 3. Sustained mixed load: `clients` threads, each issuing warm/cold/
    //    churn requests with unique ids; Busy is retried with backoff and
    //    counted.
    let addr = Arc::new(addr);
    let load_started = Instant::now();
    let outcomes: Vec<Outcome> = {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr.as_str()).expect("connect load client");
                    client.set_read_timeout(Some(Duration::from_secs(180))).unwrap();
                    let mut out = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let id = 1000 + (c * per_client + i) as u64;
                        let mode = match i % 3 {
                            0 => Mode::Warm,
                            1 => Mode::Cold,
                            _ => Mode::Churn,
                        };
                        // Interleave tenants within every client so both
                        // dataset worlds stay under concurrent load.
                        let dataset = if (c + i) % 2 == 0 { "" } else { SECOND_DATASET };
                        let mut req = hot_request(id, dataset);
                        match mode {
                            Mode::Warm => {}
                            // Unique seed: a fingerprint no one else wrote.
                            Mode::Cold => req.seed = 10_000 + id,
                            // Hot entry minus its last party: the cached
                            // neighbor serves it incrementally.
                            Mode::Churn => {
                                req.party_set.pop();
                                req.select = 2;
                            }
                        }
                        let mut busy_retries = 0u64;
                        let started = Instant::now();
                        let reply = loop {
                            match client.select(&req).expect("load roundtrip") {
                                Response::Busy { .. } => {
                                    busy_retries += 1;
                                    std::thread::sleep(Duration::from_millis(20));
                                }
                                other => break other,
                            }
                        };
                        let latency_us = started.elapsed().as_micros() as u64;
                        match reply {
                            Response::Selected(r) => {
                                assert_eq!(r.request_id, id, "response/request correlation");
                                out.push(Outcome {
                                    id,
                                    mode,
                                    dataset,
                                    latency_us,
                                    reply_status: r.cache_status.clone(),
                                    enc_instances: r.enc_instances,
                                    cache_hits: r.cache_hits,
                                    busy_retries,
                                });
                            }
                            other => panic!("load request {id} failed: {other:?}"),
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("load client panicked")).collect()
    };
    let load_wall = load_started.elapsed();

    // Zero lost or duplicated responses: every issued id answered once.
    let mut seen = HashMap::new();
    for o in &outcomes {
        *seen.entry(o.id).or_insert(0u32) += 1;
    }
    let duplicated = seen.values().filter(|&&n| n > 1).count();
    let lost = clients * per_client - seen.len();
    assert_eq!(duplicated, 0, "duplicated responses");
    assert_eq!(lost, 0, "lost responses");

    // Warm requests must be served from the cache without encrypting —
    // under BOTH dataset tags.
    for o in &outcomes {
        if o.mode == Mode::Warm {
            assert_eq!(
                o.enc_instances, 0,
                "warm request {} (dataset {:?}) re-encrypted",
                o.id, o.dataset
            );
            assert!(o.cache_hits > 0, "warm request {} missed the cache", o.id);
            assert_eq!(o.reply_status, "warm", "request {}", o.id);
        }
        if o.mode == Mode::Churn {
            assert_eq!(o.enc_instances, 0, "churn request {} re-encrypted", o.id);
        }
    }
    for dataset in ["", SECOND_DATASET] {
        assert!(
            outcomes.iter().any(|o| o.dataset == dataset && o.mode == Mode::Warm),
            "the workload must exercise the warm path for dataset {dataset:?}"
        );
    }
    let load_retries: u64 = outcomes.iter().map(|o| o.busy_retries).sum();

    // 4. Over-capacity burst: one-shot cold submits from 2x-clients
    //    simultaneous connections, no retry — admission control must turn
    //    the overflow into typed Busy replies.
    let burst_size = clients * 2;
    let burst_results: Vec<Response> = {
        let handles: Vec<_> = (0..burst_size)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr.as_str()).expect("connect burst client");
                    client.set_read_timeout(Some(Duration::from_secs(180))).unwrap();
                    let mut req = hot_request(5000 + i as u64, "");
                    req.seed = 50_000 + i as u64; // all cold: slow enough to pile up
                    client.select(&req).expect("burst roundtrip")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("burst client panicked")).collect()
    };
    let busy_burst = burst_results.iter().filter(|r| matches!(r, Response::Busy { .. })).count();
    let burst_selected =
        burst_results.iter().filter(|r| matches!(r, Response::Selected(_))).count();
    assert_eq!(
        busy_burst + burst_selected,
        burst_size,
        "burst replies must be Selected or Busy only"
    );
    assert!(busy_burst >= 1, "an over-capacity burst must trip Busy at least once");

    // 5. Per-tenant accounting straight from the server, then a graceful
    //    shutdown whose drain must account for everything.
    let (default_dataset, _, tenant_statuses) = primer.list_datasets().expect("list datasets");
    assert_eq!(tenant_statuses.len(), 2, "the workload drives exactly two tenants");
    for t in &tenant_statuses {
        assert_eq!(
            t.accepted,
            t.completed + t.failed,
            "tenant {} accounting must balance after the load",
            t.dataset
        );
        assert!(t.cache_hits > 0, "tenant {} never served warm", t.dataset);
    }
    let report: DrainReport = primer.shutdown().expect("shutdown");
    assert_eq!(report.in_flight, 0, "drain left work in flight");
    assert_eq!(
        report.accepted,
        report.completed + report.failed,
        "admitted work must be fully answered"
    );
    assert!(report.cache_hits > 0, "the workload must produce warm hits");
    if let Some(handle) = server_handle {
        let final_report = handle.join().expect("server thread panicked");
        assert_eq!(final_report.in_flight, 0);
    }

    // 6. Aggregate + emit.
    let completed_total = outcomes.len() + burst_selected + 1; // +1 primer
    let throughput_rps = outcomes.len() as f64 / load_wall.as_secs_f64();
    let mut per_mode: HashMap<Mode, Vec<u64>> = HashMap::new();
    for o in &outcomes {
        per_mode.entry(o.mode).or_default().push(o.latency_us);
    }

    let mut mode_objs: Vec<(String, Value)> = Vec::new();
    let mut md_rows: Vec<Vec<String>> = Vec::new();
    for mode in [Mode::Cold, Mode::Warm, Mode::Churn] {
        let mut lat = per_mode.remove(&mode).unwrap_or_default();
        lat.sort_unstable();
        let (p50, p95, p99) =
            (percentile(&lat, 0.50), percentile(&lat, 0.95), percentile(&lat, 0.99));
        let mut fields = vec![
            ("count".to_owned(), Value::Num(lat.len() as f64)),
            ("p50_us".to_owned(), Value::Num(p50 as f64)),
            ("p95_us".to_owned(), Value::Num(p95 as f64)),
            ("p99_us".to_owned(), Value::Num(p99 as f64)),
        ];
        if mode != Mode::Cold {
            fields.push(("enc_instances".to_owned(), Value::Num(0.0)));
        }
        mode_objs.push((mode.name().to_owned(), Value::Obj(fields)));
        md_rows.push(vec![
            mode.name().to_owned(),
            lat.len().to_string(),
            format!("{:.2}", p50 as f64 / 1e3),
            format!("{:.2}", p95 as f64 / 1e3),
            format!("{:.2}", p99 as f64 / 1e3),
        ]);
    }

    // Per-tenant: client-observed latency by dataset tag, joined with the
    // server's own ListDatasets accounting.
    let mut tenant_objs: Vec<(String, Value)> = Vec::new();
    let mut tenant_rows: Vec<Vec<String>> = Vec::new();
    for t in &tenant_statuses {
        let tag = if t.dataset == default_dataset { "" } else { t.dataset.as_str() };
        let mut lat: Vec<u64> =
            outcomes.iter().filter(|o| o.dataset == tag).map(|o| o.latency_us).collect();
        lat.sort_unstable();
        let warm_enc: u64 = outcomes
            .iter()
            .filter(|o| o.dataset == tag && o.mode == Mode::Warm)
            .map(|o| o.enc_instances)
            .sum();
        tenant_objs.push((
            t.dataset.clone(),
            Value::Obj(vec![
                ("requests".to_owned(), Value::Num(lat.len() as f64)),
                ("completed".to_owned(), Value::Num(t.completed as f64)),
                ("serve_rejected".to_owned(), Value::Num(t.rejected as f64)),
                ("cache_hits".to_owned(), Value::Num(t.cache_hits as f64)),
                ("warm_enc_instances".to_owned(), Value::Num(warm_enc as f64)),
                ("p50_us".to_owned(), Value::Num(percentile(&lat, 0.50) as f64)),
                ("p95_us".to_owned(), Value::Num(percentile(&lat, 0.95) as f64)),
            ]),
        ));
        tenant_rows.push(vec![
            t.dataset.clone(),
            lat.len().to_string(),
            t.completed.to_string(),
            t.cache_hits.to_string(),
            warm_enc.to_string(),
            format!("{:.2}", percentile(&lat, 0.50) as f64 / 1e3),
        ]);
    }

    let breakdown = Value::Obj(
        [
            ("clients".to_owned(), Value::Num(clients as f64)),
            ("requests_completed".to_owned(), Value::Num(completed_total as f64)),
            ("lost_responses".to_owned(), Value::Num(lost as f64)),
            ("duplicated_responses".to_owned(), Value::Num(duplicated as f64)),
            ("busy_retries".to_owned(), Value::Num(load_retries as f64)),
            ("busy_burst".to_owned(), Value::Num(busy_burst as f64)),
            ("serve_rejected".to_owned(), Value::Num(report.rejected as f64)),
            ("drain_in_flight".to_owned(), Value::Num(report.in_flight as f64)),
            ("throughput_rps".to_owned(), Value::Num((throughput_rps * 1e3).round() / 1e3)),
            ("tenants".to_owned(), Value::Obj(tenant_objs)),
        ]
        .into_iter()
        .chain(mode_objs)
        .collect(),
    );
    merge_into_artifact("BENCH_selection.json", breakdown);

    let table = markdown_table(&["mode", "requests", "p50 (ms)", "p95 (ms)", "p99 (ms)"], &md_rows);
    let tenant_table = markdown_table(
        &["tenant", "requests", "completed", "cache hits", "warm enc", "p50 (ms)"],
        &tenant_rows,
    );
    format!(
        "## bench-serve ({clients} clients × {per_client} requests + {burst_size} burst, \
         2 tenants)\n\n\
         prime: {default_dataset} cache={} enc={} | {SECOND_DATASET} cache={} enc={}\n\
         throughput: {throughput_rps:.1} req/s sustained ({} responses, 0 lost, 0 duplicated)\n\
         backpressure: {busy_burst} Busy in the burst, {load_retries} Busy retries under load\n\
         drain: accepted {} completed {} failed {} rejected {} in-flight {} cache-hits {}\n\n\
         {table}\n\n{tenant_table}",
        prime.cache_status,
        prime.enc_instances,
        prime2.cache_status,
        prime2.enc_instances,
        outcomes.len(),
        report.accepted,
        report.completed,
        report.failed,
        report.rejected,
        report.in_flight,
        report.cache_hits,
    )
}

// ---------------------------------------------------------------------
// bench-serve --router: the same workload through a routing tier, plus a
// mid-load backend drain and bit-identity against an unrouted daemon.
// ---------------------------------------------------------------------

/// Backend daemon config for the router bench: identical worlds to
/// [`bench_serve`]'s server, with an explicit (shared) cache directory so
/// a tenant re-routed by a drain still serves warm from disk.
fn backend_config(clients: usize, cache_dir: std::path::PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        dataset: SERVER_DATASET.into(),
        instances: SERVER_INSTANCES,
        parties: SERVER_PARTIES,
        data_seed: SERVER_SEED,
        max_concurrent: 2,
        queue_capacity: (clients / 2).max(2),
        default_deadline: Duration::from_secs(60),
        cache_dir: Some(cache_dir),
        once: false,
        trace_out: None,
        max_tenants: 2,
    }
}

/// Spawns one load wave: `clients` threads × `per_client` mixed
/// warm/cold/churn requests across both tenants, ids starting at
/// `id_base`. Returns the join handles so the caller can act (e.g. drain
/// a backend) while the wave is in flight.
fn spawn_load(
    addr: &Arc<String>,
    clients: usize,
    per_client: usize,
    id_base: u64,
) -> Vec<std::thread::JoinHandle<Vec<Outcome>>> {
    (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr.as_str()).expect("connect load client");
                client.set_read_timeout(Some(Duration::from_secs(180))).unwrap();
                let mut out = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let id = id_base + (c * per_client + i) as u64;
                    let mode = match i % 3 {
                        0 => Mode::Warm,
                        1 => Mode::Cold,
                        _ => Mode::Churn,
                    };
                    let dataset = if (c + i) % 2 == 0 { "" } else { SECOND_DATASET };
                    let mut req = hot_request(id, dataset);
                    match mode {
                        Mode::Warm => {}
                        Mode::Cold => req.seed = 10_000 + id,
                        Mode::Churn => {
                            req.party_set.pop();
                            req.select = 2;
                        }
                    }
                    let mut busy_retries = 0u64;
                    let started = Instant::now();
                    let reply = loop {
                        match client.select(&req).expect("load roundtrip") {
                            Response::Busy { .. } => {
                                busy_retries += 1;
                                std::thread::sleep(Duration::from_millis(20));
                            }
                            other => break other,
                        }
                    };
                    let latency_us = started.elapsed().as_micros() as u64;
                    match reply {
                        Response::Selected(r) => {
                            assert_eq!(r.request_id, id, "response/request correlation");
                            out.push(Outcome {
                                id,
                                mode,
                                dataset,
                                latency_us,
                                reply_status: r.cache_status.clone(),
                                enc_instances: r.enc_instances,
                                cache_hits: r.cache_hits,
                                busy_retries,
                            });
                        }
                        other => panic!("load request {id} failed: {other:?}"),
                    }
                }
                out
            })
        })
        .collect()
}

/// Checks one wave's invariants: every issued id answered exactly once,
/// warm/churn requests served without new encryptions under both dataset
/// tags. Returns (lost, duplicated) — always (0, 0) on success.
fn check_wave(outcomes: &[Outcome], issued: usize, wave: &str) -> (usize, usize) {
    let mut seen = HashMap::new();
    for o in outcomes {
        *seen.entry(o.id).or_insert(0u32) += 1;
    }
    let duplicated = seen.values().filter(|&&n| n > 1).count();
    let lost = issued - seen.len();
    assert_eq!(duplicated, 0, "{wave}: duplicated responses");
    assert_eq!(lost, 0, "{wave}: lost responses");
    for o in outcomes {
        if o.mode == Mode::Warm {
            assert_eq!(
                o.enc_instances, 0,
                "{wave}: warm request {} (dataset {:?}) re-encrypted",
                o.id, o.dataset
            );
            assert!(o.cache_hits > 0, "{wave}: warm request {} missed the cache", o.id);
        }
        if o.mode == Mode::Churn {
            assert_eq!(o.enc_instances, 0, "{wave}: churn request {} re-encrypted", o.id);
        }
    }
    (lost, duplicated)
}

/// Runs the two-tenant workload **through a routing tier** and verifies
/// the scale-out invariants end to end. Panics on any violation — the CI
/// `router` job runs this under a hard timeout and treats a panic as
/// failure.
///
/// On top of [`bench_serve`]'s invariants (zero lost/duplicated
/// responses, per-tenant warm serving, clean merged drain):
///
/// * **replies are bit-identical to an unrouted daemon** — every probed
///   selection through the tier equals the same request against a
///   reference daemon the router never touches;
/// * **both backends take traffic** — the two bench tenants hash to
///   different ring owners (per-backend routed counts are all nonzero);
/// * **a mid-load drain loses nothing** — one backend is drained while a
///   wave is in flight: in-flight relays complete, re-routed tenants
///   keep serving *warm* (the daemons share one artifact-cache
///   directory), and the drained backend takes no new requests.
///
/// With `--addr`, drives an already-running router (whose backends must
/// be started with the [`bench_serve`] server parameters and a shared
/// `--cache-dir`); otherwise the whole tier runs in-process.
#[must_use]
pub fn bench_serve_router(cfg: &ServeBenchConfig) -> String {
    use vfps_router::{Ring, Router, RouterConfig};

    let per_client: usize = if cfg.quick { 3 } else { 6 };
    let clients = cfg.clients.max(2);
    let pid = std::process::id();

    // 1. Reference daemon: same dataset worlds, private cache directory,
    //    never routed — the bit-identity oracle.
    let ref_cache = std::env::temp_dir().join(format!("vfps_bench_router_ref_{pid}"));
    let ref_server =
        Server::bind(&backend_config(clients, ref_cache.clone())).expect("bind reference daemon");
    let ref_addr = ref_server.local_addr().to_string();
    let ref_handle = std::thread::spawn(move || ref_server.run().expect("reference daemon run"));

    // 2. The tier: an external router via --addr, or two in-process
    //    daemons (sharing one cache directory) behind an in-process
    //    router.
    let shared_cache = std::env::temp_dir().join(format!("vfps_bench_router_shared_{pid}"));
    let (router_addr, tier_handles) = match &cfg.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let d0 = Server::bind(&backend_config(clients, shared_cache.clone()))
                .expect("bind backend b0");
            let d1 = Server::bind(&backend_config(clients, shared_cache.clone()))
                .expect("bind backend b1");
            let (a0, a1) = (d0.local_addr().to_string(), d1.local_addr().to_string());
            let h0 = std::thread::spawn(move || d0.run().expect("backend b0 run"));
            let h1 = std::thread::spawn(move || d1.run().expect("backend b1 run"));
            let router = Router::bind(&RouterConfig {
                addr: "127.0.0.1:0".into(),
                backends: vec![("b0".into(), a0), ("b1".into(), a1)],
                health_interval: Duration::from_millis(200),
                ..RouterConfig::default()
            })
            .expect("bind router");
            let addr = router.local_addr().to_string();
            let hr = std::thread::spawn(move || router.run().expect("router run"));
            (addr, Some((hr, vec![h0, h1])))
        }
    };

    let mut control = Client::connect(&router_addr).expect("connect control client");
    control.set_read_timeout(Some(Duration::from_secs(180))).unwrap();
    let status0 = control
        .router_status()
        .expect("bench-serve --router needs a router address (a plain daemon rejects this)");
    assert!(status0.backends.len() >= 2, "--router wants at least two backends: {status0:?}");

    // Rebuild the router's ring locally from its status reply — the ring
    // is deterministic across processes, so this replica names the same
    // owner for every tenant the router does. Pick the SECOND_DATASET
    // owner as the drain victim: the drained tenant must re-route.
    let mut ring = Ring::new(status0.ring_seed, status0.vnodes_per_backend);
    for b in &status0.backends {
        ring.add(&b.name);
    }
    let drain_target = ring.lookup(SECOND_DATASET, |_| true).expect("nonempty ring").to_owned();

    // 3. Primes through the router: cold under both tenants, and
    //    bit-identical to the reference daemon's own cold runs.
    let mut reference = Client::connect(&ref_addr).expect("connect reference client");
    reference.set_read_timeout(Some(Duration::from_secs(180))).unwrap();
    let mut bit_identical_probes = 0usize;
    let mut probe_pair = |control: &mut Client, reference: &mut Client, req: &SelectRequest| {
        let routed = match control.select(req).expect("routed probe") {
            Response::Selected(r) => r,
            other => panic!("routed probe {} must select, got {other:?}", req.request_id),
        };
        let direct = match reference.select(req).expect("direct probe") {
            Response::Selected(r) => r,
            other => panic!("direct probe {} must select, got {other:?}", req.request_id),
        };
        assert_eq!(
            routed.chosen, direct.chosen,
            "probe {}: chosen set through the tier differs from the direct daemon",
            req.request_id
        );
        assert_eq!(
            routed.scores, direct.scores,
            "probe {}: scores through the tier differ from the direct daemon",
            req.request_id
        );
        bit_identical_probes += 1;
        routed
    };
    let prime = probe_pair(&mut control, &mut reference, &hot_request(1, ""));
    let prime2 = probe_pair(&mut control, &mut reference, &hot_request(2, SECOND_DATASET));
    assert_eq!(prime.cache_status, "cold", "default-tenant prime must run cold");
    assert_eq!(prime2.cache_status, "cold", "second-tenant prime must run cold");

    // 4. Wave 1: sustained mixed load through the tier, both backends
    //    healthy. Afterwards every backend must have taken traffic.
    let router_addr = Arc::new(router_addr);
    let load_started = Instant::now();
    let wave1: Vec<Outcome> = spawn_load(&router_addr, clients, per_client, 1000)
        .into_iter()
        .flat_map(|h| h.join().expect("wave-1 client panicked"))
        .collect();
    check_wave(&wave1, clients * per_client, "wave 1");
    let mid_status = control.router_status().expect("status after wave 1");
    let all_backends_routed = mid_status.backends.iter().all(|b| b.routed > 0);
    assert!(
        all_backends_routed,
        "every backend must take traffic (tenants must spread): {mid_status:?}"
    );

    // 5. Wave 2 with a mid-load drain: flip the SECOND_DATASET owner out
    //    of the ring while requests are in flight. In-flight relays
    //    complete; new requests re-route; nothing is lost or duplicated;
    //    the re-routed tenant stays warm via the shared cache directory.
    let wave2_handles = spawn_load(&router_addr, clients, per_client, 3000);
    std::thread::sleep(Duration::from_millis(25));
    let drained_status = control.router_drain(&drain_target).expect("mid-load drain");
    let drained_row =
        drained_status.backends.iter().find(|b| b.name == drain_target).expect("drained row");
    assert_eq!(drained_row.state, 3, "drain must report the backend drained");
    let wave2: Vec<Outcome> =
        wave2_handles.into_iter().flat_map(|h| h.join().expect("wave-2 client panicked")).collect();
    let load_wall = load_started.elapsed();
    check_wave(&wave2, clients * per_client, "wave 2 (mid-load drain)");

    // 6. Post-drain probes: both tenants answer warm through the
    //    survivors, still bit-identical to the direct daemon; the drained
    //    backend's routed count is frozen.
    let frozen_routed = control
        .router_status()
        .expect("status after wave 2")
        .backends
        .iter()
        .find(|b| b.name == drain_target)
        .expect("drained row")
        .routed;
    let post = probe_pair(&mut control, &mut reference, &hot_request(9001, ""));
    let post2 = probe_pair(&mut control, &mut reference, &hot_request(9002, SECOND_DATASET));
    let warm_enc_after_drain = post.enc_instances + post2.enc_instances;
    assert_eq!(
        warm_enc_after_drain, 0,
        "post-drain probes must serve warm from the shared cache (enc {} / {})",
        post.enc_instances, post2.enc_instances
    );
    let final_status = control.router_status().expect("final status");
    let final_row =
        final_status.backends.iter().find(|b| b.name == drain_target).expect("drained row");
    assert_eq!(final_row.routed, frozen_routed, "a drained backend must take no new requests");

    // 7. Broadcast verbs: merged tenant ledger, then a relayed shutdown
    //    whose merged accounting must balance.
    let (default_dataset, _, tenant_statuses) =
        control.list_datasets().expect("merged list datasets");
    for t in &tenant_statuses {
        assert_eq!(
            t.accepted,
            t.completed + t.failed,
            "tenant {} merged accounting must balance",
            t.dataset
        );
    }
    let report: DrainReport = control.shutdown().expect("relayed shutdown");
    assert_eq!(report.in_flight, 0, "merged drain left work in flight");
    assert_eq!(report.accepted, report.completed + report.failed, "merged accounting must balance");
    if let Some((router_handle, daemon_handles)) = tier_handles {
        router_handle.join().expect("router thread panicked");
        for h in daemon_handles {
            let backend_report = h.join().expect("backend thread panicked");
            assert_eq!(backend_report.in_flight, 0);
        }
        let _ = std::fs::remove_dir_all(&shared_cache);
    }
    let mut rc = Client::connect(&ref_addr).expect("reconnect reference");
    rc.shutdown().expect("reference shutdown");
    ref_handle.join().expect("reference daemon panicked");
    let _ = std::fs::remove_dir_all(&ref_cache);

    // 8. Aggregate + emit router_breakdown.
    let outcomes: Vec<&Outcome> = wave1.iter().chain(&wave2).collect();
    let throughput_rps = outcomes.len() as f64 / load_wall.as_secs_f64();
    let busy_retries: u64 = outcomes.iter().map(|o| o.busy_retries).sum();
    let mut backend_objs: Vec<(String, Value)> = Vec::new();
    let mut backend_rows: Vec<Vec<String>> = Vec::new();
    for b in &final_status.backends {
        backend_objs.push((
            b.name.clone(),
            Value::Obj(vec![
                ("routed".to_owned(), Value::Num(b.routed as f64)),
                ("relay_errors".to_owned(), Value::Num(b.relay_errors as f64)),
                ("state".to_owned(), Value::Str(vfps_serve::health_state_name(b.state).to_owned())),
            ]),
        ));
        backend_rows.push(vec![
            b.name.clone(),
            vfps_serve::health_state_name(b.state).to_owned(),
            b.routed.to_string(),
            b.relay_errors.to_string(),
        ]);
    }
    let breakdown = Value::Obj(vec![
        ("clients".to_owned(), Value::Num(clients as f64)),
        ("requests_completed".to_owned(), Value::Num(outcomes.len() as f64)),
        ("lost_responses".to_owned(), Value::Num(0.0)),
        ("duplicated_responses".to_owned(), Value::Num(0.0)),
        ("busy_retries".to_owned(), Value::Num(busy_retries as f64)),
        ("throughput_rps".to_owned(), Value::Num((throughput_rps * 1e3).round() / 1e3)),
        ("all_backends_routed".to_owned(), Value::Bool(all_backends_routed)),
        ("drained_backend".to_owned(), Value::Str(drain_target.clone())),
        ("warm_enc_after_drain".to_owned(), Value::Num(warm_enc_after_drain as f64)),
        ("bit_identical_to_direct".to_owned(), Value::Bool(true)),
        ("bit_identity_probes".to_owned(), Value::Num(bit_identical_probes as f64)),
        ("drain_in_flight".to_owned(), Value::Num(report.in_flight as f64)),
        ("backends".to_owned(), Value::Obj(backend_objs)),
    ]);
    merge_router_breakdown("BENCH_selection.json", breakdown);

    let backend_table =
        markdown_table(&["backend", "state", "routed", "relay errors"], &backend_rows);
    format!(
        "## bench-serve --router ({clients} clients × {per_client} × 2 waves, 2 backends, \
         mid-load drain of {drain_target})\n\n\
         prime: {default_dataset} cache={} | {SECOND_DATASET} cache={}\n\
         bit-identity: {bit_identical_probes} probes through the tier equal the direct daemon\n\
         throughput: {throughput_rps:.1} req/s sustained ({} responses, 0 lost, 0 duplicated)\n\
         drain: backend {drain_target} drained mid-load; post-drain warm enc {} (must be 0)\n\
         merged drain: accepted {} completed {} failed {} rejected {} in-flight {} cache-hits {}\n\n\
         {backend_table}",
        prime.cache_status,
        prime2.cache_status,
        outcomes.len(),
        warm_enc_after_drain,
        report.accepted,
        report.completed,
        report.failed,
        report.rejected,
        report.in_flight,
        report.cache_hits,
    )
}

/// Merges `router_breakdown` into an existing `BENCH_selection.json`,
/// preserving every other key (including `serve_breakdown`).
fn merge_router_breakdown(path: &str, breakdown: Value) {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse(&text).ok())
        .unwrap_or_else(|| {
            Value::Obj(vec![(
                "benchmark".to_owned(),
                Value::Str("selection thread scaling".to_owned()),
            )])
        });
    doc.set("router_breakdown", breakdown);
    if let Err(e) = std::fs::write(path, doc.to_json()) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("[saved {path} (router_breakdown)]");
    }
}

/// Merges `serve_breakdown` into an existing `BENCH_selection.json`
/// (preserving every other key), or writes a minimal document if the file
/// is absent or unparseable.
fn merge_into_artifact(path: &str, breakdown: Value) {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse(&text).ok())
        .unwrap_or_else(|| {
            Value::Obj(vec![(
                "benchmark".to_owned(),
                Value::Str("selection thread scaling".to_owned()),
            )])
        });
    doc.set("serve_breakdown", breakdown);
    if let Err(e) = std::fs::write(path, doc.to_json()) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("[saved {path} (serve_breakdown)]");
    }
}
