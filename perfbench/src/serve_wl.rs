//! `serve-hot` and `serve-cold`: closed-loop clients through a
//! `vfps-router` over two `vfps-serve` daemons holding two tenants.
//!
//! Both workloads share the topology and differ only in the request
//! stream: serve-hot repeats a primed hot set plus one-party join/leave
//! variants (cache reads, wire and relay do the work), serve-cold gives
//! every request a fresh seed and so a fresh query sample (the fed-KNN
//! engine and cache writes do the work).

use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_core::TenantContext;
use vfps_net::cost::CostModel;
use vfps_net::Wire;
use vfps_router::{Ring, Router, RouterConfig};
use vfps_serve::{
    knn_mode, maximizer, Client, Request, Response, SelectReply, SelectRequest, ServeConfig,
    Server, TenantRegistry,
};

use crate::common::{
    mean, median, mix, ms, report_end_to_end, Args, Outcome, Recorder, StreamShape, Window, WorkDir,
};
use crate::replay::{fagin_layer, replay_cached};

/// The two tenants; the daemons start with the first as their default.
const TENANTS: [&str; 2] = ["Bank", "Rice"];
const PARTIES: usize = 4;
const DATA_SEED: u64 = 42;
const SELECT: usize = 2;
const K: usize = 10;
const MODE_FAGIN: u8 = 1;
const SETUP_REPEATS: usize = 5;
/// Hot-set entries per tenant: the smallest set with both churn kinds.
/// Entry 0 holds all 4 parties (its one-party variants are leaves), entry
/// 1 holds 3 (its 4-party variant is a join).
const HOT_PER_TENANT: usize = 2;
/// Share of serve-hot requests that are one-party churn variants: the
/// share of churn requests in `experiments bench-serve`.
const CHURN_SHARE: f64 = 1.0 / 3.0;
/// Traced pass: requests sent via the router before their direct copies
/// are sent to the owners.
const TRACE_BLOCK: usize = 16;
/// Salt of the fresh seed a serve-cold direct copy carries.
const DIRECT_SALT: u64 = 0xd1ec7;
/// Correctness-gate sample size per run.
const GATE_SAMPLE: usize = 12;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

struct Params {
    kind: Kind,
    instances: usize,
    query_count: usize,
    /// Closed-loop client threads, each with its own connection.
    clients: usize,
}

impl Params {
    fn new(kind: Kind, tiny: bool) -> Params {
        // Two clients on the 2-CPU reference host for serve-hot. serve-cold
        // uses one: two concurrent cold runs share the same two pool
        // threads, and whether they overlap flips the median between
        // modes from run to run.
        let clients = if kind == Kind::Hot { 2 } else { 1 };
        // 0 = each tenant's catalog simulation size.
        let (instances, query_count) = if tiny { (160, 4) } else { (0, 512) };
        Params { kind, instances, query_count, clients }
    }

    fn hot_entry(&self, seed: u64, tenant: usize, i: usize) -> SelectRequest {
        let party_set =
            if i.is_multiple_of(2) { (0..PARTIES).collect() } else { (0..PARTIES - 1).collect() };
        self.request(0, tenant, party_set, mix(seed, 1_000 + (tenant * 100 + i) as u64))
    }

    /// The copy of `req` the traced pass sends straight to its ring owner.
    /// serve-hot resends the request itself (warm and churn replies store
    /// nothing, so the copy is served the same way). On serve-cold the
    /// routed request has just stored its entry, so the copy gets a fresh
    /// seed of the same shape and runs cold too.
    fn direct_copy(&self, req: &SelectRequest) -> SelectRequest {
        let mut copy = req.clone();
        if self.kind == Kind::Cold {
            copy.seed = mix(req.seed, DIRECT_SALT);
        }
        copy
    }

    fn request(&self, id: u64, tenant: usize, party_set: Vec<usize>, seed: u64) -> SelectRequest {
        SelectRequest {
            request_id: id,
            dataset: TENANTS[tenant].to_owned(),
            party_set,
            select: SELECT,
            k: K,
            query_count: self.query_count,
            mode: MODE_FAGIN,
            seed,
            deadline_ms: 0,
            maximizer: 0,
        }
    }

    /// Request `i` of client `c`: a pure function of the run seed, so the
    /// stream is reproducible and independent of timing.
    fn request_at(&self, seed: u64, c: usize, i: u64) -> SelectRequest {
        let id = ((c as u64 + 1) << 40) | i;
        let mut rng = StdRng::seed_from_u64(mix(mix(seed, 7 + c as u64), i));
        let tenant = rng.gen_range(0..TENANTS.len());
        match self.kind {
            Kind::Cold => {
                self.request(id, tenant, (0..PARTIES).collect(), mix(seed, (c as u64) << 32 | i))
            }
            Kind::Hot => {
                let mut req = self.hot_entry(seed, tenant, rng.gen_range(0..HOT_PER_TENANT));
                req.request_id = id;
                if rng.gen::<f64>() < CHURN_SHARE {
                    if req.party_set.len() == PARTIES {
                        let gone = rng.gen_range(0..PARTIES);
                        req.party_set.retain(|&p| p != gone);
                    } else {
                        req.party_set.push(PARTIES - 1);
                    }
                }
                req
            }
        }
    }

    fn primes(&self, seed: u64) -> Vec<SelectRequest> {
        match self.kind {
            Kind::Hot => (0..TENANTS.len())
                .flat_map(|t| (0..HOT_PER_TENANT).map(move |i| (t, i)))
                .map(|(t, i)| self.hot_entry(seed, t, i))
                .collect(),
            // One request per tenant materializes the second tenant's
            // world outside the measured window.
            Kind::Cold => (0..TENANTS.len())
                .map(|t| self.request(0, t, (0..PARTIES).collect(), mix(seed, 900 + t as u64)))
                .collect(),
        }
    }
}

/// Two daemons behind one router, all in this process on loopback.
struct Tier {
    router: String,
    backends: Vec<(String, String)>,
    threads: Vec<JoinHandle<()>>,
}

impl Tier {
    fn start(work: &WorkDir, tag: &str, instances: usize) -> Tier {
        let mut threads = Vec::new();
        let mut backends = Vec::new();
        for b in 0..2 {
            let server = Server::bind(&ServeConfig {
                addr: "127.0.0.1:0".into(),
                dataset: TENANTS[0].into(),
                instances,
                parties: PARTIES,
                data_seed: DATA_SEED,
                max_concurrent: 2,
                queue_capacity: 4,
                max_tenants: TENANTS.len(),
                default_deadline: Duration::from_secs(120),
                cache_dir: Some(work.path(&format!("{tag}-cache-b{b}"))),
                once: false,
                trace_out: None,
            })
            .expect("bind daemon");
            backends.push((format!("b{b}"), server.local_addr().to_string()));
            threads.push(std::thread::spawn(move || {
                server.run().expect("daemon run");
            }));
        }
        let router = Router::bind(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: backends.clone(),
            ..RouterConfig::default()
        })
        .expect("bind router");
        let addr = router.local_addr().to_string();
        threads.push(std::thread::spawn(move || {
            router.run().expect("router run");
        }));
        Tier { router: addr, backends, threads }
    }

    /// Relayed shutdown: the router drains both daemons, then itself.
    fn stop(self) {
        let mut c = Client::connect(&self.router).expect("connect for shutdown");
        let report = c.shutdown().expect("relayed shutdown");
        assert_eq!(report.in_flight, 0, "drain left work in flight");
        for t in self.threads {
            t.join().expect("tier thread panicked");
        }
    }

    /// The ring owner of each tenant, rebuilt from the router's status.
    fn owners(&self) -> Vec<String> {
        let mut c = Client::connect(&self.router).expect("connect for status");
        let status = c.router_status().expect("router status");
        let mut ring = Ring::new(status.ring_seed, status.vnodes_per_backend);
        for b in &status.backends {
            ring.add(&b.name);
        }
        TENANTS.iter().map(|t| ring.lookup(t, |_| true).expect("a backend").to_owned()).collect()
    }

    fn backend_addr(&self, name: &str) -> &str {
        &self.backends.iter().find(|(n, _)| n == name).expect("known backend").1
    }

    /// Accepted selections per (backend, tenant) from each daemon's ledger.
    fn accepted(&self) -> HashMap<(String, String), u64> {
        let mut out = HashMap::new();
        for (name, addr) in &self.backends {
            let mut c = Client::connect(addr).expect("connect backend");
            let (_, _, tenants) = c.list_datasets().expect("list datasets");
            for t in tenants {
                out.insert((name.clone(), t.dataset), t.accepted);
            }
        }
        out
    }
}

fn select(c: &mut Client, req: &SelectRequest) -> Option<SelectReply> {
    match c.select(req) {
        Ok(Response::Selected(r)) => Some(r),
        _ => None,
    }
}

/// One completed (or failed) request of a measured loop.
struct Done {
    req: SelectRequest,
    reply: Option<SelectReply>,
    busy: bool,
    latency_ms: f64,
    /// Traced loop only: the same request sent straight to its owner.
    direct: Option<(SelectReply, f64)>,
}

/// Runs `p.clients` closed-loop clients against the router for `window`.
/// With `trace`, every request is also sent directly to its ring owner.
fn drive(
    p: &Params,
    seed: u64,
    tier: &Tier,
    owners: &[String],
    window: Duration,
    first_index: u64,
    rec: Option<&mut Recorder>,
) -> (Vec<Done>, Duration) {
    let started = Instant::now();
    let deadline = started + window;
    let traced = rec.is_some();
    let epoch = Instant::now();
    let results: Vec<(Vec<Done>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p.clients)
            .map(|c| {
                s.spawn(move || {
                    let mut local = Recorder::new(epoch);
                    let mut client = Client::connect(&tier.router).expect("connect client");
                    let mut direct: Vec<Client> = if traced {
                        tier.backends
                            .iter()
                            .map(|(_, a)| Client::connect(a).expect("connect backend"))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let mut done = Vec::new();
                    let mut i = first_index;
                    while Instant::now() < deadline {
                        let start = done.len();
                        for _ in 0..if traced { TRACE_BLOCK } else { 1 } {
                            let req = p.request_at(seed, c, i);
                            i += 1;
                            let span =
                                traced.then(|| local.enter("router.request", req.request_id, None));
                            let t0 = Instant::now();
                            let resp = client.select(&req);
                            let latency_ms = ms(t0.elapsed());
                            if let Some(span) = span {
                                local.exit(span);
                            }
                            let busy = matches!(resp, Ok(Response::Busy { .. }));
                            let reply = match resp {
                                Ok(Response::Selected(r)) => Some(r),
                                _ => None,
                            };
                            done.push(Done { req, reply, busy, latency_ms, direct: None });
                        }
                        if !traced {
                            continue;
                        }
                        // The same block again, straight to each request's
                        // ring owner and back to back like the routed
                        // requests, so both paths see the same pacing (an
                        // idle connection acknowledges at once, a busy one
                        // delays its acknowledgements).
                        for d in done[start..].iter_mut().filter(|d| d.reply.is_some()) {
                            let t = TENANTS.iter().position(|t| *t == d.req.dataset);
                            let owner = &owners[t.expect("tenant")];
                            let b = tier.backends.iter().position(|(n, _)| n == owner);
                            let span = local.enter("direct.request", d.req.request_id, None);
                            let t0 = Instant::now();
                            let copy = p.direct_copy(&d.req);
                            let r = select(&mut direct[b.expect("owner is a backend")], &copy);
                            let l = ms(t0.elapsed());
                            local.exit(span);
                            d.direct = r.map(|r| (r, l));
                        }
                    }
                    (done, local)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = started.elapsed();
    let mut all = Vec::new();
    let mut merged = Recorder::new(epoch);
    for (done, local) in results {
        all.extend(done);
        merged.absorb(local);
    }
    if let Some(rec) = rec {
        rec.absorb(merged);
    }
    (all, wall)
}

/// Sets the tier up `SETUP_REPEATS` times (bind, materialize both tenants,
/// prime) and keeps the last one; returns it with every setup time.
fn setup(p: &Params, seed: u64, work: &WorkDir) -> (Tier, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept: Option<Tier> = None;
    for rep in 0..SETUP_REPEATS {
        // One tier at a time, so the peak resident set holds one tier.
        if let Some(old) = kept.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let tier = Tier::start(work, &format!("setup{rep}"), p.instances);
        let mut c = Client::connect(&tier.router).expect("connect primer");
        for req in p.primes(seed) {
            let r = select(&mut c, &req).expect("prime request must select");
            assert_eq!(r.cache_status, "cold", "a prime must run cold");
        }
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(tier);
    }
    (kept.expect("at least one setup"), times)
}

fn ctx_of<'a>(world: &'a vfps_serve::TenantWorld, seed: u64) -> SelectionContext<'a> {
    SelectionContext {
        ds: &world.ds,
        split: &world.split,
        partition: &world.partition,
        cost_scale: 1.0,
        seed,
    }
}

fn selector(req: &SelectRequest) -> VfpsSmSelector {
    VfpsSmSelector {
        k: req.k,
        query_count: req.query_count,
        mode: knn_mode(req.mode).expect("valid mode"),
        maximizer: maximizer(req.maximizer).expect("valid maximizer"),
        ..VfpsSmSelector::default()
    }
}

fn same_selection(reply: &SelectReply, chosen: &[usize], scores: &[f64], status: &str) -> bool {
    reply.chosen == chosen
        && reply.scores.len() == scores.len()
        && reply.scores.iter().zip(scores).all(|(a, b)| a.to_bits() == b.to_bits())
        && reply.cache_status == status
}

/// Correctness gates on a sample of served replies: bit-identical to an
/// in-process `select_with_cache` over an identically primed cache, and
/// warm replies encrypt nothing.
fn gate(p: &Params, seed: u64, work: &WorkDir, done: &[Done], out: &mut Outcome) {
    let registry = TenantRegistry::new(
        TENANTS[0],
        p.instances,
        PARTIES,
        DATA_SEED,
        work.path("gate-cache"),
        TENANTS.len(),
    );
    let cost = CostModel::default();
    let serve = |req: &SelectRequest| {
        let world = registry.resolve(&req.dataset).expect("known tenant");
        let tc = TenantContext { tenant: &world.name, dataset_tag: world.ds.name.as_bytes() };
        vfps_core::select_with_cache(
            &world.cache,
            &selector(req),
            &ctx_of(&world, req.seed),
            &req.party_set,
            req.select,
            &cost,
            &tc,
        )
    };
    for req in p.primes(seed) {
        serve(&req);
    }
    let mut seen = std::collections::HashSet::new();
    for d in done {
        if seen.len() >= GATE_SAMPLE {
            break;
        }
        let Some(reply) = &d.reply else { continue };
        let key = (d.req.dataset.clone(), d.req.party_set.clone(), d.req.seed);
        if !seen.insert(key) {
            continue;
        }
        let s = serve(&d.req);
        let ok =
            same_selection(reply, &s.selection.chosen, &s.selection.scores, &s.status.to_string());
        out.gate(ok, || {
            format!("request {} differs from in-process select_with_cache", d.req.request_id)
        });
        if reply.cache_status == "warm" {
            out.gate(reply.enc_instances == 0, || {
                format!(
                    "warm request {} billed {} encryptions",
                    d.req.request_id, reply.enc_instances
                )
            });
        }
    }
    out.gate(!seen.is_empty(), || "no reply reached the gate".into());
}

fn digest_stream(p: &Params, seed: u64) -> StreamShape {
    let reqs: Vec<SelectRequest> = (0..p.clients)
        .flat_map(|c| (0..32).map(move |i| (c, i)))
        .map(|(c, i)| p.request_at(seed, c, i))
        .collect();
    let bytes: Vec<Vec<u8>> = reqs.iter().map(Wire::to_bytes).collect();
    let parts: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
    StreamShape {
        ops: reqs.len(),
        shape: format!(
            "clients={} tenants={} parties={PARTIES} select={SELECT} k={K} queries={}",
            p.clients,
            TENANTS.len(),
            p.query_count
        ),
        digest: crate::common::fnv64(&parts),
    }
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let p = Params::new(kind, args.tiny);
    let mut out = Outcome::default();
    out.param("daemons", "in-process vfps-serve x2 + vfps-router (loopback TCP)");
    out.param("tenants", TENANTS.join("+"));
    out.param(
        "rows",
        if p.instances == 0 { "catalog sim size".to_owned() } else { p.instances.to_string() },
    );
    out.param("parties", PARTIES);
    out.param("queries_per_request", p.query_count);
    out.param("k", K);
    out.param("select", SELECT);
    out.param("clients", format!("{} closed-loop", p.clients));
    out.param(
        "request_mix",
        match kind {
            Kind::Hot => format!(
                "{HOT_PER_TENANT} hot entries/tenant, {:.0}% one-party churn variants",
                CHURN_SHARE * 100.0
            ),
            Kind::Cold => "fresh seed per request (all cold)".to_owned(),
        },
    );
    out.stream = Some(digest_stream(&p, args.seed));

    let work = WorkDir::create(if kind == Kind::Hot { "serve-hot" } else { "serve-cold" })
        .expect("create work dir");
    let (tier, setup_s) = setup(&p, args.seed, &work);
    let owners = tier.owners();
    let window = if args.trace { args.window() / 2 } else { args.window() };

    let cpu0 = crate::common::cpu_seconds();
    let (done, wall) = drive(&p, args.seed, &tier, &owners, window, 0, None);
    let cpu_s = crate::common::cpu_seconds() - cpu0;
    let rss_mb = crate::common::peak_rss_mb();
    let ok: Vec<&Done> = done.iter().filter(|d| d.reply.is_some()).collect();
    out.attempted = done.len() as u64;
    out.failed = (done.len() - ok.len()) as u64;
    let untraced_ms: Vec<f64> = ok.iter().map(|d| d.latency_ms).collect();
    gate(&p, args.seed, &work, &done, &mut out);

    if args.trace {
        let before = tier.accepted();
        let mut rec = Recorder::new(Instant::now());
        let (traced, _) = drive(&p, args.seed, &tier, &owners, window, 1 << 30, Some(&mut rec));
        let after = tier.accepted();
        out.attempted += traced.len() as u64;
        out.failed += traced.iter().filter(|d| d.reply.is_none()).count() as u64;
        layers(
            &p,
            args,
            &work,
            &tier,
            &owners,
            &traced,
            &before,
            &after,
            &untraced_ms,
            rec,
            &mut out,
        );
    } else {
        let w = Window {
            latencies_ms: untraced_ms,
            ops: ok.len() as u64,
            wall,
            cpu_s,
            peak_rss_mb: rss_mb,
        };
        report_end_to_end(&mut out, &setup_s, &w);
    }
    tier.stop();
    out
}

/// The traced pass's layer decomposition and per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn layers(
    p: &Params,
    args: &Args,
    work: &WorkDir,
    tier: &Tier,
    owners: &[String],
    traced: &[Done],
    before: &HashMap<(String, String), u64>,
    after: &HashMap<(String, String), u64>,
    untraced_ms: &[f64],
    mut rec: Recorder,
    out: &mut Outcome,
) {
    // Router: share of routed requests each tenant's ring owner answered.
    // Every daemon's accepted count minus the direct requests we sent it.
    let mut direct_sent: HashMap<(String, String), u64> = HashMap::new();
    for d in traced.iter().filter(|d| d.direct.is_some()) {
        let t = TENANTS.iter().position(|t| *t == d.req.dataset).expect("tenant");
        *direct_sent.entry((owners[t].clone(), d.req.dataset.clone())).or_default() += 1;
    }
    let (mut routed, mut on_owner) = (0u64, 0u64);
    for (key, &n) in after {
        let delta =
            n - before.get(key).copied().unwrap_or(0) - direct_sent.get(key).copied().unwrap_or(0);
        routed += delta;
        if TENANTS.iter().position(|t| *t == key.1).is_some_and(|t| owners[t] == key.0) {
            on_owner += delta;
        }
    }
    out.metric("router.owner_ratio", on_owner as f64 / routed.max(1) as f64);

    // Replay every traced request, in send order, through the layers.
    let registry = TenantRegistry::new(
        TENANTS[0],
        p.instances,
        PARTIES,
        DATA_SEED,
        work.path("replay-cache"),
        TENANTS.len(),
    );
    let resolve_cold: Vec<f64> = TENANTS
        .iter()
        .map(|t| {
            let t0 = Instant::now();
            registry.resolve(t).expect("known tenant");
            ms(t0.elapsed())
        })
        .collect();
    out.metric("serve.tenant_resolve_ms", mean(&resolve_cold));
    let cost = CostModel::default();
    let mut scratch = Recorder::new(Instant::now());
    if p.kind == Kind::Hot {
        for req in p.primes(args.seed) {
            let world = registry.resolve(&req.dataset).expect("tenant");
            let tc = TenantContext { tenant: &world.name, dataset_tag: world.ds.name.as_bytes() };
            replay_cached(
                &mut scratch,
                0,
                None,
                &world.cache,
                &selector(&req),
                &ctx_of(&world, req.seed),
                &req.party_set,
                req.select,
                &cost,
                &tc,
            );
        }
    }
    let mut order: Vec<&Done> =
        traced.iter().filter(|d| d.reply.is_some() && d.direct.is_some()).collect();
    order.sort_by_key(|d| {
        rec.spans
            .iter()
            .find(|s| s.name == "router.request" && s.request == d.req.request_id)
            .map_or(0, |s| s.start_ns)
    });

    let mut sums: HashMap<&'static str, f64> = HashMap::new();
    let (mut total_ms, mut residual_ms) = (0.0, 0.0);
    let (mut relay, mut wire, mut queue, mut run) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hit_ms, mut miss_ms, mut churn_ms, mut store_ms, mut entry_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut fed_ms, mut sim_ms, mut max_ms, mut evals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut enc, mut cand, mut queries) = (0u64, 0usize, 0usize);
    let mut warm_or_churn = 0usize;
    for d in &order {
        let reply = d.reply.as_ref().expect("filtered");
        let (direct, l_d) = d.direct.as_ref().expect("filtered");
        let id = d.req.request_id;
        let root = rec.enter("replay", id, None);
        let resolve_span = rec.enter("serve.resolve", id, Some(root));
        let world = registry.resolve(&d.req.dataset).expect("tenant");
        rec.exit(resolve_span);
        let tc = TenantContext { tenant: &world.name, dataset_tag: world.ds.name.as_bytes() };
        let first = rec.spans.len();
        let r = replay_cached(
            &mut rec,
            id,
            Some(root),
            &world.cache,
            &selector(&d.req),
            &ctx_of(&world, d.req.seed),
            &d.req.party_set,
            d.req.select,
            &cost,
            &tc,
        );
        rec.exit(root);
        out.gate(same_selection(reply, &r.chosen, &r.scores, &r.status), || {
            format!("request {id}: layer replay differs from the served reply")
        });
        out.gate(direct.cache_status == reply.cache_status, || {
            format!(
                "request {id}: direct copy served {} but the routed request {}",
                direct.cache_status, reply.cache_status
            )
        });

        let l_r = d.latency_ms;
        let q_r = reply.queue_us as f64 / 1e3;
        let run_r = reply.run_us as f64 / 1e3;
        let wire_d = l_d - direct.queue_us as f64 / 1e3 - direct.run_us as f64 / 1e3;
        let relay_ms = (l_r - q_r - run_r) - wire_d;
        let span_ms = |name: &str| -> f64 {
            rec.spans[first..].iter().filter(|s| s.name == name).map(|s| s.dur_ms()).sum()
        };
        let resolve = rec.spans[resolve_span].dur_ms();
        let (lookup, churn, store) =
            (span_ms("cache.lookup"), span_ms("cache.churn"), span_ms("cache.store"));
        let (fed, sim, max) =
            (span_ms("fed_knn.query_batch"), span_ms("similarity"), span_ms("maximizer"));
        let parts = [
            ("relay", relay_ms),
            ("wire", wire_d - resolve),
            ("queue", q_r),
            ("resolve", resolve),
            ("cache", lookup + churn + store),
            ("fed_knn", fed),
            ("similarity", sim),
            ("maximizer", max),
        ];
        let covered: f64 = parts.iter().map(|(_, v)| v).sum();
        for (name, v) in parts {
            *sums.entry(name).or_default() += v;
        }
        total_ms += l_r;
        residual_ms += (l_r - covered).abs();
        relay.push(relay_ms);
        wire.push(wire_d);
        queue.push(q_r);
        run.push(run_r);
        if r.status == "warm" {
            hit_ms.push(lookup);
        } else {
            miss_ms.push(lookup);
        }
        if r.status.starts_with("churn") {
            churn_ms.push(churn);
        }
        if r.status == "cold" {
            store_ms.push(store);
            entry_bytes.extend(r.entry_bytes.map(|b| b as f64));
        }
        if r.status != "cold" {
            warm_or_churn += 1;
        }
        if r.queries > 0 {
            fed_ms.push(fed / r.queries as f64);
            sim_ms.push(sim);
            max_ms.push(max);
            evals.push(r.gain_evals as f64);
        }
        enc += r.enc_instances;
        cand += r.candidates;
        queries += r.queries;
    }
    let n_traced = traced.len().max(1) as f64;
    let share = |name: &str| sums.get(name).copied().unwrap_or(0.0) / total_ms.max(1e-9);
    for (metric, name) in [
        ("layers.relay_share", "relay"),
        ("layers.wire_share", "wire"),
        ("layers.queue_share", "queue"),
        ("layers.resolve_share", "resolve"),
        ("layers.cache_share", "cache"),
        ("layers.fed_knn_share", "fed_knn"),
        ("layers.similarity_share", "similarity"),
        ("layers.maximizer_share", "maximizer"),
    ] {
        out.metric(metric, share(name));
    }
    out.metric("layers.unattributed_share", residual_ms / total_ms.max(1e-9));
    out.metric("router.relay_ms_p50", median(&relay));
    out.metric("serve.queue_ms_p50", median(&queue));
    out.metric("serve.run_ms_p50", median(&run));
    out.metric("serve.wire_ms_p50", median(&wire));
    out.metric("serve.busy_ratio", traced.iter().filter(|d| d.busy).count() as f64 / n_traced);
    out.metric("cache.lookup_hit_ms", mean(&hit_ms));
    out.metric("cache.lookup_miss_ms", mean(&miss_ms));
    out.metric("cache.churn_ms", mean(&churn_ms));
    out.metric("cache.store_ms", mean(&store_ms));
    out.metric("cache.entry_bytes", mean(&entry_bytes));
    out.metric("cache.hit_ratio", warm_or_churn as f64 / order.len().max(1) as f64);
    out.metric("fed_knn.query_ms", mean(&fed_ms));
    out.metric("fed_knn.enc_instances_per_query", enc as f64 / queries.max(1) as f64);
    out.metric("fed_knn.candidates_per_query", cand as f64 / queries.max(1) as f64);
    out.metric("similarity.ms", mean(&sim_ms));
    out.metric("maximizer.ms", mean(&max_ms));
    out.metric("maximizer.gain_evals", mean(&evals));
    let traced_ms: Vec<f64> = order.iter().map(|d| d.latency_ms).collect();
    out.metric("trace.overhead_ratio", median(&traced_ms) / median(untraced_ms).max(1e-9));

    // Fagin over the per-party ranked lists of a few traced requests.
    let mut fagin = Vec::new();
    for d in order.iter().take(4) {
        let world = registry.resolve(&d.req.dataset).expect("tenant");
        let ctx = ctx_of(&world, d.req.seed);
        let qs = selector(&d.req).query_rows(&ctx);
        fagin.push(fagin_layer(&ctx, &d.req.party_set, &qs, d.req.k));
    }
    out.metric("topk.fagin_ms_per_query", mean(&fagin.iter().map(|f| f.0).collect::<Vec<_>>()));
    out.metric(
        "topk.rows_consumed_per_query",
        mean(&fagin.iter().map(|f| f.1).collect::<Vec<_>>()),
    );

    // Net: ping round trips and the codec on this workload's frames.
    let mut c = Client::connect(tier.backend_addr(&owners[0])).expect("connect backend");
    let pings: Vec<f64> = (0..16)
        .map(|_| {
            let t0 = Instant::now();
            c.ping().expect("ping");
            ms(t0.elapsed())
        })
        .collect();
    out.metric("net.ping_rtt_ms_p50", median(&pings));
    if let Some(d) = order.first() {
        let req = Request::Select(d.req.clone());
        let resp = Response::Selected(d.reply.clone().expect("filtered"));
        let (enc_us, dec_us) = codec_us(&req, &resp);
        out.metric("net.encode_us", enc_us);
        out.metric("net.decode_us", dec_us);
        out.metric("net.request_bytes", (4 + req.encoded_len()) as f64);
        out.metric("net.reply_bytes", (4 + resp.encoded_len()) as f64);
    }
    out.note("traced_requests", order.len());
    out.note(
        "decomposition_ms_per_request",
        format!(
            "{:?}",
            sums.iter()
                .map(|(k, v)| (*k, (v / order.len().max(1) as f64 * 1e3).round() / 1e3))
                .collect::<Vec<_>>()
        ),
    );
    let _ = rec.write_json(&crate::common::work_root().join(format!(
        "spans/{}-seed{}.json",
        if p.kind == Kind::Hot { "serve-hot" } else { "serve-cold" },
        args.seed
    )));
}

/// Mean encode and decode time, in µs, of one request and one reply frame.
fn codec_us(req: &Request, resp: &Response) -> (f64, f64) {
    const REPS: u32 = 2_000;
    let t0 = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(std::hint::black_box(req).to_bytes());
        std::hint::black_box(std::hint::black_box(resp).to_bytes());
    }
    let enc = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    let (rb, pb) = (req.to_bytes(), resp.to_bytes());
    let t0 = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(Request::from_bytes(std::hint::black_box(&rb)).expect("decodes"));
        std::hint::black_box(Response::from_bytes(std::hint::black_box(&pb)).expect("decodes"));
    }
    let dec = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    (enc, dec)
}
