//! `party-he`: a coordinator `Hub` runs fed-KNN sessions against three
//! `vfps party` daemons over loopback TCP with real Paillier-2048 in Fagin
//! mode — the only workload that actually encrypts.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vfps_cluster::{
    run_cluster_knn_supervised, ClusterKnnReport, HubOptions, PartyConfig, SchemeSpec,
};
use vfps_core::selectors::SelectionContext;
use vfps_data::{prepared_sized, Dataset, DatasetSpec, Split, VerticalPartition};
use vfps_he::scheme::{AdditiveHe, PackedPaillier, PaillierHe, PlainHe};
use vfps_net::FaultPlan;
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::{run_threaded_knn_faulted, FaultedRun, KnnSession, ThreadedKnnRun};

use crate::common::{mix, ms, report_end_to_end, Args, Outcome, Recorder, StreamShape, Window};
use crate::replay::fagin_layer;

const DATASET: &str = "Rice";
const PARTIES: usize = 3;
const DATA_SEED: u64 = 7;
/// Fixed so that key generation does the same work in every run.
const KEY_SEED: u64 = 5;
const K: usize = 4;
/// Fagin mini-batch and HE batch size.
const BATCH: usize = 8;
const SETUP_REPEATS: usize = 5;

struct Params {
    rows: usize,
    key_bits: usize,
    queries_per_session: usize,
}

impl Params {
    fn new(tiny: bool) -> Params {
        if tiny {
            Params { rows: 64, key_bits: 256, queries_per_session: 1 }
        } else {
            Params { rows: 400, key_bits: 2048, queries_per_session: 16 }
        }
    }

    fn knn(&self) -> FedKnnConfig {
        FedKnnConfig { k: K, mode: KnnMode::Fagin, batch: BATCH, cost_scale: 1.0 }
    }

    /// Session `s`: its query rows and pseudo-ID shuffle seed.
    fn session(&self, seed: u64, s: u64, split: &Split) -> (Vec<usize>, u64) {
        let mut rows = split.train.clone();
        rows.shuffle(&mut StdRng::seed_from_u64(mix(seed, s)));
        rows.truncate(self.queries_per_session);
        (rows, mix(seed, 10_000 + s))
    }
}

fn opts() -> HubOptions {
    HubOptions {
        connect_timeout: Duration::from_secs(5),
        connect_budget: 20,
        connect_backoff: Duration::from_millis(25),
        io_timeout: Duration::from_secs(120),
        result_timeout: Duration::from_secs(120),
    }
}

struct World {
    ds: Dataset,
    split: Split,
    partition: VerticalPartition,
    he: Arc<PaillierHe>,
    addrs: Vec<String>,
}

/// Prepares the data, binds the three daemons and generates the
/// coordinator's key, `SETUP_REPEATS` times; keeps (and starts daemons on)
/// the last.
fn setup(p: &Params) -> (World, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // One world at a time, so the peak resident set holds one.
        drop(kept.take());
        let t0 = Instant::now();
        let spec = DatasetSpec::by_name(DATASET).expect("catalog dataset");
        let (ds, split) = prepared_sized(&spec, p.rows, DATA_SEED);
        let partition = VerticalPartition::random(ds.n_features(), PARTIES, DATA_SEED);
        let listeners: Vec<TcpListener> =
            (0..PARTIES).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind daemon")).collect();
        let he = Arc::new(PaillierHe::generate(p.key_bits, BATCH, KEY_SEED).expect("keygen"));
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((ds, split, partition, listeners, he));
    }
    let (ds, split, partition, listeners, he) = kept.expect("at least one setup");
    let addrs = listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    // The daemons serve until the process exits: a session count cannot be
    // known before a time-bounded run ends.
    for (party, listener) in listeners.into_iter().enumerate() {
        let (x, part) = (ds.x.clone(), partition.clone());
        std::thread::spawn(move || {
            let _ = vfps_cluster::serve_party(&listener, &x, &part, &PartyConfig::new(party));
        });
    }
    (World { ds, split, partition, he, addrs }, times)
}

/// One TCP session: the report, its wall time and the connect time
/// (`Hub::connect`, which includes keygen on every daemon).
fn tcp_session(
    p: &Params,
    w: &World,
    queries: &[usize],
    shuffle: u64,
) -> (ClusterKnnReport, Duration, Duration) {
    let parties: Vec<usize> = (0..PARTIES).collect();
    let session = KnnSession::new(&parties, &w.split.train, queries, p.knn(), shuffle);
    let scheme = SchemeSpec::paillier(p.key_bits, BATCH, KEY_SEED);
    let t0 = Instant::now();
    let mut connected = None;
    let report =
        run_cluster_knn_supervised(&w.he, &session, shuffle, scheme, &w.addrs, &opts(), |_| {
            connected = Some(Instant::now());
        })
        .expect("session setup");
    let wall = t0.elapsed();
    (report, wall, connected.map_or(wall, |c| c - t0))
}

fn sim_session<H: AdditiveHe + 'static>(
    p: &Params,
    w: &World,
    he: &Arc<H>,
    queries: &[usize],
    shuffle: u64,
) -> (FaultedRun, Duration) {
    let parties: Vec<usize> = (0..PARTIES).collect();
    let t0 = Instant::now();
    let run = run_threaded_knn_faulted(
        he,
        &w.ds.x,
        &w.partition,
        &parties,
        &w.split.train,
        queries,
        p.knn(),
        shuffle,
        &FaultPlan::default(),
    );
    (run, t0.elapsed())
}

fn complete(run: &FaultedRun) -> Option<&ThreadedKnnRun> {
    match run {
        FaultedRun::Complete(r) => Some(r),
        _ => None,
    }
}

pub fn run(args: &Args) -> Outcome {
    let p = Params::new(args.tiny);
    let mut out = Outcome::default();
    out.param("daemons", "in-process vfps party x3 + coordinator Hub (loopback TCP)");
    out.param("dataset", DATASET);
    out.param("rows", p.rows);
    out.param("parties", PARTIES);
    out.param("key_bits", p.key_bits);
    out.param("scheme", "paillier (packed)");
    out.param("mode", "fagin");
    out.param("k", K);
    out.param("batch", BATCH);
    out.param("queries_per_session", p.queries_per_session);
    out.param("clients", "1 closed-loop coordinator");

    let (w, setup_s) = setup(&p);
    let sessions: Vec<(Vec<usize>, u64)> =
        (0..8).map(|s| p.session(args.seed, s, &w.split)).collect();
    let bytes: Vec<Vec<u8>> = sessions
        .iter()
        .map(|(q, sh)| {
            q.iter().chain(std::iter::once(&(*sh as usize))).flat_map(|v| v.to_le_bytes()).collect()
        })
        .collect();
    out.stream = Some(StreamShape {
        ops: sessions.len() * p.queries_per_session,
        shape: format!(
            "parties={PARTIES} rows={} queries/session={} k={K}",
            p.rows, p.queries_per_session
        ),
        digest: crate::common::fnv64(&bytes.iter().map(Vec::as_slice).collect::<Vec<_>>()),
    });

    let window = if args.trace { args.window() / 2 } else { args.window() };
    let cpu0 = crate::common::cpu_seconds();
    let started = Instant::now();
    let mut per_query_ms = Vec::new();
    let mut first = None;
    let mut connects_ms = Vec::new();
    let mut s = 0u64;
    // Closed loop, whole sessions: a session starts only while at least
    // half of one still fits in the window.
    let mut last = Duration::ZERO;
    while started.elapsed() + last / 2 < window || s == 0 {
        let (queries, shuffle) = p.session(args.seed, s, &w.split);
        s += 1;
        let (report, wall, connect) = tcp_session(&p, &w, &queries, shuffle);
        last = wall;
        connects_ms.push(ms(connect).round());
        out.attempted += queries.len() as u64;
        match complete(&report.run) {
            Some(run) => {
                let per_query = ms(wall) / queries.len() as f64;
                per_query_ms.push(per_query);
                if first.is_none() {
                    first = Some((
                        queries,
                        shuffle,
                        run.outcomes.clone(),
                        run.total_messages,
                        per_query,
                    ));
                }
            }
            None => out.failed += queries.len() as u64,
        }
    }
    let wall = started.elapsed();
    let cpu_s = crate::common::cpu_seconds() - cpu0;
    let rss_mb = crate::common::peak_rss_mb();
    out.note("session_connect_ms", format!("{connects_ms:?}"));
    let ok_queries = out.attempted - out.failed;

    // Gate: the TCP outcomes equal the simulated backend's for the same
    // session (Paillier aggregation is arrival-order exact).
    if let Some((queries, shuffle, outcomes, messages, _)) = &first {
        let (sim, _) = sim_session(&p, &w, &w.he, queries, *shuffle);
        let same = complete(&sim)
            .is_some_and(|s| s.outcomes == *outcomes && s.total_messages == *messages);
        out.gate(same, || "TCP session outcomes differ from the sim backend".into());
    } else {
        out.gate(false, || "no party-he session completed".into());
    }

    if args.trace {
        if let Some((queries, shuffle, _, _, per_query)) = &first {
            layers(&p, args, &w, queries, *shuffle, *per_query, &mut out);
        }
    } else {
        let win = Window {
            latencies_ms: per_query_ms,
            ops: ok_queries,
            wall,
            cpu_s,
            peak_rss_mb: rss_mb,
        };
        report_end_to_end(&mut out, &setup_s, &win);
    }
    out
}

/// One timed HE call made during a simulated session.
struct Op {
    kind: usize,
    start: Instant,
    end: Instant,
    /// Ciphertexts (slot groups) the call produced or consumed.
    cts: usize,
    /// Values encrypted (encrypt calls only).
    values: usize,
}

const ENC: usize = 0;
const ADD: usize = 1;
const DEC: usize = 2;

/// Paillier with every encrypt / add / decrypt call timed and counted:
/// the protocol's HE layer measured from outside, through the trait it is
/// called through.
struct Counted {
    inner: Arc<PaillierHe>,
    ops: Mutex<Vec<Op>>,
}

impl Counted {
    /// Times `f`; `size` reads `(ciphertexts, values)` off its result.
    fn log<T>(
        &self,
        kind: usize,
        size: impl FnOnce(&T) -> (usize, usize),
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let v = f();
        let end = Instant::now();
        let (cts, values) = size(&v);
        self.ops.lock().expect("op log lock").push(Op { kind, start, end, cts, values });
        v
    }
}

/// `(ciphertexts, values)` of fresh encryptions.
fn enc_size<'a>(cts: impl Iterator<Item = &'a PackedPaillier>) -> (usize, usize) {
    cts.fold((0, 0), |(n, v), c| (n + c.groups().len(), v + c.count()))
}

impl AdditiveHe for Counted {
    type Ciphertext = PackedPaillier;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_batch(&self) -> usize {
        self.inner.max_batch()
    }

    fn encrypt(&self, values: &[f64]) -> vfps_he::Result<PackedPaillier> {
        self.log(
            ENC,
            |r: &vfps_he::Result<PackedPaillier>| {
                r.as_ref().map_or((0, 0), |c| enc_size([c].into_iter()))
            },
            || self.inner.encrypt(values),
        )
    }

    fn encrypt_many(&self, batches: &[&[f64]]) -> vfps_he::Result<Vec<PackedPaillier>> {
        self.log(
            ENC,
            |r: &vfps_he::Result<Vec<PackedPaillier>>| {
                r.as_ref().map_or((0, 0), |v| enc_size(v.iter()))
            },
            || self.inner.encrypt_many(batches),
        )
    }

    fn decrypt(&self, ct: &PackedPaillier, count: usize) -> Vec<f64> {
        let slots = self.inner.layout().slots().max(1);
        let cts = count.min(ct.count()).div_ceil(slots).min(ct.groups().len());
        self.log(DEC, |_: &Vec<f64>| (cts, 0), || self.inner.decrypt(ct, count))
    }

    fn add(&self, a: &PackedPaillier, b: &PackedPaillier) -> PackedPaillier {
        self.log(ADD, |c: &PackedPaillier| (c.groups().len(), 0), || self.inner.add(a, b))
    }

    fn ct_bytes(&self, ct: &PackedPaillier) -> usize {
        self.inner.ct_bytes(ct)
    }

    fn ct_to_bytes(&self, ct: &PackedPaillier) -> Vec<u8> {
        self.inner.ct_to_bytes(ct)
    }

    fn ct_from_bytes(&self, bytes: &[u8]) -> vfps_he::Result<PackedPaillier> {
        self.inner.ct_from_bytes(bytes)
    }

    fn error_bound(&self, terms: usize) -> f64 {
        self.inner.error_bound(terms)
    }
}

/// Wall time (ms) covered by the union of the given intervals.
fn union_ms(mut iv: Vec<(Instant, Instant)>) -> f64 {
    iv.sort_by_key(|&(s, _)| s);
    let mut total = Duration::ZERO;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    ms(total)
}

/// Per-op cost at the workload's key size: `(keygen s, encrypt ms/ct,
/// add µs/ct, decrypt ms/ct)`.
fn he_micro(p: &Params) -> (f64, f64, f64, f64) {
    let t0 = Instant::now();
    let he = PaillierHe::generate(p.key_bits, BATCH, KEY_SEED).expect("keygen");
    let keygen_s = t0.elapsed().as_secs_f64();
    let values: Vec<f64> = (0..BATCH).map(|i| 0.25 + i as f64).collect();
    const REPS: usize = 8;
    let t0 = Instant::now();
    let cts: Vec<PackedPaillier> =
        (0..REPS).map(|_| he.encrypt(std::hint::black_box(&values)).expect("encrypt")).collect();
    let n_ct: usize = cts.iter().map(|c| c.groups().len()).sum();
    let enc_ms = ms(t0.elapsed()) / n_ct as f64;
    let t0 = Instant::now();
    let mut adds = 0;
    for _ in 0..25 {
        for pair in cts.windows(2) {
            std::hint::black_box(he.add(&pair[0], &pair[1]));
            adds += pair[0].groups().len();
        }
    }
    let add_us = ms(t0.elapsed()) * 1e3 / adds as f64;
    let t0 = Instant::now();
    for c in &cts {
        std::hint::black_box(he.decrypt(c, BATCH));
    }
    let dec_ms = ms(t0.elapsed()) / n_ct as f64;
    (keygen_s, enc_ms, add_us, dec_ms)
}

/// The traced pass, on the inputs of the first untraced session, whose
/// per-query time `untraced_ms` is the base of `trace.overhead_ratio`.
fn layers(
    p: &Params,
    args: &Args,
    w: &World,
    queries: &[usize],
    shuffle: u64,
    untraced_ms: f64,
    out: &mut Outcome,
) {
    let mut rec = Recorder::new(Instant::now());
    let q = queries.len() as f64;

    let t_start = Instant::now();
    let (report, wall, connect) = tcp_session(p, w, queries, shuffle);
    rec.record("cluster.session", 1, None, t_start, t_start + wall);
    rec.record("cluster.connect", 1, Some(0), t_start, t_start + connect);
    out.attempted += queries.len() as u64;
    let Some(tcp) = complete(&report.run) else {
        out.failed += queries.len() as u64;
        out.gate(false, || "traced party-he session did not complete".into());
        return;
    };
    let stats = &report.stats;
    let frames: u64 = stats.per_party.iter().map(|l| l.frames_in + l.frames_out).sum();
    let bytes: u64 = stats.per_party.iter().map(|l| l.bytes_in + l.bytes_out).sum();

    let counted = Arc::new(Counted { inner: w.he.clone(), ops: Mutex::new(Vec::new()) });
    let t0 = Instant::now();
    let (sim, t_sim) = sim_session(p, w, &counted, queries, shuffle);
    rec.record("sim.paillier_session", 2, None, t0, t0 + t_sim);
    out.gate(complete(&sim).is_some_and(|s| s.outcomes == tcp.outcomes), || {
        "traced TCP session differs from the sim backend".into()
    });
    let plain = Arc::new(PlainHe::new(BATCH));
    let t0 = Instant::now();
    let (_, t_plain) = sim_session(p, w, &plain, queries, shuffle);
    rec.record("sim.plain_session", 3, None, t0, t0 + t_plain);

    let ops = std::mem::take(&mut *counted.ops.lock().expect("op log lock"));
    for o in &ops {
        rec.record(["he.encrypt", "he.add", "he.decrypt"][o.kind], 2, Some(2), o.start, o.end);
    }
    let kind_union =
        |k: usize| union_ms(ops.iter().filter(|o| o.kind == k).map(|o| (o.start, o.end)).collect());
    let cts = |k: usize| ops.iter().filter(|o| o.kind == k).map(|o| o.cts).sum::<usize>() as f64;
    let (enc_u, add_u, dec_u) = (kind_union(ENC), kind_union(ADD), kind_union(DEC));
    let he_u = union_ms(ops.iter().map(|o| (o.start, o.end)).collect());

    let (keygen_s, enc_ms, add_us, dec_ms) = he_micro(p);
    let (t_ms, t_run_ms, sim_ms, plain_ms) = (ms(wall), ms(wall - connect), ms(t_sim), ms(t_plain));
    let he_delta = (sim_ms - plain_ms).max(1e-9);
    let predicted = cts(ENC) * enc_ms + cts(ADD) * add_us / 1e3 + cts(DEC) * dec_ms;

    out.metric("he.keygen_s", keygen_s);
    out.metric("he.encrypt_ms_per_ct", enc_ms);
    out.metric("he.add_us_per_ct", add_us);
    out.metric("he.decrypt_ms_per_ct", dec_ms);
    out.metric("he.values_per_ct", counted.inner.layout().slots() as f64);
    out.metric("he.session_share", he_delta / sim_ms);
    out.metric("he.reconcile_ratio", predicted / he_delta);
    out.metric("cluster.connect_ms", ms(connect));
    out.metric("cluster.wire_share", (t_run_ms - sim_ms) / t_run_ms);
    out.metric("cluster.frames_per_query", frames as f64 / q);
    out.metric("cluster.bytes_per_query", bytes as f64 / q);
    out.metric("cluster.reconnects", stats.reconnects as f64);
    out.metric("cluster.kills_observed", stats.kills_observed as f64);
    out.metric("fed_knn.query_ms", sim_ms / q);
    let enc_values: usize = ops.iter().map(|o| o.values).sum();
    out.metric("fed_knn.enc_instances_per_query", enc_values as f64 / q);
    out.metric(
        "fed_knn.candidates_per_query",
        tcp.outcomes.iter().map(|o| o.candidates).sum::<usize>() as f64 / q,
    );
    // `Hub::connect` waits for each daemon's `Ready`, which follows that
    // daemon's key generation: the daemons' keygens run one after another
    // inside connect.
    let keygen_ms = (PARTIES as f64 * keygen_s * 1e3).min(ms(connect));
    out.metric("layers.he_keygen_share", keygen_ms / t_ms);
    out.metric("layers.connect_share", (ms(connect) - keygen_ms) / t_ms);
    out.metric("layers.he_encrypt_share", enc_u / t_ms);
    out.metric("layers.he_add_share", add_u / t_ms);
    out.metric("layers.he_decrypt_share", dec_u / t_ms);
    out.metric("layers.cluster_wire_share", (t_run_ms - sim_ms) / t_ms);
    // What neither connect, the wire nor an HE call covers: the protocol's
    // own plaintext work (local distances, the Fagin stream, top-k).
    out.metric("layers.unattributed_share", (sim_ms - he_u).abs() / t_ms);
    out.metric("trace.overhead_ratio", t_ms / q / untraced_ms.max(1e-9));

    let ctx = SelectionContext {
        ds: &w.ds,
        split: &w.split,
        partition: &w.partition,
        cost_scale: 1.0,
        seed: args.seed,
    };
    let parties: Vec<usize> = (0..PARTIES).collect();
    let (fagin_ms, rows) = fagin_layer(&ctx, &parties, queries, K);
    out.metric("topk.fagin_ms_per_query", fagin_ms);
    out.metric("topk.rows_consumed_per_query", rows);
    out.note(
        "he_op_counts",
        format!("encrypt {} cts, add {} cts, decrypt {} cts", cts(ENC), cts(ADD), cts(DEC)),
    );
    out.note(
        "session_ms",
        format!(
            "tcp {t_ms:.1} (connect {:.1}), sim paillier {sim_ms:.1}, sim plain {plain_ms:.1}",
            ms(connect)
        ),
    );
    let _ = rec.write_json(
        &crate::common::work_root().join(format!("spans/party-he-seed{}.json", args.seed)),
    );
}
