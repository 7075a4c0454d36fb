//! Layer-by-layer replay of one VFPS-SM selection.
//!
//! The served path (`vfps_core::select_with_cache` inside a daemon) and the
//! pipeline's selection step run as single calls, so their inner layers
//! cannot be timed from outside. The replay makes the same calls into the
//! same public functions, one layer at a time, each under its own span:
//! cache lookup / churn / store (`vfps-cache`, `vfps-core::incremental`),
//! the fed-KNN batch (`vfps-vfl`), the similarity accumulator and the
//! submodular maximizer (`vfps-core`). Its chosen set and scores must be
//! bit-identical to the served reply, which doubles as a correctness gate.

use std::collections::HashMap;

use vfps_cache::{ArtifactCache, CacheEntry, ChurnKind};
use vfps_core::cached::cache_key;
use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_core::{
    CacheStatus, IncrementalConsortium, KnnSubmodular, Maximizer, SimilarityAccumulator,
    TenantContext,
};
use vfps_net::cost::{CostModel, OpLedger};
use vfps_topk::{fagin::fagin_topk, Direction, RankedList};
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, QueryOutcome};

use crate::common::Recorder;

/// What one replayed selection produced.
pub struct Replayed {
    pub chosen: Vec<usize>,
    pub scores: Vec<f64>,
    pub status: String,
    pub enc_instances: u64,
    pub candidates: usize,
    pub queries: usize,
    pub gain_evals: usize,
    /// Size of the entry written on a cold path.
    pub entry_bytes: Option<u64>,
}

/// The artifacts of a full (or memo-served) selection run.
struct EngineRun {
    replayed: Replayed,
    outcomes: Vec<QueryOutcome>,
    similarity: Vec<Vec<f64>>,
    ledger: OpLedger,
    candidates_per_query: f64,
}

/// `VfpsSmSelector::run_over` for a fault-free, noise-free selector, one
/// layer per span.
#[allow(clippy::too_many_arguments)]
fn engine(
    rec: &mut Recorder,
    req: u64,
    parent: Option<usize>,
    ctx: &SelectionContext<'_>,
    sel: &VfpsSmSelector,
    party_set: &[usize],
    count: usize,
    memo: Option<&HashMap<usize, QueryOutcome>>,
) -> EngineRun {
    let parties = party_set.to_vec();
    let queries = sel.query_rows(ctx);
    let mut ledger = OpLedger::default();
    let cfg =
        FedKnnConfig { k: sel.k, mode: sel.mode, batch: sel.batch, cost_scale: ctx.cost_scale };
    let outcomes = rec.time("fed_knn.query_batch", req, parent, || {
        let engine = FedKnn::new(&ctx.ds.x, ctx.partition, &parties, &ctx.split.train, cfg);
        match memo {
            Some(m) => engine.query_batch_memo(&queries, m, vfps_par::global(), &mut ledger),
            None => engine.query_batch(&queries, vfps_par::global(), &mut ledger),
        }
    });
    let w = rec.time("similarity", req, parent, || {
        let counts = parties.iter().map(|&p| ctx.partition.columns(p).len()).collect();
        let mut acc = SimilarityAccumulator::new(parties.len()).with_feature_counts(counts);
        for o in &outcomes {
            acc.add_query(o).expect("fault-free outcomes have full width");
        }
        acc.finish()
    });
    let similarity = w.clone();
    let (f, (chosen_local, gain_evals)) = rec.time("maximizer", req, parent, || {
        let f = KnnSubmodular::new(w);
        let picked =
            f.maximize(count.min(parties.len()), sel.maximizer, ctx.seed, vfps_par::global());
        (f, picked)
    });
    let mut scores = vec![0.0; ctx.parties()];
    let mut best = vec![0.0f64; parties.len()];
    for &v in &chosen_local {
        scores[parties[v]] = f.gain(&best, v);
        for (p, b) in best.iter_mut().enumerate() {
            *b = b.max(f.similarity(p, v));
        }
    }
    let candidates: usize = outcomes.iter().map(|o| o.candidates).sum();
    EngineRun {
        replayed: Replayed {
            chosen: chosen_local.iter().map(|&v| parties[v]).collect(),
            scores,
            status: String::new(),
            enc_instances: ledger.enc.work,
            candidates,
            queries: queries.len(),
            gain_evals,
            entry_bytes: None,
        },
        candidates_per_query: candidates as f64 / queries.len().max(1) as f64,
        outcomes,
        similarity,
        ledger,
    }
}

/// A plain (uncached) selection: what `Selector::select` runs.
pub fn replay_select(
    rec: &mut Recorder,
    req: u64,
    parent: Option<usize>,
    ctx: &SelectionContext<'_>,
    sel: &VfpsSmSelector,
    count: usize,
) -> Replayed {
    let parties: Vec<usize> = (0..ctx.parties()).collect();
    let mut r = engine(rec, req, parent, ctx, sel, &parties, count, None).replayed;
    r.status = "uncached".into();
    r
}

/// `vfps_core::select_with_cache` for a fault-free, noise-free selector:
/// warm, churn and cold paths, one layer per span.
#[allow(clippy::too_many_arguments)]
pub fn replay_cached(
    rec: &mut Recorder,
    req: u64,
    parent: Option<usize>,
    cache: &ArtifactCache,
    sel: &VfpsSmSelector,
    ctx: &SelectionContext<'_>,
    party_set: &[usize],
    count: usize,
    cost_model: &CostModel,
    tc: &TenantContext<'_>,
) -> Replayed {
    let key = cache_key(sel, ctx, party_set, cost_model, tc);
    if let Ok(Some(entry)) = rec.time("cache.lookup", req, parent, || cache.lookup(&key)) {
        let memo: HashMap<usize, QueryOutcome> =
            entry.key.queries.iter().copied().zip(entry.outcomes.iter().cloned()).collect();
        let mut r = engine(rec, req, parent, ctx, sel, party_set, count, Some(&memo)).replayed;
        r.status = CacheStatus::Warm.to_string();
        return r;
    }
    if matches!(sel.maximizer, Maximizer::Greedy | Maximizer::Lazy) {
        let churned = rec.time("cache.churn", req, parent, || {
            let (entry, kind) = cache.lookup_churn(&key).ok().flatten()?;
            let mut inc = IncrementalConsortium::from_outcomes(
                &entry.key.party_set,
                ctx.partition,
                &entry.key.queries,
                &entry.outcomes,
            );
            let status = match kind {
                ChurnKind::Join(p) => {
                    inc.join(p, &ctx.ds.x, ctx.partition);
                    CacheStatus::ChurnJoin(p)
                }
                ChurnKind::Leave(p) => {
                    inc.leave(p);
                    CacheStatus::ChurnLeave(p)
                }
            };
            let scored = inc.select_scored(count.min(inc.parties().len()));
            Some((scored, status))
        });
        if let Some((scored, status)) = churned {
            let mut scores = vec![0.0; ctx.parties()];
            for &(p, gain) in &scored {
                scores[p] = gain;
            }
            return Replayed {
                chosen: scored.iter().map(|&(p, _)| p).collect(),
                scores,
                status: status.to_string(),
                enc_instances: 0,
                candidates: 0,
                queries: 0,
                gain_evals: 0,
                entry_bytes: None,
            };
        }
    }
    let run = engine(rec, req, parent, ctx, sel, party_set, count, None);
    let mut r = run.replayed;
    let entry = CacheEntry {
        key,
        outcomes: run.outcomes,
        similarity: run.similarity,
        chosen: r.chosen.clone(),
        scores: r.scores.clone(),
        candidates_per_query: run.candidates_per_query,
        ledger: run.ledger,
    };
    let stored = rec.time("cache.store", req, parent, || cache.store(&entry));
    r.entry_bytes = stored.ok().and_then(|p| std::fs::metadata(p).ok()).map(|m| m.len());
    r.status = CacheStatus::Cold.to_string();
    r
}

/// Runs Fagin's algorithm (`vfps_topk::fagin::fagin_topk`) over each
/// query's per-party ranked partial-distance lists. Returns
/// `(ms per query, rows consumed per query)`; only the Fagin call is timed.
pub fn fagin_layer(
    ctx: &SelectionContext<'_>,
    party_set: &[usize],
    queries: &[usize],
    k: usize,
) -> (f64, f64) {
    let db = &ctx.split.train;
    let mut total_ms = 0.0;
    let mut rows = 0usize;
    for &q in queries {
        let mut lists: Vec<RankedList> = party_set
            .iter()
            .map(|&p| {
                let cols = ctx.partition.columns(p);
                let scores = db
                    .iter()
                    .map(|&r| {
                        if r == q {
                            f64::INFINITY
                        } else {
                            cols.iter()
                                .map(|&c| {
                                    let d = ctx.ds.x.get(q, c) - ctx.ds.x.get(r, c);
                                    d * d
                                })
                                .sum()
                        }
                    })
                    .collect();
                RankedList::from_scores(scores, Direction::Ascending)
            })
            .collect();
        let started = std::time::Instant::now();
        let out = std::hint::black_box(fagin_topk(&mut lists, k));
        total_ms += started.elapsed().as_secs_f64() * 1e3;
        rows += out.depth * lists.len();
    }
    let n = queries.len().max(1) as f64;
    (total_ms / n, rows as f64 / n)
}
