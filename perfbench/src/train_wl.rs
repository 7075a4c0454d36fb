//! `select-train`: the paper's select-then-train pipeline (`run_pipeline`,
//! VFPS-SM) in process over a fixed list of datasets × {LR, MLP} — the only
//! workload that exercises `vfps-data` generation and `vfps-ml` training.

use std::time::Instant;

use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_core::{run_pipeline, Method, PipelineConfig, RunReport};
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_vfl::split_train::{train_downstream, Downstream};

use crate::common::{
    mean, median, mix, ms, report_end_to_end, Args, Outcome, Recorder, StreamShape, Window,
};
use crate::replay::{fagin_layer, replay_select, Replayed};

const DATASETS: [&str; 3] = ["Bank", "Rice", "Credit"];
const MODELS: [Downstream; 2] = [Downstream::Lr, Downstream::Mlp];
const SETUP_REPEATS: usize = 5;

/// One pipeline of the list: dataset, model and seed.
#[derive(Clone)]
struct Job {
    spec: DatasetSpec,
    model: Downstream,
    seed: u64,
    instances: usize,
}

fn jobs(seed: u64, cycle: u64, tiny: bool) -> Vec<Job> {
    let mut out = Vec::new();
    for (d, name) in DATASETS.iter().enumerate() {
        let spec = DatasetSpec::by_name(name).expect("catalog dataset");
        for (m, &model) in MODELS.iter().enumerate() {
            let instances = if tiny { 120 } else { spec.sim_instances };
            let salt = cycle * 64 + (d * MODELS.len() + m) as u64;
            out.push(Job { spec: spec.clone(), model, seed: mix(seed, salt), instances });
        }
    }
    out
}

fn config(job: &Job) -> PipelineConfig {
    PipelineConfig { sim_instances: Some(job.instances), ..PipelineConfig::default() }
}

fn selector(cfg: &PipelineConfig) -> VfpsSmSelector {
    VfpsSmSelector {
        k: cfg.knn_k,
        query_count: cfg.query_count,
        batch: cfg.batch,
        maximizer: cfg.maximizer,
        ..VfpsSmSelector::default()
    }
}

/// `run_pipeline` replayed layer by layer under spans: the selection and
/// the downstream accuracy.
fn replay(rec: &mut Recorder, req: u64, job: &Job) -> (Replayed, f64) {
    let cfg = config(job);
    let root = rec.enter("pipeline", req, None);
    let (ds, split, partition) = rec.time("data.prepare", req, Some(root), || {
        let (ds, split) = prepared_sized(&job.spec, job.instances, job.seed);
        let partition = VerticalPartition::random(ds.n_features(), cfg.parties, job.seed);
        (ds, split, partition)
    });
    let cost_scale = job.spec.paper_instances as f64 / job.instances as f64;
    let ctx = SelectionContext {
        ds: &ds,
        split: &split,
        partition: &partition,
        cost_scale,
        seed: job.seed,
    };
    let r = replay_select(rec, req, Some(root), &ctx, &selector(&cfg), cfg.select);
    let acc = rec.time("train", req, Some(root), || {
        train_downstream(
            &ds, &split, &partition, &r.chosen, job.model, &cfg.train, cost_scale, job.seed,
        )
        .accuracy
    });
    rec.exit(root);
    (r, acc)
}

/// Runs whole cycles of the list until `window` has passed.
fn drive(
    seed: u64,
    tiny: bool,
    window: std::time::Duration,
    first_cycle: u64,
) -> (Vec<(Job, RunReport, f64)>, std::time::Duration) {
    let started = Instant::now();
    let mut done = Vec::new();
    let mut cycle = first_cycle;
    while started.elapsed() < window || done.is_empty() {
        for job in jobs(seed, cycle, tiny) {
            let t0 = Instant::now();
            let report =
                run_pipeline(&job.spec, Method::VfpsSm, job.model, &config(&job), job.seed);
            done.push((job, report, ms(t0.elapsed())));
        }
        cycle += 1;
    }
    (done, started.elapsed())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = PipelineConfig::default();
    out.param("daemons", "none (in process)");
    out.param("datasets", DATASETS.join("+"));
    out.param("models", "LR+MLP");
    out.param("rows", if args.tiny { "120".to_owned() } else { "catalog sim size".to_owned() });
    out.param("parties", cfg.parties);
    out.param("select", cfg.select);
    out.param("queries", cfg.query_count);
    out.param("k", cfg.knn_k);
    out.param("method", "VFPS-SM (fagin, greedy)");
    out.param("clients", "1 closed-loop, whole cycles of the list");
    let first = jobs(args.seed, 0, args.tiny);
    let bytes: Vec<Vec<u8>> = first.iter().map(|j| j.seed.to_le_bytes().to_vec()).collect();
    out.stream = Some(StreamShape {
        ops: first.len(),
        shape: format!("datasets={} models={}", DATASETS.join("+"), MODELS.len()),
        digest: crate::common::fnv64(&bytes.iter().map(Vec::as_slice).collect::<Vec<_>>()),
    });

    // Set-up: one warm-up pass over the list (data generation, thread
    // pool and allocator warm-up), on seeds the measured window never uses.
    let setup_s: Vec<f64> = (0..SETUP_REPEATS)
        .map(|rep| {
            let t0 = Instant::now();
            for job in jobs(args.seed, 1 << 20 | rep as u64, args.tiny) {
                std::hint::black_box(run_pipeline(
                    &job.spec,
                    Method::VfpsSm,
                    job.model,
                    &config(&job),
                    job.seed,
                ));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let window = if args.trace { args.window() / 2 } else { args.window() };
    let cpu0 = crate::common::cpu_seconds();
    let (done, wall) = drive(args.seed, args.tiny, window, 0);
    let cpu_s = crate::common::cpu_seconds() - cpu0;
    let rss_mb = crate::common::peak_rss_mb();
    out.attempted = done.len() as u64;
    // One latency sample per pass over the list: the mean pipeline time of
    // that pass. Per-pipeline samples mix six differently sized jobs, and
    // their median jumps between those modes from run to run.
    let latencies: Vec<f64> = done
        .chunks(first.len())
        .map(|c| c.iter().map(|d| d.2).sum::<f64>() / c.len() as f64)
        .collect();
    let per_job: Vec<String> = first
        .iter()
        .enumerate()
        .map(|(j, job)| {
            let per: Vec<f64> = done.iter().skip(j).step_by(first.len()).map(|d| d.2).collect();
            format!("{} {} {:.2}", job.spec.name, job.model.name(), median(&per))
        })
        .collect();
    out.note("pipeline_p50_ms", per_job.join(", "));

    // Gate: the first cycle's chosen sets and accuracies equal a
    // step-by-step run of the same pipeline through the public layers.
    let mut scratch = Recorder::new(Instant::now());
    for (job, report, _) in done.iter().take(first.len()) {
        let (r, acc) = replay(&mut scratch, 0, job);
        out.gate(r.chosen == report.chosen && acc.to_bits() == report.accuracy.to_bits(), || {
            format!(
                "{} {}: run_pipeline differs from its layer replay",
                job.spec.name,
                job.model.name()
            )
        });
    }

    if args.trace {
        layers(args, &done, &latencies, &mut out);
    } else {
        let w = Window {
            latencies_ms: latencies,
            ops: done.len() as u64,
            wall,
            cpu_s,
            peak_rss_mb: rss_mb,
        };
        report_end_to_end(&mut out, &setup_s, &w);
    }
    out
}

fn layers(args: &Args, untraced: &[(Job, RunReport, f64)], untraced_ms: &[f64], out: &mut Outcome) {
    let mut rec = Recorder::new(Instant::now());
    let started = Instant::now();
    let window = args.window() / 2;
    let mut cycle = 1 << 10;
    let mut n = 0u64;
    let (mut enc, mut enc_queries, mut evals) = (0u64, 0usize, Vec::new());
    while started.elapsed() < window || n == 0 {
        for job in jobs(args.seed, cycle, args.tiny) {
            n += 1;
            out.attempted += 1;
            let (r, _) = replay(&mut rec, n, &job);
            enc += r.enc_instances;
            enc_queries += r.queries;
            evals.push(r.gain_evals as f64);
        }
        cycle += 1;
    }
    let total: f64 = rec.durations("pipeline").iter().sum();
    let share = |name: &str| rec.self_total(name) / total.max(1e-9);
    out.metric("layers.data_share", share("data.prepare"));
    out.metric("layers.fed_knn_share", share("fed_knn.query_batch"));
    out.metric("layers.similarity_share", share("similarity"));
    out.metric("layers.maximizer_share", share("maximizer"));
    out.metric("layers.train_share", share("train"));
    out.metric("layers.unattributed_share", share("pipeline"));
    out.metric("data.prepare_ms", mean(&rec.durations("data.prepare")));
    out.metric("train.ms", mean(&rec.durations("train")));
    let queries = PipelineConfig::default().query_count as f64;
    out.metric("fed_knn.query_ms", mean(&rec.durations("fed_knn.query_batch")) / queries);
    out.metric("similarity.ms", mean(&rec.durations("similarity")));
    out.metric("maximizer.ms", mean(&rec.durations("maximizer")));
    out.metric(
        "trace.overhead_ratio",
        median(&rec.durations("pipeline")) / median(untraced_ms).max(1e-9),
    );

    // Selection-phase counters and the paper's guardrails, from the
    // untraced `run_pipeline` reports.
    let reports: Vec<&RunReport> = untraced.iter().map(|d| &d.1).collect();
    out.metric(
        "fed_knn.candidates_per_query",
        mean(&reports.iter().map(|r| r.candidates_per_query).collect::<Vec<_>>()),
    );
    out.metric(
        "pipeline.sim_selection_s",
        mean(&reports.iter().map(|r| r.selection_seconds).collect::<Vec<_>>()),
    );
    out.metric(
        "pipeline.sim_training_s",
        mean(&reports.iter().map(|r| r.training_seconds).collect::<Vec<_>>()),
    );
    out.metric(
        "pipeline.accuracy_mean",
        mean(&reports.iter().map(|r| r.accuracy).collect::<Vec<_>>()),
    );

    out.metric("fed_knn.enc_instances_per_query", enc as f64 / enc_queries.max(1) as f64);
    out.metric("maximizer.gain_evals", mean(&evals));

    // Fagin over the ranked lists of one selection per dataset.
    let (mut fagin_ms, mut rows) = (Vec::new(), Vec::new());
    for job in jobs(args.seed, 0, args.tiny).iter().step_by(MODELS.len()) {
        let cfg = config(job);
        let (ds, split) = prepared_sized(&job.spec, job.instances, job.seed);
        let partition = VerticalPartition::random(ds.n_features(), cfg.parties, job.seed);
        let cost_scale = job.spec.paper_instances as f64 / job.instances as f64;
        let ctx = SelectionContext {
            ds: &ds,
            split: &split,
            partition: &partition,
            cost_scale,
            seed: job.seed,
        };
        let sel = selector(&cfg);
        let parties: Vec<usize> = (0..cfg.parties).collect();
        let (f, c) = fagin_layer(&ctx, &parties, &sel.query_rows(&ctx), sel.k);
        fagin_ms.push(f);
        rows.push(c);
    }
    out.metric("topk.fagin_ms_per_query", mean(&fagin_ms));
    out.metric("topk.rows_consumed_per_query", mean(&rows));
    out.note("traced_pipelines", n);
    let _ = rec.write_json(
        &crate::common::work_root().join(format!("spans/select-train-seed{}.json", args.seed)),
    );
}
