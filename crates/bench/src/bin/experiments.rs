//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run --release -p vfps-bench --bin experiments -- <id> [--runs N] [--quick] [--cached]
//! cargo run --release -p vfps-bench --bin experiments -- bench-check [--current F] [--baseline F] [--tolerance N]
//!
//! ids: table1 tables45 fig4 fig5 fig6 fig7 fig8 fig9
//!      ablation-batch ablation-scheme ablation-dp ablation-maximizer ablation-noise ablation-topk breakdown calibrate all
//! ```

use vfps_bench::experiments::{
    ablation_batch, ablation_dp, ablation_maximizer, ablation_noise, ablation_scheme,
    ablation_topk, bench_selection, breakdown, calibrate, fig4, fig5, fig6, fig7, fig8, fig9,
    table1, tables_4_and_5, ExpConfig,
};
use vfps_serve::Flags;

/// One experiment: renders its table or figure for a configuration.
type Experiment = fn(&ExpConfig) -> String;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = args.first().map_or("", String::as_str);
    let mut flags = Flags::new(args.get(1..).unwrap_or_default());

    // `bench-check` is the CI regression gate, not an experiment: it diffs
    // a fresh BENCH_selection.json against the committed baseline and
    // exits non-zero on regression.
    if sub == "bench-check" {
        let mut current = "BENCH_selection.json".to_owned();
        let mut baseline = "results/bench_baseline.json".to_owned();
        let mut tolerance = vfps_bench::check::DEFAULT_TOLERANCE;
        while let Some(arg) = flags.next() {
            match arg {
                "--current" => current = or_usage(flags.value(arg)),
                "--baseline" => baseline = or_usage(flags.value(arg)),
                "--tolerance" => tolerance = or_usage(flags.parse(arg)),
                other => usage(&format!("unexpected argument {other}")),
            }
        }
        std::process::exit(vfps_bench::check::run_bench_check(&current, &baseline, tolerance));
    }

    // `bench-serve` drives the selection service under concurrent load; it
    // has its own flags (`--clients`, `--addr`) so it is dispatched before
    // the generic experiment ids.
    if sub == "bench-serve" {
        let mut cfg = vfps_bench::serve::ServeBenchConfig::default();
        while let Some(arg) = flags.next() {
            match arg {
                "--quick" => cfg.quick = true,
                "--clients" => cfg.clients = or_usage(flags.parse(arg)),
                "--addr" => cfg.addr = Some(or_usage(flags.value(arg))),
                "--router" => cfg.router = true,
                other => usage(&format!("unexpected argument {other}")),
            }
        }
        if cfg.router {
            println!("{}", vfps_bench::serve::bench_serve_router(&cfg));
        } else {
            println!("{}", vfps_bench::serve::bench_serve(&cfg));
        }
        return;
    }

    // `bench-cluster` runs the fed-KNN session over real sockets vs the
    // simulated cluster and times both, plus a mid-batch kill run.
    if sub == "bench-cluster" {
        let mut cfg = vfps_bench::cluster::ClusterBenchConfig::default();
        while let Some(arg) = flags.next() {
            match arg {
                "--quick" => cfg.quick = true,
                "--addrs" => {
                    cfg.addrs =
                        Some(or_usage(flags.value(arg)).split(',').map(str::to_owned).collect());
                }
                other => usage(&format!("unexpected argument {other}")),
            }
        }
        println!("{}", vfps_bench::cluster::bench_cluster(&cfg));
        return;
    }

    let mut id: Option<String> = None;
    let mut cfg = ExpConfig::default();
    let mut flags = Flags::new(&args);
    while let Some(arg) = flags.next() {
        match arg {
            "--quick" => cfg.quick = true,
            "--cached" => cfg.cached = true,
            "--runs" => cfg.runs = or_usage(flags.parse(arg)),
            other if id.is_none() => id = Some(other.to_owned()),
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    let id = id.unwrap_or_else(|| usage("missing experiment id"));

    // In `all` order. `tables45` also answers to `table4` and `table5`.
    let experiments: [(&str, Experiment); 16] = [
        ("table1", table1),
        ("tables45", tables_4_and_5),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("ablation-batch", ablation_batch),
        ("ablation-scheme", ablation_scheme),
        ("ablation-dp", ablation_dp),
        ("breakdown", breakdown),
        ("ablation-maximizer", ablation_maximizer),
        ("ablation-noise", ablation_noise),
        ("ablation-topk", ablation_topk),
        ("bench-selection", bench_selection),
    ];
    let mut ran = false;
    for (name, experiment) in experiments {
        let alias = name == "tables45" && (id == "table4" || id == "table5");
        if id == name || id == "all" || alias {
            println!("{}", experiment(&cfg));
            ran = true;
        }
    }
    if id == "calibrate" || id == "all" {
        println!("{}", calibrate());
        ran = true;
    }
    if !ran {
        usage(&format!("unknown experiment id {id}"));
    }
}

/// A flag's value, or the usage text (with the error naming the flag) and
/// exit code 2.
fn or_usage<T>(value: Result<T, String>) -> T {
    value.unwrap_or_else(|e| usage(&e))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments <id> [--runs N] [--quick] [--cached]\n\
         \x20      experiments bench-check [--current F] [--baseline F] [--tolerance N]\n\
         \x20      experiments bench-serve [--quick] [--clients N] [--addr host:port] [--router]\n\
         \x20      experiments bench-cluster [--quick] [--addrs h:p,h:p,h:p]\n\
         ids: table1 tables45 fig4 fig5 fig6 fig7 fig8 fig9\n\
         \x20    ablation-batch ablation-scheme ablation-dp ablation-maximizer ablation-noise ablation-topk breakdown bench-selection calibrate all\n\
         --cached additionally exercises the selection-artifact cache in bench-selection;\n\
         bench-check diffs BENCH_selection.json against results/bench_baseline.json;\n\
         bench-serve load-tests the selection service across two dataset tenants\n\
         (in-process, or --addr for a daemon started with --max-tenants >= 2);\n\
         with --router the workload runs through a vfps-router tier over two daemons\n\
         (in-process, or --addr for a running router whose backends share a --cache-dir)\n\
         and adds a mid-load backend drain plus bit-identity checks against a direct daemon;\n\
         bench-cluster times the fed-KNN protocol over real TCP daemons vs the simulated\n\
         cluster (bit-identity asserted) plus a mid-batch kill run, merging a\n\
         cluster_breakdown section into BENCH_selection.json"
    );
    std::process::exit(2)
}
