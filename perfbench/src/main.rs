//! The repository's benchmark: four workloads, from a selection request
//! down to a 2048-bit decrypt, measured end to end (`--trace 0`) and layer
//! by layer (`--trace 1`). See `perfbench/README.md`; run it through
//! `python3 perfbench/run.py`, which builds this binary first.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod common;
mod party_wl;
mod replay;
mod serve_wl;
mod train_wl;

use common::{json_num, json_obj, json_str, Args, Outcome, END_TO_END, PER_LAYER};

fn host_fingerprint(args: &Args) -> Vec<(&'static str, String)> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", std::thread::available_parallelism().map_or(0, usize::from).to_string()),
        ("cpu_model", cpu),
        ("kernel", read("/proc/sys/kernel/osrelease").trim().to_owned()),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("git_commit", env("PERFBENCH_GIT_COMMIT")),
    ]
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve-hot|serve-cold|party-he|select-train \
                 --seed N --seconds S --trace 0|1 [--tiny]"
            );
            std::process::exit(2);
        }
    };
    let out: Outcome = match args.workload.as_str() {
        "serve-hot" => serve_wl::run(serve_wl::Kind::Hot, &args),
        "serve-cold" => serve_wl::run(serve_wl::Kind::Cold, &args),
        "party-he" => party_wl::run(&args),
        "select-train" => train_wl::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let strs = |pairs: &[(&str, String)]| -> String {
        json_obj(&pairs.iter().map(|(k, v)| (*k, json_str(v))).collect::<Vec<_>>())
    };
    let mut fingerprint = host_fingerprint(&args);
    fingerprint.extend(out.params.iter().cloned());
    println!("fingerprint: {}", strs(&fingerprint));
    if let Some(s) = &out.stream {
        println!(
            "stream: {}",
            json_obj(&[
                ("ops", s.ops.to_string()),
                ("shape", json_str(&s.shape)),
                ("digest", json_str(&format!("{:016x}", s.digest))),
            ])
        );
    }
    let mut notes = out.notes.clone();
    notes.push(("failed_ratio", format!("{:.6}", out.failed as f64 / out.attempted.max(1) as f64)));
    println!("summary: {}", strs(&notes));
    for g in &out.gate_failures {
        eprintln!("perfbench: correctness gate failed: {g}");
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<(&str, String)> = table
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |m| m.1);
            (name, json_obj(&[("value", json_num(value)), ("unit", json_str(unit))]))
        })
        .collect();
    for (name, _) in &out.metrics {
        assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not in the table");
    }
    let correct = out.gate_failures.is_empty() && out.attempted > 0;
    println!(
        "{}",
        json_obj(&[
            ("correct", correct.to_string()),
            ("attempted", out.attempted.to_string()),
            ("failed", out.failed.to_string()),
            ("metrics", json_obj(&metrics)),
        ])
    );
}
