//! The CI bench-regression gate: diffs a freshly produced
//! `BENCH_selection.json` against the committed baseline
//! (`results/bench_baseline.json`).
//!
//! Comparison rules, per baseline leaf:
//!
//! * **exact** — booleans, strings, and every number that encodes *work*
//!   (encrypted instances, candidate counts, traffic bytes, query and
//!   thread counts, cache hit/miss tallies). These are deterministic
//!   outputs of the protocol; any drift is a real regression.
//! * **bounded** — `wall_seconds` / `wall_ms` leaves are wall-clock and
//!   may only regress by the (generous) tolerance factor:
//!   `current ≤ tolerance × max(baseline, floor)`. Getting *faster* never
//!   fails, and a small floor keeps sub-millisecond baselines from
//!   flagging noise.
//! * **skipped** — machine-dependent readings (`*_us` span totals,
//!   `speedup*`, `host_threads`, `reps_per_point`) carry no cross-machine
//!   meaning and are ignored.
//!
//! A key present in the baseline but missing from the current artifact is
//! always a failure (a silently dropped metric is a regression of the
//! gate itself); extra keys in the current artifact are allowed so new
//! metrics can land before the baseline is regenerated.

use vfps_obs::json::Value;

/// Default regression bound for wall-clock leaves: shared CI runners are
/// slow and noisy, so only order-of-magnitude blowups fail.
pub const DEFAULT_TOLERANCE: f64 = 100.0;

/// Wall-clock floor in seconds below which baselines are treated as this
/// value (sub-millisecond medians are dominated by scheduler noise).
const WALL_FLOOR_SECONDS: f64 = 0.05;

fn is_skipped(key: &str) -> bool {
    key.ends_with("_us")
        || key.contains("speedup")
        || key == "host_threads"
        || key == "reps_per_point"
        // bench-serve readings that depend on host speed and scheduler
        // timing: client-observed latency percentiles (p50_us/p95_us/
        // p99_us are covered by the `_us` rule), throughput, and how many
        // submits happened to trip admission control.
        || key.contains("throughput")
        || key.starts_with("busy_")
        || key == "serve_rejected"
}

fn wall_floor(key: &str) -> Option<f64> {
    match key {
        "wall_seconds" => Some(WALL_FLOOR_SECONDS),
        "wall_ms" => Some(WALL_FLOOR_SECONDS * 1e3),
        _ => None,
    }
}

/// Compares `current` against `baseline`, returning one message per
/// violation (empty = gate passes). `tolerance` bounds the wall-clock
/// leaves only; every other comparison is exact.
#[must_use]
pub fn compare(baseline: &Value, current: &Value, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    walk(baseline, current, "$", "", tolerance, &mut violations);
    violations
}

fn walk(
    baseline: &Value,
    current: &Value,
    path: &str,
    key: &str,
    tolerance: f64,
    out: &mut Vec<String>,
) {
    match (baseline, current) {
        (Value::Obj(bf), Value::Obj(_)) => {
            for (k, bv) in bf {
                match current.get(k) {
                    Some(cv) => walk(bv, cv, &format!("{path}.{k}"), k, tolerance, out),
                    None => out.push(format!("{path}.{k}: present in baseline, missing now")),
                }
            }
        }
        (Value::Arr(bi), Value::Arr(ci)) => {
            if ci.len() < bi.len() {
                out.push(format!(
                    "{path}: baseline has {} entries, current only {}",
                    bi.len(),
                    ci.len()
                ));
            }
            for (i, (bv, cv)) in bi.iter().zip(ci).enumerate() {
                walk(bv, cv, &format!("{path}[{i}]"), key, tolerance, out);
            }
        }
        (Value::Num(b), Value::Num(c)) => {
            if is_skipped(key) {
                return;
            }
            if let Some(floor) = wall_floor(key) {
                let bound = tolerance * b.max(floor);
                if *c > bound {
                    out.push(format!(
                        "{path}: wall-clock regression {c} > {tolerance} x max({b}, {floor})"
                    ));
                }
            } else if b != c {
                out.push(format!("{path}: expected {b}, got {c}"));
            }
        }
        (Value::Bool(b), Value::Bool(c)) if b == c => {}
        (Value::Str(b), Value::Str(c)) if b == c => {}
        (Value::Null, Value::Null) => {}
        (b, c) => out.push(format!("{path}: expected {b:?}, got {c:?}")),
    }
}

/// Loads both artifacts, runs [`compare`], and prints a verdict. Returns
/// the process exit code (0 = pass).
#[must_use]
pub fn run_bench_check(current_path: &str, baseline_path: &str, tolerance: f64) -> i32 {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        vfps_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = match load(baseline_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench-check: {e}");
            return 2;
        }
    };
    let current = match load(current_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench-check: {e}");
            return 2;
        }
    };
    let violations = compare(&baseline, &current, tolerance);
    if violations.is_empty() {
        println!(
            "bench-check: PASS — {current_path} matches {baseline_path} \
             (exact work counters, wall-clock within {tolerance}x)"
        );
        0
    } else {
        eprintln!("bench-check: FAIL — {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfps_obs::json::parse;

    const BASE: &str = r#"{
      "benchmark": "selection thread scaling",
      "host_threads": 16,
      "reps_per_point": 2,
      "per_phase_breakdown": {
        "queries": 8,
        "base": {"enc_instances": 1000, "bytes": 4096, "query_span_us": 120},
        "fagin": {"enc_instances": 400, "bytes": 2048, "query_span_us": 80},
        "fagin_undercuts_base": true
      },
      "serve_breakdown": {
        "clients": 8,
        "throughput_rps": 40.5,
        "busy_retries": 3,
        "serve_rejected": 2,
        "lost_responses": 0,
        "warm": {"count": 16, "p95_us": 900, "enc_instances": 0}
      },
      "stages": [
        {"stage": "s", "threads": 1, "wall_seconds": 0.2, "speedup_vs_1_thread": 1.0,
         "bit_identical_to_1_thread": true}
      ]
    }"#;

    #[test]
    fn identical_artifacts_pass() {
        let b = parse(BASE).unwrap();
        assert!(compare(&b, &b, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn work_counters_are_exact() {
        let b = parse(BASE).unwrap();
        let c = parse(&BASE.replace("\"enc_instances\": 400", "\"enc_instances\": 401")).unwrap();
        let v = compare(&b, &c, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("enc_instances"), "{v:?}");
        let c = parse(&BASE.replace("\"bytes\": 2048", "\"bytes\": 2049")).unwrap();
        assert_eq!(compare(&b, &c, DEFAULT_TOLERANCE).len(), 1);
    }

    #[test]
    fn wall_clock_is_bounded_not_exact() {
        let b = parse(BASE).unwrap();
        // 3x slower: within the generous default bound.
        let c = parse(&BASE.replace("\"wall_seconds\": 0.2", "\"wall_seconds\": 0.6")).unwrap();
        assert!(compare(&b, &c, DEFAULT_TOLERANCE).is_empty());
        // Past the bound: fails.
        let c = parse(&BASE.replace("\"wall_seconds\": 0.2", "\"wall_seconds\": 50.0")).unwrap();
        let v = compare(&b, &c, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("wall-clock regression"), "{v:?}");
        // Tighter explicit tolerance catches the 3x too.
        let c = parse(&BASE.replace("\"wall_seconds\": 0.2", "\"wall_seconds\": 0.9")).unwrap();
        assert_eq!(compare(&b, &c, 2.0).len(), 1);
    }

    #[test]
    fn machine_dependent_leaves_are_ignored() {
        let b = parse(BASE).unwrap();
        let c = parse(
            &BASE
                .replace("\"host_threads\": 16", "\"host_threads\": 4")
                .replace("\"query_span_us\": 80", "\"query_span_us\": 99999")
                .replace("\"speedup_vs_1_thread\": 1.0", "\"speedup_vs_1_thread\": 0.2"),
        )
        .unwrap();
        assert!(compare(&b, &c, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn serve_timing_keys_are_skipped_but_correctness_counters_are_exact() {
        let b = parse(BASE).unwrap();
        // Latency, throughput, and admission-timing keys float freely.
        let c = parse(
            &BASE
                .replace("\"throughput_rps\": 40.5", "\"throughput_rps\": 1.5")
                .replace("\"busy_retries\": 3", "\"busy_retries\": 70")
                .replace("\"serve_rejected\": 2", "\"serve_rejected\": 0")
                .replace("\"p95_us\": 900", "\"p95_us\": 123456"),
        )
        .unwrap();
        assert!(compare(&b, &c, DEFAULT_TOLERANCE).is_empty());
        // Losing a response or re-encrypting on the warm path still fails.
        let c = parse(&BASE.replace("\"lost_responses\": 0", "\"lost_responses\": 1")).unwrap();
        assert_eq!(compare(&b, &c, DEFAULT_TOLERANCE).len(), 1);
        let c = parse(&BASE.replace("\"enc_instances\": 0", "\"enc_instances\": 64")).unwrap();
        assert_eq!(compare(&b, &c, DEFAULT_TOLERANCE).len(), 1);
    }

    #[test]
    fn missing_keys_fail_and_extra_keys_pass() {
        let b = parse(BASE).unwrap();
        let c = parse(&BASE.replace("\"queries\": 8,", "")).unwrap();
        let v = compare(&b, &c, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("missing now"), "{v:?}");
        let c =
            parse(&BASE.replace("\"queries\": 8,", "\"queries\": 8, \"new_metric\": 1,")).unwrap();
        assert!(compare(&b, &c, DEFAULT_TOLERANCE).is_empty(), "extra keys are forward-compatible");
    }

    #[test]
    fn determinism_flags_are_load_bearing() {
        let b = parse(BASE).unwrap();
        let c = parse(&BASE.replace(
            "\"bit_identical_to_1_thread\": true",
            "\"bit_identical_to_1_thread\": false",
        ))
        .unwrap();
        assert_eq!(compare(&b, &c, DEFAULT_TOLERANCE).len(), 1);
    }

    #[test]
    fn shorter_stage_arrays_fail() {
        let b = parse(BASE).unwrap();
        let c = parse(&BASE.replace(
            "\"stages\": [\n        {\"stage\": \"s\", \"threads\": 1, \"wall_seconds\": 0.2, \"speedup_vs_1_thread\": 1.0,\n         \"bit_identical_to_1_thread\": true}\n      ]",
            "\"stages\": []",
        ))
        .unwrap();
        let v = compare(&b, &c, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("entries"), "{v:?}");
    }
}
