#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced with tiny
inputs and checks that
  * the result line has exactly the keys correct/attempted/failed/metrics,
    every gate passed and nothing failed;
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is emitted with its unit, and nothing else is;
  * every end-to-end metric, and every per-layer metric of a layer the
    workload exercises (APPLIES below), is non-zero;
  * a second seed yields a different request stream with the same shape.
Exits non-zero on the first failure.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = "2"

SERVE = [
    "router.owner_ratio", "serve.run_ms_p50", "serve.wire_ms_p50", "serve.tenant_resolve_ms",
    "net.ping_rtt_ms_p50", "net.encode_us", "net.decode_us", "net.request_bytes",
    "net.reply_bytes", "fed_knn.query_ms", "fed_knn.candidates_per_query",
    "topk.fagin_ms_per_query", "topk.rows_consumed_per_query", "similarity.ms", "maximizer.ms",
    "maximizer.gain_evals", "layers.wire_share", "layers.cache_share", "layers.fed_knn_share",
    "layers.unattributed_share", "trace.overhead_ratio",
]
# Per-layer metrics that must be non-zero on each workload.
APPLIES = {
    "serve-hot": SERVE + ["cache.lookup_hit_ms", "cache.churn_ms", "cache.hit_ratio"],
    "serve-cold": SERVE + [
        "cache.lookup_miss_ms", "cache.store_ms", "cache.entry_bytes",
        "fed_knn.enc_instances_per_query",
    ],
    "party-he": [
        "he.keygen_s", "he.encrypt_ms_per_ct", "he.add_us_per_ct", "he.decrypt_ms_per_ct",
        "he.values_per_ct", "he.session_share", "he.reconcile_ratio", "cluster.connect_ms",
        "cluster.frames_per_query", "cluster.bytes_per_query", "fed_knn.query_ms",
        "fed_knn.enc_instances_per_query", "fed_knn.candidates_per_query",
        "topk.fagin_ms_per_query", "topk.rows_consumed_per_query", "layers.he_keygen_share",
        "layers.he_encrypt_share", "layers.he_decrypt_share", "trace.overhead_ratio",
    ],
    "select-train": [
        "data.prepare_ms", "train.ms", "pipeline.sim_selection_s", "pipeline.sim_training_s",
        "pipeline.accuracy_mean", "fed_knn.query_ms", "fed_knn.enc_instances_per_query",
        "fed_knn.candidates_per_query", "topk.fagin_ms_per_query",
        "topk.rows_consumed_per_query", "similarity.ms", "maximizer.ms", "maximizer.gain_evals",
        "layers.data_share", "layers.fed_knn_share", "layers.train_share",
        "trace.overhead_ratio",
    ],
}


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    stream = next(json.loads(l.split(":", 1)[1]) for l in lines if l.startswith("stream:"))
    return result, stream


def check_metrics(workload, trace, result):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']}")
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in table):
        fail(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    must = APPLIES[workload] if trace else [m["name"] for m in table]
    for m in table:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
        if m["name"] in must and not got["value"]:
            fail(f"{workload} trace={trace}: {m['name']} is zero")


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    if sorted(names) != sorted(APPLIES):
        fail(f"workloads {names} differ from {sorted(APPLIES)}")
    for workload in names:
        first, stream1 = run(workload, 1, 0)
        check_metrics(workload, 0, first)
        traced, _ = run(workload, 1, 1)
        check_metrics(workload, 1, traced)
        _, stream2 = run(workload, 2, 0)
        if stream1["digest"] == stream2["digest"]:
            fail(f"{workload}: seeds 1 and 2 generated the same request stream")
        if (stream1["shape"], stream1["ops"]) != (stream2["shape"], stream2["ops"]):
            fail(f"{workload}: the request stream's shape depends on the seed")
        print(f"selftest: {workload}: ok")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
