#!/usr/bin/env bash
# Asserts that a bench artifact carries every key a bench group is
# expected to emit. This is the single source of truth for the key
# lists CI greps for — the workflow jobs and local runs (`just
# bench-keys <group>`) both call this script, so a new artifact key is
# added exactly once, here.
#
# usage: ci/check_bench_keys.sh <selection|serve|router|cluster> [artifact.json]
#
# Exit codes: 0 all keys present, 1 missing key(s) or missing artifact,
# 2 usage error.
set -euo pipefail

usage() {
  echo "usage: $0 <selection|serve|router|cluster> [artifact.json]" >&2
  exit 2
}

group="${1:-}"
artifact="${2:-BENCH_selection.json}"
case "$group" in
  selection | serve | router | cluster) ;;
  # Validate here, in the main shell: `keys_for` runs in a process
  # substitution, where an `exit` would only kill the subshell and an
  # unknown group would silently check zero keys.
  *) usage ;;
esac

# One key per line; lines are matched with `grep -F` (fixed strings),
# so quoted JSON fragments like '"parties": 10000' pin both the key
# and its expected value.
keys_for() {
  case "$1" in
    selection)
      cat <<'EOF'
he_ops
paillier_exponentiations
paillier_values_per_exponentiation
paillier_pooled_speedup_vs_slow
paillier_crt_decrypt_speedup
ckks_packing_speedup
per_phase_breakdown
enc_instances
stream_us
cache_breakdown
party_scaling
gain_evals
objective_ratio_vs_greedy
eval_reduction_vs_greedy
"parties": 10000
"bit_identical_across_threads": true
"bit_identical_to_cold": true
"fagin_undercuts_base": true
EOF
      ;;
    serve)
      cat <<'EOF'
"serve_breakdown"
"lost_responses": 0
"duplicated_responses": 0
"tenants"
"warm_enc_instances": 0
EOF
      ;;
    router)
      cat <<'EOF'
"router_breakdown"
"all_backends_routed": true
"bit_identical_to_direct": true
"drained_backend"
"warm_enc_after_drain": 0
"drain_in_flight": 0
"lost_responses": 0
"duplicated_responses": 0
"relay_errors"
EOF
      ;;
    cluster)
      cat <<'EOF'
"cluster_breakdown"
"bit_identical_to_sim": true
"kills_observed": 1
"reconnects": 0
"connects": 3
"per_party"
"frames_in"
"total_bytes"
"total_messages"
EOF
      ;;
    *) ;; # unreachable: validated before the artifact check
  esac
}

if [ ! -f "$artifact" ]; then
  echo "$artifact: not found (run the '$group' bench first)" >&2
  exit 1
fi

status=0
while IFS= read -r key; do
  [ -n "$key" ] || continue
  if ! grep -qF "$key" "$artifact"; then
    echo "$artifact missing $key" >&2
    status=1
  fi
done < <(keys_for "$group")

if [ "$status" -eq 0 ]; then
  echo "$artifact: all $group keys present"
fi
exit "$status"
