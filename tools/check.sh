#!/usr/bin/env bash
# Tier-1 verification: build + ctest, plain and under ThreadSanitizer and
# AddressSanitizer+UBSan.
#
# Usage: tools/check.sh [--tsan-only|--plain-only|--asan-only]
#
# The TSan pass builds with -DBVQ_SANITIZE=thread and runs the test suite
# with BVQ_THREADS=4 so the auto thread count exercises the parallel
# kernels; any data race in the evaluation layer fails the run. The ASan
# pass builds with -DBVQ_SANITIZE=address,undefined and additionally
# smoke-runs the incremental-ESO bench, whose byte-identity assertion
# drives the solver's clause-database compaction under the sanitizers.
#
# Every tier also runs the resource-governor smoke: a PFP binary counter
# that needs >1 s ungoverned must come back as a clean DeadlineExceeded
# under --deadline-ms=10 (nonzero exit, error on stderr, seconds not
# minutes of wall time), and a governed run under a generous memory budget
# must print byte-identical answers to the ungoverned run.
#
# Every tier also runs the serving-layer smoke (see serve_smoke below):
# 8 concurrent bvqserve sessions, one over-budget admission rejection, one
# remote cancellation, and a shutdown that must leak neither sessions nor
# reserved admission bytes.
#
# Every tier also runs the cross-query cache smoke. The restart-prewarm
# check (tools/cache_persist_test.sh: quit/restart, corrupted snapshot, and
# kill -9 after a drain) runs inside each tier's ctest as
# bvqserve_cache_persist, with that tier's bvqserve.

set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"

# Emits a bvqsh script for the PFP binary-counter orbit over a strict order
# on {0..n-1}: the pfp stage sequence enumerates all 2^n subsets before
# cycling, so Floyd mode at n=18 runs for seconds — the deadline workload —
# while hash mode at n=10 finishes instantly — the budget-identity workload.
gen_counter() {
  local n=$1 mode=$2 pairs="" i j
  for ((i = 0; i < n; i++)); do
    for ((j = i + 1; j < n; j++)); do pairs+=" $i $j ;"; done
  done
  printf 'domain %s\nrel Lt/2%s\nk 2\npfp %s\n' "$n" "$pairs" "$mode"
  printf 'eval (x1) [pfp X(x1) . !(X(x1) <-> forall x2 . (Lt(x2,x1) -> X(x2)))](x1)\n'
}

resource_smoke() {
  local bvqsh="$1/tools/bvqsh" tmp rc=0 start end wall_ms
  tmp=$(mktemp -d)
  echo "== resource governor smoke ($bvqsh) =="
  gen_counter 18 floyd > "$tmp/deadline.bvq"
  start=$(date +%s%N)
  "$bvqsh" --deadline-ms=10 "$tmp/deadline.bvq" \
      > "$tmp/deadline.out" 2> "$tmp/deadline.err" || rc=$?
  end=$(date +%s%N)
  wall_ms=$(( (end - start) / 1000000 ))
  if [[ $rc -eq 0 ]]; then
    echo "deadline smoke: expected a nonzero exit" >&2; exit 1
  fi
  if ! grep -q "DeadlineExceeded" "$tmp/deadline.err"; then
    echo "deadline smoke: no DeadlineExceeded on stderr" >&2
    cat "$tmp/deadline.err" >&2; exit 1
  fi
  # Generous bound: the cut itself is ~10 ms; the rest is process startup
  # and (sanitized) library overhead. A hang or a full 2^18-stage run blows
  # straight past this.
  if [[ $wall_ms -ge 5000 ]]; then
    echo "deadline smoke: took ${wall_ms} ms (governor not cutting?)" >&2
    exit 1
  fi
  echo "   deadline cut after ${wall_ms} ms wall (DeadlineExceeded)"

  gen_counter 10 hash > "$tmp/budget.bvq"
  # Timing/stats lines lead with "  [" and are the only permitted diff.
  "$bvqsh" "$tmp/budget.bvq" | grep -v '^  \[' > "$tmp/plain.txt"
  "$bvqsh" --mem-budget-mb=512 --stats "$tmp/budget.bvq" \
      | grep -v '^  \[' > "$tmp/gov.txt"
  if ! diff "$tmp/plain.txt" "$tmp/gov.txt"; then
    echo "budget smoke: governed output differs from ungoverned" >&2
    exit 1
  fi
  echo "   governed answers byte-identical under a generous budget"
  rm -rf "$tmp"
}

# Serving-layer smoke: 8 concurrent sessions evaluate through one bvqserve
# under an aggregate budget, one session's reserve exceeds the whole budget
# (must come back ResourceExhausted while the others complete), one long PFP
# counter is cancelled remotely (must come back Cancelled), and after the
# drain + closes the final stats line must report zero sessions and zero
# reserved bytes — no leaked sessions, no leaked admission budget.
serve_smoke() {
  local bvqserve="$1/tools/bvqserve" tmp rc=0 s i j
  tmp=$(mktemp -d)
  echo "== serving layer smoke ($bvqserve) =="
  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 10; i++)); do printf ' %d %d ;' "$i" "$(((i + 1) % 10))"; done
    printf '\n'; } > "$tmp/cycle.bvq"
  { printf 'domain 18\nrel Lt/2'
    for ((i = 0; i < 18; i++)); do
      for ((j = i + 1; j < 18; j++)); do printf ' %d %d ;' "$i" "$j"; done
    done
    printf '\n'; } > "$tmp/order.bvq"
  {
    for ((s = 0; s < 8; s++)); do
      printf 'open s%d k=3 reserve-mb=16\n' "$s"
      printf 'load s%d %s/cycle.bvq\n' "$s" "$tmp"
    done
    printf 'open big k=3 reserve-mb=512\n'
    printf 'open slow k=2 reserve-mb=16\n'
    printf 'load slow %s/order.bvq\n' "$tmp"
    for ((s = 0; s < 8; s++)); do
      printf 'eval %d s%d (x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)\n' \
          "$((s + 1))" "$s"
    done
    printf 'eval 100 big (x1,x2) E(x1,x2)\n'
    printf 'eval 200 slow (x1) [pfp X(x1) . !(X(x1) <-> forall x2 . (Lt(x2,x1) -> X(x2)))](x1)\n'
    printf 'cancel 200\n'
    printf 'drain\n'
    for ((s = 0; s < 8; s++)); do printf 'close s%d\n' "$s"; done
    printf 'close big\nclose slow\nstats\nquit\n'
  } > "$tmp/script.bvqserve"
  "$bvqserve" --aggregate-mb=256 --max-concurrent=16 "$tmp/script.bvqserve" \
      > "$tmp/out" 2>&1 || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "serve smoke: bvqserve exited with $rc" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  for ((s = 1; s <= 8; s++)); do
    if ! grep -q "^result $s ok$" "$tmp/out"; then
      echo "serve smoke: session eval $s did not complete ok" >&2
      cat "$tmp/out" >&2; exit 1
    fi
  done
  if ! grep -q "^result 100 error ResourceExhausted$" "$tmp/out"; then
    echo "serve smoke: over-budget reserve was not rejected" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  if ! grep -q "^result 200 error Cancelled$" "$tmp/out"; then
    echo "serve smoke: remote cancel did not come back Cancelled" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  if ! grep -q "^stats sessions=0 active=0 queue=0 reserved_bytes=0 " "$tmp/out"; then
    echo "serve smoke: shutdown leaked sessions or admission budget" >&2
    cat "$tmp/out" >&2; exit 1
  fi
  echo "   8 concurrent sessions ok, over-budget rejected, remote cancel clean"
  rm -rf "$tmp"
}

# Cross-query answer-cache smoke: a replayed fixpoint query must be served
# from the session cache (nonzero cache hits in the stats line) with output
# byte-identical to a --cross-query-cache=0 run, and a mid-session `load`
# through bvqserve must invalidate by relation version — the replay before
# the load hits and reproduces the first answer exactly, the eval after the
# load recomputes against the new database.
cache_smoke() {
  local bvqsh="$1/tools/bvqsh" bvqserve="$1/tools/bvqserve" tmp rc=0 i
  local tc='(x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)'
  tmp=$(mktemp -d)
  echo "== cross-query cache smoke ($1) =="
  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 10; i++)); do printf ' %d %d ;' "$i" "$(((i + 1) % 10))"; done
    printf '\nrel P/1 0 ;\n'
    printf 'eval (x1) [lfp T(x1) . P(x1) | exists x2 . (E(x1,x2) & T(x2))](x1)\n'
    printf 'eval (x1) [lfp T(x1) . P(x1) | exists x2 . (E(x1,x2) & T(x2))](x1)\n'
  } > "$tmp/warm.bvq"
  "$bvqsh" --stats "$tmp/warm.bvq" > "$tmp/warm.out"
  if ! grep -q '^  \[cache on: [1-9]' "$tmp/warm.out"; then
    echo "cache smoke: replayed query never hit the cache" >&2
    cat "$tmp/warm.out" >&2; exit 1
  fi
  "$bvqsh" --cross-query-cache=0 "$tmp/warm.bvq" > "$tmp/off.out"
  # Timing/stats lines lead with "  [" and are the only permitted diff.
  if ! diff <(grep -v '^  \[' "$tmp/warm.out") \
            <(grep -v '^  \[' "$tmp/off.out"); then
    echo "cache smoke: cached answers differ from the cache-off run" >&2
    exit 1
  fi
  echo "   bvqsh replay hit the cache, byte-identical to cache-off"

  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 10; i++)); do printf ' %d %d ;' "$i" "$(((i + 1) % 10))"; done
    printf '\n'; } > "$tmp/cycle.bvq"
  { printf 'domain 10\nrel E/2'
    for ((i = 0; i < 9; i++)); do printf ' %d %d ;' "$i" "$((i + 1))"; done
    printf '\n'; } > "$tmp/path.bvq"
  {
    printf 'open s k=3\n'
    printf 'load s %s/cycle.bvq\n' "$tmp"
    printf 'eval 1 s %s\ndrain\n' "$tc"
    printf 'eval 2 s %s\ndrain\n' "$tc"
    printf 'stats s\n'
    printf 'load s %s/path.bvq\n' "$tmp"
    printf 'eval 3 s %s\ndrain\n' "$tc"
    printf 'close s\nquit\n'
  } > "$tmp/script.bvqserve"
  "$bvqserve" "$tmp/script.bvqserve" > "$tmp/serve.out" 2>&1 || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "cache smoke: bvqserve exited with $rc" >&2
    cat "$tmp/serve.out" >&2; exit 1
  fi
  for i in 1 2 3; do
    if ! grep -q "^result $i ok$" "$tmp/serve.out"; then
      echo "cache smoke: eval $i did not complete ok" >&2
      cat "$tmp/serve.out" >&2; exit 1
    fi
  done
  if ! grep -q " cache_hits=[1-9]" "$tmp/serve.out"; then
    echo "cache smoke: session stats report no cache hits" >&2
    cat "$tmp/serve.out" >&2; exit 1
  fi
  payload() {
    awk -v id="$1" '$0 == "end " id {p=0} p {print} $0 == "result " id " ok" {p=1}' \
        "$tmp/serve.out"
  }
  if [[ "$(payload 1)" != "$(payload 2)" ]]; then
    echo "cache smoke: warm replay differs from the cold answer" >&2
    cat "$tmp/serve.out" >&2; exit 1
  fi
  if [[ "$(payload 1)" == "$(payload 3)" ]]; then
    echo "cache smoke: eval after load served a stale answer" >&2
    cat "$tmp/serve.out" >&2; exit 1
  fi
  echo "   bvqserve warm hit counted, load invalidated by version"
  rm -rf "$tmp"
}

run_plain=1
run_tsan=1
run_asan=1
case "${1:-}" in
  --tsan-only) run_plain=0; run_asan=0 ;;
  --plain-only) run_tsan=0; run_asan=0 ;;
  --asan-only) run_plain=0; run_tsan=0 ;;
  --list)
    echo "plain  build + ctest + bench/serve/cache smokes"
    echo "tsan   the same under -DBVQ_SANITIZE=thread, BVQ_THREADS=4"
    echo "asan   the same under -DBVQ_SANITIZE=address,undefined"
    exit 0 ;;
  "") ;;
  *) echo "usage: tools/check.sh [--tsan-only|--plain-only|--asan-only|--list]" >&2
     exit 2 ;;
esac

if [[ $run_plain -eq 1 ]]; then
  echo "== plain build + ctest =="
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j"$(nproc)"
  (cd "$ROOT/build" && ctest --output-on-failure -j"$(nproc)")
  echo "== memo ablation smoke (asserts memo on/off byte-identity) =="
  "$ROOT/build/bench/bench_memo_ablation" --n=12 --reps=1 \
      --out="$ROOT/build/BENCH_memo_smoke.json"
  echo "== eso incremental smoke (asserts incremental/scratch byte-identity) =="
  "$ROOT/build/bench/bench_eso_incremental" --n=8 --reps=1 \
      --out="$ROOT/build/BENCH_eso_smoke.json"
  resource_smoke "$ROOT/build"
  serve_smoke "$ROOT/build"
  cache_smoke "$ROOT/build"
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "== TSan build + ctest (BVQ_THREADS=4) =="
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DBVQ_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j"$(nproc)"
  (cd "$ROOT/build-tsan" && BVQ_THREADS=4 ctest --output-on-failure -j"$(nproc)")
  BVQ_THREADS=4 resource_smoke "$ROOT/build-tsan"
  BVQ_THREADS=4 serve_smoke "$ROOT/build-tsan"
  BVQ_THREADS=4 cache_smoke "$ROOT/build-tsan"
fi

if [[ $run_asan -eq 1 ]]; then
  echo "== ASan+UBSan build + ctest =="
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DBVQ_SANITIZE=address,undefined
  cmake --build "$ROOT/build-asan" -j"$(nproc)"
  (cd "$ROOT/build-asan" && ctest --output-on-failure -j"$(nproc)")
  echo "== eso incremental smoke under ASan+UBSan =="
  "$ROOT/build-asan/bench/bench_eso_incremental" --n=8 --reps=1 \
      --out="$ROOT/build-asan/BENCH_eso_smoke.json"
  resource_smoke "$ROOT/build-asan"
  serve_smoke "$ROOT/build-asan"
  cache_smoke "$ROOT/build-asan"
fi

echo "check.sh: all requested passes green"
