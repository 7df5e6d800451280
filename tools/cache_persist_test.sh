#!/bin/sh
# Restart-persistence end-to-end over real process boundaries:
#
#   run 1  bvqserve --cache-dir=D, eval, quit      -> snapshot written
#   run 2  fresh process, same script              -> byte-identical result
#                                                     block, cache_hits > 0
#   run 3  after corrupting the snapshot           -> still byte-identical
#                                                     (cold), cache_hits = 0,
#                                                     never a crash
#   run 4  fresh dir: eval, drain, then kill -9    -> the drain's snapshot
#                                                     survives the crash
#   run 5  restart on run 4's dir, same script     -> byte-identical result
#                                                     block, cache_hits > 0
#
# Usage: cache_persist_test.sh <path-to-bvqserve>
# Must run from the repo root (reads data/graph.bvq, like the demos).
set -u

BVQSERVE=${1:?usage: cache_persist_test.sh <path-to-bvqserve>}
DIR=$(mktemp -d) || exit 1
trap 'rm -rf "$DIR"' EXIT

fail() {
  echo "cache_persist_test: $1" >&2
  exit 1
}

SCRIPT="$DIR/session.bvqserve"
cat >"$SCRIPT" <<'EOF'
open s k=3
load s data/graph.bvq
eval 1 s (x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)
drain
stats s
quit
EOF

# The result block for query 1, frame lines included.
payload() {
  awk '/^result 1 /{f=1} f{print} /^end 1$/{f=0}' "$1"
}

"$BVQSERVE" --cache-dir="$DIR" "$SCRIPT" >"$DIR/run1.out" 2>"$DIR/run1.err" \
  || fail "run 1 exited nonzero"
[ -s "$DIR/s.bvqcache" ] || fail "no snapshot written by quit"
[ -n "$(payload "$DIR/run1.out")" ] || fail "run 1 produced no result block"

"$BVQSERVE" --cache-dir="$DIR" "$SCRIPT" >"$DIR/run2.out" 2>"$DIR/run2.err" \
  || fail "run 2 exited nonzero"
payload "$DIR/run1.out" >"$DIR/p1"
payload "$DIR/run2.out" >"$DIR/p2"
cmp -s "$DIR/p1" "$DIR/p2" || fail "prewarmed result differs from run 1"
grep '^stats session=s ' "$DIR/run2.out" | grep -qv ' cache_hits=0 ' \
  || fail "run 2 served no cache hits from the snapshot"

# Corrupt the snapshot's format-version byte; the next restart must degrade
# to a cold start (warn on stderr, correct bytes, zero hits).
printf '\377' | dd of="$DIR/s.bvqcache" bs=1 seek=4 conv=notrunc 2>/dev/null \
  || fail "could not corrupt snapshot"
"$BVQSERVE" --cache-dir="$DIR" "$SCRIPT" >"$DIR/run3.out" 2>"$DIR/run3.err" \
  || fail "run 3 exited nonzero on a corrupted snapshot"
payload "$DIR/run3.out" >"$DIR/p3"
cmp -s "$DIR/p1" "$DIR/p3" || fail "corrupted-snapshot result differs"
grep '^stats session=s ' "$DIR/run3.out" | grep -q ' cache_hits=0 ' \
  || fail "corrupted snapshot still produced hits"
grep -q 'ignoring cache snapshot' "$DIR/run3.err" \
  || fail "no corruption warning on stderr"

# Crash path: no quit, no destructor. Feed the script up to its drain
# through a FIFO, wait for the drain's ack (its snapshot is on disk by then),
# SIGKILL the process, and restart on the same directory.
CRASH="$DIR/crash"
mkdir "$CRASH" || fail "could not make $CRASH"
mkfifo "$DIR/ctl" || fail "could not make a FIFO"
"$BVQSERVE" --cache-dir="$CRASH" <"$DIR/ctl" >"$DIR/run4.out" \
  2>"$DIR/run4.err" &
PID=$!
exec 9>"$DIR/ctl"
sed '/^drain$/q' "$SCRIPT" >&9
i=0
until grep -q '^ok drain$' "$DIR/run4.out"; do
  i=$((i + 1))
  if [ "$i" -gt 300 ]; then
    kill -9 "$PID" 2>/dev/null
    fail "run 4 never acknowledged its drain"
  fi
  sleep 0.1
done
kill -9 "$PID"
wait "$PID" 2>/dev/null
exec 9>&-
[ -s "$CRASH/s.bvqcache" ] || fail "no snapshot survived kill -9 after drain"
payload "$DIR/run4.out" >"$DIR/p4"
cmp -s "$DIR/p1" "$DIR/p4" || fail "run 4 result differs from run 1"

"$BVQSERVE" --cache-dir="$CRASH" "$SCRIPT" >"$DIR/run5.out" 2>"$DIR/run5.err" \
  || fail "run 5 (restart after kill -9) exited nonzero"
payload "$DIR/run5.out" >"$DIR/p5"
cmp -s "$DIR/p1" "$DIR/p5" || fail "post-crash result differs from run 1"
grep '^stats session=s ' "$DIR/run5.out" | grep -qv ' cache_hits=0 ' \
  || fail "run 5 served no cache hits after kill -9"

echo "cache_persist_test: OK"
