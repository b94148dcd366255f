#!/bin/sh
# End-to-end exercise of the `ipdelta` CLI tool. Registered with CTest;
# $1 is the path to the ipdelta binary.
set -e

IPDELTA="$1"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $1" >&2; exit 1; }

# Fixture: a reference and a version sharing a large middle.
head -c 40000 /dev/urandom > ref.bin
{ head -c 700 /dev/urandom; tail -c +201 ref.bin; head -c 900 /dev/urandom; } \
  > new.bin

# diff + apply (scratch path, sequential format).
"$IPDELTA" diff ref.bin new.bin plain.ipd --no-write-offsets > /dev/null \
  || fail "diff plain"
"$IPDELTA" apply plain.ipd ref.bin out.bin > /dev/null || fail "apply"
cmp -s out.bin new.bin || fail "apply output mismatch"

# diff --in-place with every policy and differ; patch in place each time.
for policy in constant localmin scc; do
  for differ in greedy onepass; do
    "$IPDELTA" diff ref.bin new.bin d.ipd --in-place \
      --policy "$policy" --differ "$differ" > /dev/null \
      || fail "diff --in-place $policy/$differ"
    cp ref.bin patched.bin
    "$IPDELTA" patch d.ipd patched.bin > /dev/null \
      || fail "patch $policy/$differ"
    cmp -s patched.bin new.bin || fail "patch mismatch $policy/$differ"
  done
done

# verify: good and bad reference (exit 2).
"$IPDELTA" diff ref.bin new.bin d.ipd --in-place > /dev/null
"$IPDELTA" verify d.ipd ref.bin > verify.out || fail "verify good"
grep -qx "OK: reconstructs $(wc -c < new.bin) bytes (in-place capable)" \
  verify.out || fail "verify OK line"
status=0
"$IPDELTA" verify d.ipd new.bin > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || fail "verify exit $status on the wrong reference"

# lint: a clean in-place delta passes (text and JSON), one flipped
# payload byte fails with exit 3, and the self-check over the generated
# corpus finds no disagreement with the dynamic oracle.
"$IPDELTA" lint d.ipd > /dev/null || fail "lint clean delta"
"$IPDELTA" lint d.ipd --json | grep -q '"ok":true' || fail "lint --json"
cp d.ipd flipped.ipd
size=$(wc -c < flipped.ipd)
last=$(od -An -tu1 -j $((size - 1)) -N1 flipped.ipd | tr -d ' ')
printf "$(printf '\\%03o' $((last ^ 255)))" |
  dd of=flipped.ipd bs=1 seek=$((size - 1)) conv=notrunc 2> /dev/null
cmp -s d.ipd flipped.ipd && fail "payload byte not flipped"
rc=0
"$IPDELTA" lint flipped.ipd > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || fail "lint exited $rc on a flipped payload byte, want 3"
"$IPDELTA" lint --self-check --seed 7 > selfcheck.out \
  || fail "lint --self-check"
grep -q " 0 disagreement(s)" selfcheck.out || fail "lint self-check count"

# info and info --deep run and mention key fields.
"$IPDELTA" info d.ipd | grep -q "in-place safe:     yes" || fail "info"
"$IPDELTA" info d.ipd --deep | grep -q "CRWI digraph" || fail "info --deep"

# compressed delta round-trips.
"$IPDELTA" diff ref.bin new.bin c.ipd --in-place --compress > /dev/null \
  || fail "diff --compress"
cp ref.bin patched.bin
"$IPDELTA" patch c.ipd patched.bin > /dev/null || fail "patch compressed"
cmp -s patched.bin new.bin || fail "compressed patch mismatch"

# compose: fold a two-hop chain and apply the result directly.
{ head -c 300 /dev/urandom; tail -c +101 new.bin; } > newer.bin
"$IPDELTA" diff ref.bin new.bin ab.ipd > /dev/null || fail "diff ab"
"$IPDELTA" diff new.bin newer.bin bc.ipd > /dev/null || fail "diff bc"
"$IPDELTA" compose ab.ipd bc.ipd ac.ipd > /dev/null || fail "compose"
"$IPDELTA" apply ac.ipd ref.bin composed_out.bin > /dev/null \
  || fail "apply composed"
cmp -s composed_out.bin newer.bin || fail "composed output mismatch"
if "$IPDELTA" compose bc.ipd ab.ipd x.ipd > /dev/null 2>&1; then
  fail "compose accepted non-chaining deltas"
fi

# serve: spin up the delta service over the 3-release history and replay
# a small concurrent fleet against it; every reconstruction is verified.
"$IPDELTA" serve ref.bin new.bin newer.bin \
  --requests 24 --threads 4 --seed 7 > serve.out || fail "serve"
grep -q "all reconstructions verified" serve.out || fail "serve verify line"
grep -Eq "^ipdelta_requests 24$" serve.out || fail "serve metrics"
if "$IPDELTA" serve ref.bin > /dev/null 2>&1; then
  fail "serve accepted a single-release history"
fi

# trace: wrap a subcommand and capture Chrome trace-event JSON.
"$IPDELTA" trace diff ref.bin new.bin traced.ipd --in-place \
  --trace-out trace.json > /dev/null 2> trace.err || fail "trace diff"
grep -q "traceEvents" trace.json || fail "trace JSON header"
grep -q '"name":"diff"' trace.json || fail "trace missing diff span"
grep -q '"name":"crwi_graph"' trace.json || fail "trace missing graph span"
grep -q "span(s)" trace.err || fail "trace summary line"
"$IPDELTA" apply traced.ipd ref.bin traced_out.bin > /dev/null \
  || fail "apply traced delta"
cmp -s traced_out.bin new.bin || fail "traced delta output mismatch"
if "$IPDELTA" trace trace diff ref.bin new.bin x.ipd > /dev/null 2>&1; then
  fail "trace accepted recursive trace"
fi

# store: durable publish across separate processes, list/check/gc, and
# serving straight from the store directory.
"$IPDELTA" store init repo.store > /dev/null || fail "store init"
if "$IPDELTA" store init repo.store > /dev/null 2>&1; then
  fail "store init overwrote an existing store"
fi
"$IPDELTA" store publish repo.store ref.bin new.bin > /dev/null \
  || fail "store publish"
"$IPDELTA" store publish repo.store newer.bin > /dev/null \
  || fail "store publish (second process)"
"$IPDELTA" store list repo.store > store.out || fail "store list"
grep -q "store: 3 releases" store.out || fail "store list release count"
grep -q "^recovery: 3 releases" store.out || fail "store list recovery line"
if grep -q "^ipdelta_store_" store.out; then
  fail "store list printed another process's counters"
fi
"$IPDELTA" store check repo.store > /dev/null || fail "store check"
"$IPDELTA" store gc repo.store > /dev/null || fail "store gc"
"$IPDELTA" store check repo.store > /dev/null || fail "store check after gc"
"$IPDELTA" serve --store-dir repo.store \
  --requests 12 --threads 2 --seed 7 > serve_store.out \
  || fail "serve --store-dir"
grep -q "all reconstructions verified" serve_store.out \
  || fail "serve --store-dir verify line"
grep -q "^ipdelta_store_releases_recovered 3$" serve_store.out \
  || fail "serve --store-dir store counters"

# campaign: a small clean fleet converges (exit 0), JSON mode emits the
# headline counters, and an undeliverable rollout aborts with exit 2
# while still bricking nobody.
"$IPDELTA" campaign --devices 12 --releases 3 --seed 7 \
  --image-bytes 8192 --staged 0.25 > campaign.out || fail "campaign"
grep -q "updated 12" campaign.out || fail "campaign updated count"
grep -q "bricked 0" campaign.out || fail "campaign bricked count"
"$IPDELTA" campaign --devices 6 --releases 2 --seed 7 \
  --image-bytes 4096 --json > campaign.json || fail "campaign --json"
grep -q '"bricked":0' campaign.json || fail "campaign json bricked"
if "$IPDELTA" campaign --devices 10 --releases 2 --seed 7 \
  --image-bytes 4096 --drop 1.0 --grace 0 --attempts 2 \
  --waves 0.2,1.0 > campaign_abort.out 2>&1; then
  fail "campaign ignored an aborted rollout"
fi
grep -q "ABORTED" campaign_abort.out || fail "campaign abort banner"
grep -q "bricked 0" campaign_abort.out || fail "campaign abort bricked"

# campaign --slo: a fully faulty canary wave burns the error budget and
# aborts with exit 2 and the breach reason; a clean fleet reports
# per-wave latency quantiles and a healthy verdict.
if "$IPDELTA" campaign --devices 60 --releases 2 --seed 7 \
  --image-bytes 4096 --drop 1.0 --grace 0 --attempts 2 \
  --waves 0.5,1.0 --slo --slo-burn 2.0 > campaign_slo.out 2>&1; then
  fail "campaign --slo ignored a burn-rate breach"
fi
grep -q "SLO BREACH" campaign_slo.out || fail "campaign slo breach banner"
grep -q "burn rate" campaign_slo.out || fail "campaign slo breach reason"
grep -q "bricked 0" campaign_slo.out || fail "campaign slo bricked"
"$IPDELTA" campaign --devices 16 --releases 3 --seed 7 \
  --image-bytes 8192 --waves 0.5,1.0 --slo --slo-min-attempts 4 \
  > campaign_healthy.out || fail "campaign --slo healthy"
grep -q "p99" campaign_healthy.out || fail "campaign slo p99 quantiles"
grep -q "slo: healthy" campaign_healthy.out || fail "campaign slo verdict"

# tracing over TCP: server and client each export a Chrome trace of the
# same fetch, and trace --merge joins them into one timeline with flow
# arrows linking the request span to the serve spans. Skipped when the
# sandbox forbids localhost sockets.
MERGE_PORT=39419
mkfifo hold
"$IPDELTA" serve ref.bin new.bin --port $MERGE_PORT \
  --trace-out server_trace.json > serve_traced.out 2>&1 < hold &
SERVE_PID=$!
exec 9>hold
sleep 1
if kill -0 $SERVE_PID 2>/dev/null; then
  cp ref.bin fetch_img.bin
  "$IPDELTA" trace fetch 127.0.0.1:$MERGE_PORT fetch_img.bin --to 1 \
    --trace-out client_trace.json > /dev/null 2>&1 || fail "traced fetch"
  cmp -s fetch_img.bin new.bin || fail "traced fetch output mismatch"
  exec 9>&-
  wait $SERVE_PID || fail "traced serve exit"
  "$IPDELTA" trace --merge client_trace.json server_trace.json \
    --trace-out merged_trace.json > merge.out || fail "trace --merge"
  grep -q "1 trace id(s) joined" merge.out || fail "merge joined no traces"
  grep -q '"ph":"s"' merged_trace.json || fail "merge missing flow start"
  grep -q '"ph":"f"' merged_trace.json || fail "merge missing flow finish"
  if "$IPDELTA" trace --merge ref.bin > /dev/null 2>&1; then
    fail "trace --merge accepted a non-trace file"
  fi
else
  exec 9>&-
  wait $SERVE_PID 2>/dev/null
  echo "skip: trace --merge over TCP (no sockets)"
fi

# corrupted delta is rejected with exit code 2.
cp d.ipd bad.ipd
dd if=/dev/zero of=bad.ipd bs=1 seek=100 count=4 conv=notrunc 2> /dev/null
if "$IPDELTA" apply bad.ipd ref.bin out2.bin > /dev/null 2>&1; then
  fail "apply accepted a corrupt delta"
fi

# usage errors exit 1.
if "$IPDELTA" bogus-subcommand > /dev/null 2>&1; then
  fail "bogus subcommand accepted"
fi

echo "cli tests passed"
