#!/usr/bin/env bash
# Serve smoke: populate a persistent artifact store with netsmith_run
# --cache, start the daemon on the same store, submit the same spec twice,
# and require (a) both responses answered entirely from cache
# (--expect-warm exits 4 if the daemon recomputed anything) and (b) all
# three reports byte-identical -- the serving layer's core contract: a
# cache is a pure wall-clock optimization, never a result change. Then the
# daemon must answer --stats and shut down cleanly.
#
# Usage, from the repository root: tools/serve_smoke.sh [build-dir]
# (default build). The store, socket and reports go to a temporary
# directory that is removed on exit.
set -euo pipefail

BUILD=${1:-build}
SPEC=specs/smoke.json
WORK=$(mktemp -d)
SERVE_PID=
cleanup() {
  if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

"$BUILD/netsmith_run" "$SPEC" --cache "$WORK/store" --out "$WORK/golden.json"
"$BUILD/netsmith_serve" --socket "$WORK/serve.sock" --cache "$WORK/store" &
SERVE_PID=$!
for _ in $(seq 1 50); do [ -S "$WORK/serve.sock" ] && break; sleep 0.1; done
for i in 1 2; do
  "$BUILD/netsmith_submit" "$SPEC" --socket "$WORK/serve.sock" \
    --out "$WORK/served$i.json" --quiet --expect-warm
  cmp "$WORK/golden.json" "$WORK/served$i.json"
done
"$BUILD/netsmith_submit" --stats --socket "$WORK/serve.sock"
"$BUILD/netsmith_submit" --shutdown --socket "$WORK/serve.sock"
wait "$SERVE_PID"
SERVE_PID=
echo "serve smoke OK: warm daemon, byte-identical reports"
