#!/usr/bin/env bash
# Determinism gates: every seeded command in the table below runs twice
# and must render byte-identical output; most gates then record the
# digest of what they rendered. A few assertions that only make sense
# for one gate follow the table.
#
#   chaos     the seeded fault-injection experiment — faults, watchdog
#             trips, fail-open engagements and all;
#   liveops   the reconfigure + kill/restore soak — snapshot bytes,
#             restored decisions, drop accounting and all;
#   fleet     three pipelines, a coordinator, transport deliveries and a
#             mid-pulse partition on one seeded engine;
#   plan      the socket-level chaos schedule, a pure function of (seed,
#             connection, direction, byte offset) rendered without a
#             socket — a different seed must render a different plan;
#   victims   the sketch-accuracy and pulse-wave victim experiments (the
#             heavy-keeper's decay coin flips are seeded);
#   vict      the defend CLI's -victims report over one capture.
#
# Needs: go. Exits non-zero on the first gate that fails.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

PLAN="-chaos-plan 4 -chaos-corrupt-every 4096 -chaos-reset-every 32768 -chaos-delay-every 8192 -chaos-delay-for 5ms"

go run ./cmd/trafficgen -scenario cicddos -duration 8 -seed 7 -out "$WORK/vict.pcap"

# name | comparison | record sha256 | seeded command
while IFS='|' read -r name compare sha cmd; do
  name=$(echo $name) sha=$(echo $sha)
  echo "== $name: $cmd"
  $cmd > "$WORK/${name}_a.txt"
  $cmd > "$WORK/${name}_b.txt"
  if ! $compare "$WORK/${name}_a.txt" "$WORK/${name}_b.txt"; then
    echo "$name gate: output is not deterministic" >&2
    exit 1
  fi
  if [ "$sha" = yes ]; then
    (cd "$WORK" && sha256sum "${name}_a.txt")
  fi
done <<TABLE
chaos   | diff -u | yes | go run ./cmd/experiments -quick -seed 7 -run chaos
liveops | diff -u | yes | go run ./cmd/experiments -quick -seed 7 -run liveops
fleet   | diff -u | yes | go run ./cmd/experiments -quick -seed 7 -run fleet
plan    | cmp     | yes | go run ./cmd/accturbo-defend $PLAN -chaos-seed 7
victims | diff -u | yes | go run ./cmd/experiments -quick -seed 7 -run sketchacc,victims
vict    | cmp     | no  | go run ./cmd/accturbo-defend -in $WORK/vict.pcap -victims 8 -victim-window 500
TABLE

go run ./cmd/accturbo-defend $PLAN -chaos-seed 8 > "$WORK/plan_c.txt"
if cmp -s "$WORK/plan_a.txt" "$WORK/plan_c.txt"; then
  echo "chaos plan ignores its seed" >&2
  exit 1
fi
grep -q 'corrupt mask=' "$WORK/plan_a.txt"
grep -q 'reset' "$WORK/plan_a.txt"
grep -q 'delay' "$WORK/plan_a.txt"
grep -q 'victim aggregates' "$WORK/vict_a.txt"
echo "PASS: determinism gates"
