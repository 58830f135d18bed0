#!/usr/bin/env bash
# Crash-restart smoke test: start hyperhetd with a journal, SIGTERM it in
# the middle of a checkpointed job with a few small jobs queued behind it,
# restart it over the same journal with a one-slot queue, and require the
# job to complete having resumed from a checkpointed round
# (resumed_from_round > 0) instead of recomputing from scratch, and every
# acknowledged job to complete: resumed work is never refused for room.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pid=""
cleanup() {
  if [ -n "$pid" ]; then
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$workdir/hyperhetd" ./cmd/hyperhetd

# Ask the kernel for a free port instead of squatting on a fixed one, so
# parallel CI jobs (or a developer's own hyperhetd) can't collide with us.
if command -v python3 >/dev/null 2>&1; then
  port=$(python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1]); s.close()')
else
  port=18099
fi
addr=127.0.0.1:$port
wal="$workdir/journal/journal.wal"

# start_server [flags...] boots hyperhetd over the journal with one worker.
start_server() {
  "$workdir/hyperhetd" -addr "$addr" -workers 1 -journal "$workdir/journal" "$@" &
  pid=$!
  for _ in $(seq 1 100); do
    curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "smoke: server never became healthy" >&2
  exit 1
}

start_server

# A checkpointed run of ~24 rounds, about a quarter second on a 2-vCPU
# x86-64 box: the tight poll below kills it a few rounds in.
id=$(curl -fsS "http://$addr/submit" -d '{
  "algorithm": "atdca", "mode": "run", "network": "fully-het",
  "targets": 24, "checkpoint": true,
  "scene": {"lines": 640, "samples": 128, "bands": 48, "seed": 7}
}' | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "smoke: submit returned no job id" >&2; exit 1; }
echo "smoke: submitted $id"

# Small jobs queued behind it on the one worker: acknowledged, unfinished
# at the kill.
small=""
for seed in 21 22 23; do
  sid=$(curl -fsS "http://$addr/submit" -d '{
    "algorithm": "atdca", "mode": "sequential", "targets": 4, "no_cache": true,
    "scene": {"lines": 24, "samples": 16, "bands": 8, "seed": '"$seed"'}
  }' | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
  [ -n "$sid" ] || { echo "smoke: small submit returned no job id" >&2; exit 1; }
  small="$small $sid"
done
echo "smoke: queued$small behind it"

# Interrupt once at least two rounds are durably checkpointed, so the
# restart has a mid-run snapshot to resume from.
ckpts=0
for _ in $(seq 1 6000); do
  ckpts=$( (grep -ao '"type":"checkpointed"' "$wal" 2>/dev/null || true) | wc -l)
  [ "$ckpts" -ge 2 ] && break
  sleep 0.01
done
[ "$ckpts" -ge 2 ] || { echo "smoke: job never checkpointed (records: $ckpts)" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "smoke: drained mid-run after $ckpts checkpoint records"

# Four unfinished jobs, one queue slot: recovery must admit them all.
start_server -queue 1

for jid in $id $small; do
  state=""
  for _ in $(seq 1 3000); do
    state=$( (curl -fsS "http://$addr/jobs/$jid" 2>/dev/null || true) |
      sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -1)
    [ "$state" = "completed" ] && break
    case "$state" in
      failed|cancelled) echo "smoke: job $jid settled as $state" >&2; exit 1 ;;
    esac
    [ -n "$state" ] || { echo "smoke: acknowledged job $jid was not recovered" >&2; exit 1; }
    sleep 0.1
  done
  [ "$state" = "completed" ] || { echo "smoke: job $jid never completed (state: $state)" >&2; exit 1; }
done
echo "smoke: every acknowledged job ($id$small) completed after the restart"

doc=$(curl -fsS "http://$addr/jobs/$id")
resumed=$(printf '%s' "$doc" | sed -n 's/.*"resumed_from_round": \([0-9]*\).*/\1/p' | head -1)
if [ -z "$resumed" ] || [ "$resumed" -le 0 ]; then
  echo "smoke: resumed_from_round=$resumed, want > 0" >&2
  printf '%s\n' "$doc" >&2
  exit 1
fi
echo "smoke: restarted server resumed $id from round $resumed; OK"

# --- Pipeline leg: kill mid-pipeline, restart, resume without redoing
# completed stages. A single worker serializes four analyze stages over
# one shared scene; the kill lands after at least one stage's completion
# record is durable but before the pipeline's finished record, so the
# restarted server must restore the done stages from the journal
# (stages_resumed > 0) and run only the remainder.

pipe=$(curl -fsS "http://$addr/pipelines" -d '{
  "name": "smoke-fanout",
  "stages": [
    {"name": "scene", "kind": "scene",
     "scene": {"lines": 160, "samples": 96, "bands": 48, "seed": 11}},
    {"name": "atdca", "kind": "analyze", "after": ["scene"],
     "job": {"algorithm": "atdca", "mode": "run", "network": "fully-het", "targets": 18}},
    {"name": "ufcls", "kind": "analyze", "after": ["scene"],
     "job": {"algorithm": "ufcls", "mode": "run", "network": "fully-het", "targets": 18}},
    {"name": "pct", "kind": "analyze", "after": ["scene"],
     "job": {"algorithm": "pct", "mode": "run", "network": "fully-het"}},
    {"name": "morph", "kind": "analyze", "after": ["scene"],
     "job": {"algorithm": "morph", "mode": "run", "network": "fully-het"}},
    {"name": "report", "kind": "synthesize", "after": ["atdca", "ufcls", "pct", "morph"]}
  ]
}' | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -1)
[ -n "$pipe" ] || { echo "smoke: pipeline submit returned no id" >&2; exit 1; }
echo "smoke: submitted pipeline $pipe"

stages=0
for _ in $(seq 1 600); do
  stages=$( (grep -ao '"type":"pipeline_stage"' "$wal" 2>/dev/null || true) | wc -l)
  [ "$stages" -ge 2 ] && break
  sleep 0.1
done
[ "$stages" -ge 2 ] || { echo "smoke: no pipeline stage ever journaled" >&2; exit 1; }
finished=$( (grep -ao '"type":"pipeline_finished"' "$wal" 2>/dev/null || true) | wc -l)
[ "$finished" -eq 0 ] || { echo "smoke: pipeline finished before the kill; enlarge the scene" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "smoke: drained mid-pipeline after $stages stage records"

start_server

pstate=""
for _ in $(seq 1 3000); do
  pstate=$(curl -fsS "http://$addr/pipelines/$pipe" 2>/dev/null |
    sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -1)
  [ "$pstate" = "completed" ] && break
  case "$pstate" in
    failed|cancelled) echo "smoke: pipeline settled as $pstate" >&2; exit 1 ;;
  esac
  sleep 0.1
done
[ "$pstate" = "completed" ] || { echo "smoke: pipeline never completed (state: $pstate)" >&2; exit 1; }

pdoc=$(curl -fsS "http://$addr/pipelines/$pipe")
presumed=$(printf '%s' "$pdoc" | sed -n 's/.*"stages_resumed": \([0-9]*\).*/\1/p' | head -1)
if [ -z "$presumed" ] || [ "$presumed" -lt "$stages" ]; then
  echo "smoke: stages_resumed=$presumed, want >= $stages journaled stages" >&2
  printf '%s\n' "$pdoc" >&2
  exit 1
fi
printf '%s' "$pdoc" | grep -q '"synthesis"' ||
  { echo "smoke: resumed pipeline carries no synthesis payload" >&2; exit 1; }
echo "smoke: restarted server resumed $pipe with $presumed completed stages intact; OK"
