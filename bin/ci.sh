#!/bin/sh
# CI smoke script: build, run the full tier-1 test suite, then exercise
# the sharded engine end-to-end (equivalence suite + a 4-shard CLI run
# with checkpoint/resume) and the fault-injection path (crash 10% of a
# 2^10 ring, require recovery into the Theorem 2.3 band).  Exits
# non-zero on any failure.
set -eu

cd "$(dirname "$0")/.."

# Backtraces on any uncaught exception, in tests and smokes alike.
OCAMLRUNPARAM=b
export OCAMLRUNPARAM

echo "== dune build =="
dune build

echo "== lb_lint --typed: interprocedural analysis over lib/ and bin/ =="
# Syntactic R1–R5 plus the typed T1–T4 families (DESIGN.md §16):
# determinism taint through the call graph, Domain.spawn capture
# safety, the wire fingerprint/version contract, and the exit-code
# contract.  Any finding fails the build, and so does any stale waiver
# (an allow entry or annotation that suppresses nothing); exceptions
# live in bin/lint_allow or as (* lint: ... *) annotations next to the
# offending line.  The typed pass reads the .cmt trees from @check.
dune build @check
dune exec bin/lb_lint.exe -- --typed lib bin
# The same findings as machine-readable JSONL, validated by the repo's
# own JSON checker.
lint_jsonl=$(mktemp -t lb_ci_lint.XXXXXX)
dune exec bin/lb_lint.exe -- --typed --jsonl lib bin > "$lint_jsonl"
dune exec bin/jsonlint.exe -- --jsonl "$lint_jsonl"
rm -f "$lint_jsonl"

echo "== dune runtest (tier-1 + shard equivalence + faults) =="
dune runtest

echo "== spec errors exit 2 in every binary =="
# A well-formed spec that a graph generator or balancer constructor
# rejects must end in exit 2 (bad specification), never in an uncaught
# exception (exit 125).  lb_node and lb_coord build the spec before they
# connect or listen, so these runs never touch the network.
bin_dir=_build/default/bin
expect_exit() {
  want=$1
  shift
  set +e
  "$@" > /dev/null 2>&1
  got=$?
  set -e
  if [ "$got" != "$want" ]; then
    echo "expected exit $want, got $got: $*" >&2
    exit 1
  fi
}
for spec in cycle:2 torus:2x2 hypercube:0 complete:1 clique:4,5 random:5,3; do
  for tool in lb_sim lb_walk lb_inspect lb_verify lb_cluster lb_coord; do
    expect_exit 2 "$bin_dir/$tool.exe" --graph "$spec"
  done
  expect_exit 2 "$bin_dir/lb_node.exe" --shard 0 --port 1 --graph "$spec"
done
for tool in lb_sim lb_verify lb_cluster lb_coord; do
  expect_exit 2 "$bin_dir/$tool.exe" --graph cycle:8 --algo send-round --self-loops 1
done
expect_exit 2 "$bin_dir/lb_node.exe" --shard 0 --port 1 --graph cycle:8 \
  --algo send-round --self-loops 1
# The same grammar builds on a good spec, in the three binaries no other
# stage runs (torus:AxB with A != B included).
expect_exit 0 "$bin_dir/lb_walk.exe" --graph torus:8x8 --seeds 2
expect_exit 0 "$bin_dir/lb_inspect.exe" --graph random:64,4,7
expect_exit 0 "$bin_dir/lb_verify.exe" --graph torus:4x6 --steps 200

echo "== sharded CLI smoke: 4 shards, checkpoint + resume =="
ckpt=$(mktemp -t lb_ci_ckpt.XXXXXX)
trap 'rm -f "$ckpt" "$ckpt.prev"' EXIT
dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo rotor-router \
  --init point:4096 --steps 200 --shards 4 \
  --checkpoint "$ckpt" --checkpoint-every 50
dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo rotor-router \
  --init point:4096 --steps 200 --shards 4 \
  --checkpoint "$ckpt" --resume

echo "== fault smoke: crash 10% of a 2^10 ring, recover within Thm 2.3 band =="
# cycle(1024): d = 2, so the Theorem 2.3 bound d*min(sqrt(log n/mu), sqrt n)
# is 2*sqrt(1024) = 64.  --require-recovery exits 3 if any episode fails.
dune exec bin/lb_sim.exe -- --graph cycle:1024 --algo rotor-router \
  --init random:65536 --steps 4000 --crash-nodes 0.1@500 \
  --recovery-eps 64 --require-recovery
# Same plan, sharded: the run must replay identically and pass the same
# recovery gate.
dune exec bin/lb_sim.exe -- --graph cycle:1024 --algo rotor-router \
  --init random:65536 --steps 4000 --crash-nodes 0.1@500 \
  --recovery-eps 64 --require-recovery --shards 2

echo "== net smoke: loss=0 network is bit-identical to the core engine =="
# A reliable network (--drop 0) must reproduce the synchronous engine's
# result exactly; compare the "final disc:" lines of the two runs and
# their final load vectors.  The core run takes the fused rotor-router
# kernel; the --drop 0 run (assign_checked per node) and the --audit run
# (the generic scatter feeding the fairness tracker) take the generic
# path, so the cmp checks the kernel against the reference assign.
net_dir=$(mktemp -d -t lb_ci_net.XXXXXX)
ref=$(dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo rotor-router \
  --init point:4096 --steps 200 --dump-loads "$net_dir/core.loads" \
  | grep '^final disc:')
net=$(dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo rotor-router \
  --init point:4096 --steps 200 --drop 0 --dump-loads "$net_dir/net.loads" \
  | grep '^final disc:')
if [ "$ref" != "$net" ]; then
  echo "loss=0 network diverged from the core engine: '$ref' vs '$net'" >&2
  exit 1
fi
dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo rotor-router \
  --init point:4096 --steps 200 --audit --dump-loads "$net_dir/audit.loads" \
  > /dev/null
for other in net audit; do
  cmp "$net_dir/core.loads" "$net_dir/$other.loads" || {
    echo "final loads of the $other run diverged from the core engine" >&2
    exit 1
  }
done
rm -rf "$net_dir"

echo "== net smoke: lossy runs replay identically under one --net-seed =="
run1=$(dune exec bin/lb_sim.exe -- --graph hypercube:6 --algo send-floor \
  --init random:8192 --steps 150 --drop 0.1 --delay 2 --staleness 2 --net-seed 7)
run2=$(dune exec bin/lb_sim.exe -- --graph hypercube:6 --algo send-floor \
  --init random:8192 --steps 150 --drop 0.1 --delay 2 --staleness 2 --net-seed 7)
if [ "$run1" != "$run2" ]; then
  echo "two identically-seeded lossy runs diverged" >&2
  exit 1
fi
# The lossy run must still close its token ledger exactly.
echo "$run1" | grep -q '(conserved)' || {
  echo "lossy run did not report a conserved ledger" >&2
  exit 1
}

echo "== workload smoke: open system over a lossy, faulty network conserves tokens =="
# Streaming Poisson arrivals with service departures, composed with a
# 10% node crash and a lossy channel.  lb_sim exits 4 if the final
# ledger (init + arrivals + fault-injected − departures − lost) does not
# balance, so a plain exit-0 run IS the conservation check.
wl=$(dune exec bin/lb_sim.exe -- --graph torus:8x8 --algo send-floor \
  --init point:512 --steps 250 --arrivals uniform --arrival-rate 24 \
  --lifetime work:24 --burst 512@100:node=3 --workload-seed 9 \
  --crash-nodes 0.1@60 --drop 0.05 --delay 1 --net-seed 4)
echo "$wl" | grep -q 'ledger conserved' || {
  echo "open-system run did not report a conserved ledger" >&2
  exit 1
}
# Identical --workload-seed must replay the identical trace.
wl2=$(dune exec bin/lb_sim.exe -- --graph torus:8x8 --algo send-floor \
  --init point:512 --steps 250 --arrivals uniform --arrival-rate 24 \
  --lifetime work:24 --burst 512@100:node=3 --workload-seed 9 \
  --crash-nodes 0.1@60 --drop 0.05 --delay 1 --net-seed 4)
if [ "$wl" != "$wl2" ]; then
  echo "two identically-seeded open-system runs diverged" >&2
  exit 1
fi

echo "== workload smoke: quick E17 reproduces the stability shape =="
# run_workload_sweep exits non-zero unless: bounded+conserved below
# capacity, lambda-monotone steady band, divergence detected above.
wl_json=$(mktemp -d -t lb_ci_workload.XXXXXX)
(cd "$wl_json" && "$OLDPWD/_build/default/bench/main.exe" --quick workload > /dev/null)
dune exec bin/jsonlint.exe -- "$wl_json/BENCH_workload.json"
rm -rf "$wl_json"

echo "== obs smoke: --metrics/--profile export parses =="
prom=$(mktemp -t lb_ci_obs.XXXXXX)
dune exec bin/lb_sim.exe -- --graph random:64,6,5 --algo rotor-router \
  --init point:2048 --steps 200 --metrics --metrics-out "$prom" \
  --metrics-every 10 --profile > /dev/null
test -s "$prom" || { echo "empty Prometheus export $prom" >&2; exit 1; }
grep -q '^# TYPE lb_rounds_total counter' "$prom" || {
  echo "Prometheus export is missing lb_rounds_total" >&2
  exit 1
}
grep -q '^lb_discrepancy{engine="core"} ' "$prom" || {
  echo "Prometheus export is missing the core-engine discrepancy gauge" >&2
  exit 1
}
test -s "$prom.jsonl" || { echo "empty JSONL timeline $prom.jsonl" >&2; exit 1; }
dune exec bin/jsonlint.exe -- --jsonl "$prom.jsonl"
rm -f "$prom" "$prom.jsonl"

echo "== dist smoke: lossless cluster is bit-identical to lb_sim =="
# A 4-process loopback cluster with no loss and no chaos must produce
# the exact final load vector of the single-process simulator — the
# node-side round execution mirrors Core.Engine port for port.
dist_dir=$(mktemp -d -t lb_ci_dist.XXXXXX)
dune exec bin/lb_sim.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --steps 60 --dump-loads "$dist_dir/sim.loads" > /dev/null
mkdir "$dist_dir/lossless" "$dist_dir/chaos"
dune exec bin/lb_cluster.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --rounds 60 --shards 4 --band none \
  --out "$dist_dir/cluster.loads" --dir "$dist_dir/lossless"
cmp "$dist_dir/sim.loads" "$dist_dir/cluster.loads" || {
  echo "lossless cluster diverged from lb_sim --dump-loads" >&2
  exit 1
}

echo "== dist smoke: 5% drop + kill -9, conserve tokens, re-enter the band =="
# Chaos run: every data frame has a 5% seeded drop chance, and shard 2
# is SIGKILLed when round 10 commits.  The coordinator must detect the
# death, abort and re-run the wounded round, respawn the shard from its
# checkpoint, and finish with the exact token total (watchdog-audited
# every commit) inside the closed-system discrepancy band (--band auto
# = the Theorem 2.3 bound for this graph).  lb_cluster exits 4 if
# either check fails.  A /metrics endpoint is scraped mid-flight.
dune exec bin/lb_cluster.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --rounds 60 --shards 4 --drop 0.05 --kill 2@10 \
  --band auto --dir "$dist_dir/chaos" --metrics-port 19377 &
cluster_pid=$!
sleep 1
scrape=$(curl -sf --max-time 2 http://127.0.0.1:19377/metrics || true)
wait "$cluster_pid" || {
  echo "chaos cluster run failed (conservation or band)" >&2
  exit 1
}
echo "$scrape" | grep -q '^lb_coord_rounds_committed_total ' || {
  echo "live /metrics scrape missing lb_coord_rounds_committed_total" >&2
  exit 1
}
echo "== dist smoke: coordinator kill -9 mid-round, WAL-replay recovery =="
# The COORDINATOR is SIGKILLed when round 10 commits; the supervisor
# restarts it, the replacement replays the write-ahead log, re-adopts
# the live shards at the frozen round, and resumes.  Lossless recovery
# is exact: the final vector must still be bit-identical to lb_sim.
mkdir "$dist_dir/coord_crash"
dune exec bin/lb_cluster.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --rounds 60 --shards 4 --band auto --kill-coord 10 \
  --out "$dist_dir/crash.loads" --dir "$dist_dir/coord_crash"
cmp "$dist_dir/sim.loads" "$dist_dir/crash.loads" || {
  echo "WAL-replay recovery diverged from lb_sim --dump-loads" >&2
  exit 1
}

echo "== dist smoke: healed partition conserves exactly =="
# Shard 1 is cut off from the cluster for 0.5 s: suspected, declared
# dead, frozen under a new epoch.  On heal it is fenced out of its
# stale epoch and re-admitted from a checkpoint.  lb_cluster exits 4
# unless the token total is exact and the band is re-entered.
mkdir "$dist_dir/partition"
dune exec bin/lb_cluster.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --rounds 60 --shards 4 --band auto \
  --partition 1@0.4-0.9 --dir "$dist_dir/partition"
rm -rf "$dist_dir"

echo "== chaos smoke: 25 seeded fault schedules preserve the invariants =="
# lb_chaos generates scenarios (graph x init x algo x kills x terms x
# coordinator kills x partitions x loss) as a pure function of
# (--seed, index) and runs each as a real forked cluster; any broken
# invariant (conservation, band, termination) fails the run.
dune exec bin/lb_chaos.exe -- --scenarios 25 --seed 42

echo "== chaos smoke: the shrinker reduces an injected bug to a reproducer =="
# Plant a persistent audit-misreporting bug in every scenario: the
# poison budget must trip (exit 4), lb_chaos must exit 1, and the
# failing schedule must shrink to a replayable lb_cluster command line.
chaos_log=$(mktemp -t lb_ci_chaos.XXXXXX)
if dune exec bin/lb_chaos.exe -- --scenarios 2 --seed 42 \
  --inject from:0@2 --lbs-out "$chaos_log.lbs" > "$chaos_log" 2>&1; then
  echo "lb_chaos did not fail on an injected persistent misreport" >&2
  cat "$chaos_log" >&2
  exit 1
fi
grep -q 'minimal reproducer' "$chaos_log" || {
  echo "lb_chaos failed without printing a minimal reproducer" >&2
  cat "$chaos_log" >&2
  exit 1
}
grep -q 'lb_cluster --graph' "$chaos_log" || {
  echo "the minimal reproducer is not a replayable lb_cluster command" >&2
  cat "$chaos_log" >&2
  exit 1
}
# The same finding as a scenario file: it must carry the dist clause
# and pass the scenario checker.
grep -q 'dist {' "$chaos_log.lbs" || {
  echo "lb_chaos .lbs finding is missing its dist clause" >&2
  cat "$chaos_log.lbs" >&2
  exit 1
}
dune exec bin/lb_scn.exe -- check "$chaos_log.lbs" > /dev/null
rm -f "$chaos_log" "$chaos_log.lbs"

echo "== scenario smoke: the example files check, and fmt is a fixpoint =="
dune exec bin/lb_scn.exe -- check \
  examples/scenarios/e15.lbs examples/scenarios/e16.lbs \
  examples/scenarios/e17.lbs examples/scenarios/showcase.lbs
scn_tmp=$(mktemp -d -t lb_ci_scn.XXXXXX)
dune exec bin/lb_scn.exe -- fmt examples/scenarios/showcase.lbs > "$scn_tmp/1.lbs"
dune exec bin/lb_scn.exe -- fmt "$scn_tmp/1.lbs" > "$scn_tmp/2.lbs"
cmp "$scn_tmp/1.lbs" "$scn_tmp/2.lbs" || {
  echo "lb_scn fmt is not idempotent" >&2
  exit 1
}

echo "== scenario smoke: ill-typed files exit 2 with a source position =="
printf 'let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer rotor-router\n  steps 5\n  net { staleness 2 }\n}\n' \
  > "$scn_tmp/bad.lbs"
if dune exec bin/lb_scn.exe -- check "$scn_tmp/bad.lbs" 2> "$scn_tmp/bad.err"; then
  echo "lb_scn check accepted an ill-typed scenario" >&2
  exit 1
fi
grep -q 'bad.lbs:6:3: staleness without a net layer' "$scn_tmp/bad.err" || {
  echo "lb_scn check error is missing its line:col position" >&2
  cat "$scn_tmp/bad.err" >&2
  exit 1
}

echo "== scenario golden: compiled E15/E16/E17 are byte-identical to lb_experiments =="
for e in e15 e16 e17; do
  dune exec bin/lb_scn.exe -- run --quick "examples/scenarios/$e.lbs" \
    > "$scn_tmp/scn.out"
  dune exec bin/lb_experiments.exe -- --quick "$e" > "$scn_tmp/exp.out"
  cmp "$scn_tmp/scn.out" "$scn_tmp/exp.out" || {
    echo "lb_scn run examples/scenarios/$e.lbs diverged from lb_experiments $e" >&2
    exit 1
  }
done

echo "== scenario fuzz: 200 seeded scenarios preserve the machine-wide invariants =="
dune exec bin/lb_scn.exe -- fuzz --seed 7 --count 200 > /dev/null

echo "== scenario fuzz: the shrinker reduces an injected bug to a minimal .lbs =="
if dune exec bin/lb_scn.exe -- fuzz --seed 3 --count 50 --fail-on net \
  --out "$scn_tmp/finding.lbs" > "$scn_tmp/fuzz.log" 2>&1; then
  echo "lb_scn fuzz did not fail under --fail-on net" >&2
  cat "$scn_tmp/fuzz.log" >&2
  exit 1
fi
grep -q 'minimal reproducer' "$scn_tmp/fuzz.log" || {
  echo "lb_scn fuzz failed without printing a minimal reproducer" >&2
  cat "$scn_tmp/fuzz.log" >&2
  exit 1
}
grep -q 'net {' "$scn_tmp/finding.lbs" || {
  echo "the minimal .lbs lost the layer the failure predicate needs" >&2
  cat "$scn_tmp/finding.lbs" >&2
  exit 1
}
# The finding must itself be a checkable, runnable scenario.
dune exec bin/lb_scn.exe -- check "$scn_tmp/finding.lbs" > /dev/null
dune exec bin/lb_scn.exe -- run "$scn_tmp/finding.lbs" > /dev/null
rm -rf "$scn_tmp"

echo "== bench smoke: every BENCH_*.json artifact is well-formed JSON =="
bench_json=$(mktemp -d -t lb_ci_bench.XXXXXX)
# dist runs in its own process: it forks, which OCaml 5 forbids once
# the shard section has spawned domains in the same process.
(cd "$bench_json" && "$OLDPWD/_build/default/bench/main.exe" \
  --quick dist > /dev/null)
(cd "$bench_json" && "$OLDPWD/_build/default/bench/main.exe" \
  --quick shard faults net obs > /dev/null)
dune exec bin/jsonlint.exe -- \
  "$bench_json/BENCH_shard.json" "$bench_json/BENCH_faults.json" \
  "$bench_json/BENCH_net.json" "$bench_json/BENCH_obs.json" \
  "$bench_json/BENCH_dist.json"
rm -rf "$bench_json"

echo "== bench smoke: reduced expander-seq reaches its recorded digest =="
# A short run of the benchmark at the default seed.  Its checks include
# the recorded reduced-scale final-load digest, which pins the seed-1
# random regular graph and the rotor-router rounds on it end to end;
# run.py exits non-zero when any check fails.
python3 perfbench/run.py --workload expander-seq --scale reduced \
  --seconds 0.3 --trace 0 > /dev/null

echo "== ci.sh: all green =="
