.PHONY: all build test bench bench-smoke smoke chaos-smoke churn-smoke serve-smoke obs-smoke check-claims update-baseline update-baseline-full ci clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Quick percolation hot-path bench (cached vs lazy worlds, plus the
# bitset reveal engine) plus a schema check on the emitted JSON, then
# the observability surface: a traced quick experiment must produce
# valid trace/v1 + metrics/v1 documents whose probe accounting replays
# exactly, and an instrumented run must leave the disabled-path cost
# unchanged. The bitset engine's timing must land both in the snapshot
# and in the appended history line (the regression flag covers it).
# Everything lands under artifacts/ (gitignored), not the repo root.
bench-smoke:
	mkdir -p artifacts
	dune exec bench/main.exe -- --percolation-only --quick --out artifacts/SMOKE_bench.json --history artifacts/SMOKE_history.jsonl
	grep -q '"schema": "bench_percolation/v3"' artifacts/SMOKE_bench.json
	grep -q '"speedup"' artifacts/SMOKE_bench.json
	grep -q '"bitset_ns"' artifacts/SMOKE_bench.json
	grep -q '"bitset_speedup"' artifacts/SMOKE_bench.json
	tail -1 artifacts/SMOKE_history.jsonl | grep -q '"bitset_ns"'
	grep -q '"commit"' artifacts/SMOKE_bench.json
	grep -q '"timestamp"' artifacts/SMOKE_bench.json
	dune exec bin/faultroute.exe -- exp E1 --quick --strict-shortfall --trace artifacts/SMOKE_trace.jsonl --metrics-out artifacts/SMOKE_metrics.json > /dev/null
	head -1 artifacts/SMOKE_trace.jsonl | grep -q '"schema": "trace/v1"'
	grep -q '"schema": "metrics/v1"' artifacts/SMOKE_metrics.json
	grep -q '"trial.accepts"' artifacts/SMOKE_metrics.json
	dune exec bin/faultroute.exe -- trace artifacts/SMOKE_trace.jsonl
	dune exec bench/main.exe -- --obs-guard

# The quick catalog on two domains — exercises the parallel engine end
# to end; output must match a --jobs 1 run byte for byte, and any
# under-sampled report fails the run (exit 3).
smoke:
	dune exec bin/faultroute.exe -- all --quick --jobs 2 --strict-shortfall > /dev/null

# Fault tolerance end to end. Leg 1: the quick catalog under a
# recoverable fault plan (injected crashes, a stall, a flaky chunk)
# must be byte-identical to the fault-free run at --jobs 1 and 4, with
# the faults/v1 summary confined to stderr. Leg 2: a die@N plan kills
# the process mid-run (exit 137) while completed chunks stream to an
# append-only checkpoint; --resume at a different job count completes
# the run byte-identically, restoring rather than recomputing the
# finished chunks (checkpoint.chunks.restored > 0 in metrics/v1).
# Leg 3: the same catalog with metrics, telemetry and profiling on must
# be byte-identical to the clean run, and all three artifacts must
# validate.
chaos-smoke:
	mkdir -p artifacts
	rm -rf artifacts/CHAOS_ckpt
	dune exec bin/faultroute.exe -- all --quick --jobs 2 --seed 1 > artifacts/CHAOS_clean.txt
	dune exec bin/faultroute.exe -- all --quick --jobs 1 --seed 1 --inject 'crash@3,stall@5,flaky:0.05x2,seed=9' > artifacts/CHAOS_fault_j1.txt 2> artifacts/CHAOS_faults.json
	dune exec bin/faultroute.exe -- all --quick --jobs 4 --seed 1 --inject 'crash@3,stall@5,flaky:0.05x2,seed=9' > artifacts/CHAOS_fault_j4.txt 2> /dev/null
	cmp artifacts/CHAOS_clean.txt artifacts/CHAOS_fault_j1.txt
	cmp artifacts/CHAOS_clean.txt artifacts/CHAOS_fault_j4.txt
	grep -q '"schema": "faults/v1"' artifacts/CHAOS_faults.json
	dune exec bin/faultroute.exe -- all --quick --jobs 2 --seed 1 --metrics-out artifacts/CHAOS_obs_metrics.json --telemetry-out artifacts/CHAOS_obs_telemetry.jsonl --profile-out artifacts/CHAOS_obs_profile.json > artifacts/CHAOS_instrumented.txt
	cmp artifacts/CHAOS_clean.txt artifacts/CHAOS_instrumented.txt
	dune exec bin/faultroute.exe -- obs validate artifacts/CHAOS_obs_metrics.json artifacts/CHAOS_obs_telemetry.jsonl artifacts/CHAOS_obs_profile.json
	dune exec bin/faultroute.exe -- exp E2 --quick --jobs 2 --seed 1 > artifacts/CHAOS_e2_clean.txt
	dune exec bin/faultroute.exe -- exp E2 --quick --jobs 2 --seed 1 --checkpoint artifacts/CHAOS_ckpt --inject 'die@6' > /dev/null 2>&1; test $$? -eq 137
	dune exec bin/faultroute.exe -- exp E2 --quick --jobs 4 --seed 1 --checkpoint artifacts/CHAOS_ckpt --resume --metrics-out artifacts/CHAOS_metrics.json > artifacts/CHAOS_e2_resumed.txt
	cmp artifacts/CHAOS_e2_clean.txt artifacts/CHAOS_e2_resumed.txt
	grep -q '"checkpoint.chunks.restored": [1-9]' artifacts/CHAOS_metrics.json

# Dynamic faults end to end. Leg 1: a churned gossip simulation must
# be byte-identical across --jobs values (link trajectories are pure
# in the seeds, never in scheduling), and its trace/v1 must replay
# exactly. Leg 2: the churn sweep experiment (E26) killed mid-run by a
# die@N plan (exit 137) must --resume from the checkpoint at a
# different job count byte-identically, restoring finished chunks
# (value cells) instead of recomputing them.
churn-smoke:
	mkdir -p artifacts
	rm -rf artifacts/CHURN_ckpt
	dune exec bin/faultroute.exe -- simulate hypercube:8 -p 1.0 --protocol gossip --churn 'fail=0.05,repair=0.3,seed=7' --rounds 40 --seed 11 --jobs 1 > artifacts/CHURN_sim_j1.txt
	dune exec bin/faultroute.exe -- simulate hypercube:8 -p 1.0 --protocol gossip --churn 'fail=0.05,repair=0.3,seed=7' --rounds 40 --seed 11 --jobs 4 > artifacts/CHURN_sim_j4.txt
	cmp artifacts/CHURN_sim_j1.txt artifacts/CHURN_sim_j4.txt
	dune exec bin/faultroute.exe -- simulate hypercube:8 -p 1.0 --protocol gossip --churn 'fail=0.05,repair=0.3,seed=7' --seed 11 --trace artifacts/CHURN_trace.jsonl > /dev/null
	head -1 artifacts/CHURN_trace.jsonl | grep -q '"schema": "trace/v1"'
	grep -q '"schema": "churnplan/v1"' artifacts/CHURN_trace.jsonl
	dune exec bin/faultroute.exe -- trace artifacts/CHURN_trace.jsonl
	dune exec bin/faultroute.exe -- exp E26 --quick --jobs 1 --seed 1 > artifacts/CHURN_e26_clean.txt
	dune exec bin/faultroute.exe -- exp E26 --quick --jobs 1 --seed 1 --checkpoint artifacts/CHURN_ckpt --inject 'die@2' > /dev/null 2>&1; test $$? -eq 137
	dune exec bin/faultroute.exe -- exp E26 --quick --jobs 4 --seed 1 --checkpoint artifacts/CHURN_ckpt --resume --metrics-out artifacts/CHURN_metrics.json > artifacts/CHURN_e26_resumed.txt
	cmp artifacts/CHURN_e26_clean.txt artifacts/CHURN_e26_resumed.txt
	grep -q '"checkpoint.chunks.restored": [1-9]' artifacts/CHURN_metrics.json

# The query service end to end. Leg 1: replay the committed 10k-query
# file, concatenated to 100k, against the 3-world example manifest at
# --jobs 1 and --jobs 4; answers and evidence/v1 must be byte-identical
# and every claim in the evidence file must hold (each world built
# exactly once, every admitted query answered). Leg 2: the same 10k
# file against worlds of three different sizes (hypercube:14,
# mesh2:32, torus2:64), so each domain's reused oracle and reveal
# scratch moves between worlds; --jobs 1 and --jobs 4 must agree byte
# for byte. Leg 3: a traced run over the small demo queries whose
# trace/v1 must replay exactly.
serve-smoke:
	mkdir -p artifacts
	for i in 1 2 3 4 5 6 7 8 9 10; do cat examples/serve/queries-10k.jsonl; done > artifacts/SERVE_queries_100k.jsonl
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries artifacts/SERVE_queries_100k.jsonl --jobs 1 --out artifacts/SERVE_answers_j1.jsonl --evidence-out artifacts/SERVE_evidence_j1.json --metrics-out artifacts/SERVE_metrics.json
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries artifacts/SERVE_queries_100k.jsonl --jobs 4 --out artifacts/SERVE_answers_j4.jsonl --evidence-out artifacts/SERVE_evidence_j4.json
	cmp artifacts/SERVE_answers_j1.jsonl artifacts/SERVE_answers_j4.jsonl
	cmp artifacts/SERVE_evidence_j1.json artifacts/SERVE_evidence_j4.json
	grep -q '"schema": "evidence/v1"' artifacts/SERVE_evidence_j1.json
	grep -q '"worldpool.constructed": 3' artifacts/SERVE_metrics.json
	dune exec bin/faultroute.exe -- evidence artifacts/SERVE_evidence_j1.json
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session-sizes.json --queries examples/serve/queries-10k.jsonl --jobs 1 --out artifacts/SERVE_sizes_answers_j1.jsonl --evidence-out artifacts/SERVE_sizes_evidence_j1.json
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session-sizes.json --queries examples/serve/queries-10k.jsonl --jobs 4 --out artifacts/SERVE_sizes_answers_j4.jsonl --evidence-out artifacts/SERVE_sizes_evidence_j4.json
	cmp artifacts/SERVE_sizes_answers_j1.jsonl artifacts/SERVE_sizes_answers_j4.jsonl
	cmp artifacts/SERVE_sizes_evidence_j1.json artifacts/SERVE_sizes_evidence_j4.json
	dune exec bin/faultroute.exe -- evidence artifacts/SERVE_sizes_evidence_j1.json
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries examples/serve/queries.jsonl --trace artifacts/SERVE_trace.jsonl > /dev/null
	head -1 artifacts/SERVE_trace.jsonl | grep -q '"schema": "trace/v1"'
	dune exec bin/faultroute.exe -- trace artifacts/SERVE_trace.jsonl

# Run telemetry end to end. A serve run with the whole reporting layer
# armed (telemetry/v1 heartbeats, profile/v1 spans, metrics/v1,
# trace/v1 query spans, runledger/v1) must keep answer and evidence
# bytes identical to an instrumentation-off run at a different --jobs;
# every emitted artifact must validate through the obs inspector, the
# report must actually show per-domain pool utilization and latency
# quantiles, the trace must replay (probe accounting + query lifecycle
# spans), and `faultroute top --once --replay` must render the final
# heartbeat. Then the audit side: tampering with a ledgered artifact
# must fail `obs validate` with exit 2. Then the cost side:
# instrumenting the hot paths must leave the disabled-path cost
# unchanged (--obs-guard, <5%).
obs-smoke:
	mkdir -p artifacts
	rm -f artifacts/OBS_ledger.jsonl
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries examples/serve/queries-10k.jsonl --jobs 4 --telemetry-out artifacts/OBS_telemetry.jsonl --profile-out artifacts/OBS_profile.json --metrics-out artifacts/OBS_metrics.json --trace artifacts/OBS_trace.jsonl --ledger artifacts/OBS_ledger.jsonl --out artifacts/OBS_answers_on.jsonl --evidence-out artifacts/OBS_evidence_on.json
	dune exec bin/faultroute.exe -- serve --manifest examples/serve/session.json --queries examples/serve/queries-10k.jsonl --jobs 1 --out artifacts/OBS_answers_off.jsonl --evidence-out artifacts/OBS_evidence_off.json
	cmp artifacts/OBS_answers_on.jsonl artifacts/OBS_answers_off.jsonl
	cmp artifacts/OBS_evidence_on.json artifacts/OBS_evidence_off.json
	dune exec bin/faultroute.exe -- obs validate artifacts/OBS_ledger.jsonl artifacts/OBS_telemetry.jsonl artifacts/OBS_profile.json artifacts/OBS_metrics.json artifacts/OBS_trace.jsonl
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_telemetry.jsonl | grep -q 'pool utilization'
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_telemetry.jsonl | grep -q 'p95'
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_profile.json | grep -q 'profile/v1'
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_ledger.jsonl | grep -q 'digests verified'
	dune exec bin/faultroute.exe -- obs report artifacts/OBS_trace.jsonl | grep -q 'query spans'
	dune exec bin/faultroute.exe -- trace artifacts/OBS_trace.jsonl
	dune exec bin/faultroute.exe -- top --once --replay artifacts/OBS_telemetry.jsonl | grep -q 'pool'
	test -n "$$(dune exec bin/faultroute.exe -- obs folded artifacts/OBS_profile.json)"
	echo tamper >> artifacts/OBS_answers_on.jsonl
	dune exec bin/faultroute.exe -- obs validate artifacts/OBS_ledger.jsonl; test $$? -eq 2
	dune exec bench/main.exe -- --obs-guard

# EXPERIMENTS.md's verdict column, machine-checked: run the quick
# catalog, evaluate every experiment's claims and compare the observed
# values against the committed baseline. Exit 2 = a claim band is
# violated; exit 4 = values drifted while the bands still hold.
check-claims:
	dune exec bin/faultroute.exe -- check --quick

# Rewrite the committed baselines from a fresh run (after an intended
# change to measured values). The full variant takes minutes.
update-baseline:
	dune exec bin/faultroute.exe -- check --quick --update

update-baseline-full:
	dune exec bin/faultroute.exe -- check --update

ci: build test smoke chaos-smoke churn-smoke serve-smoke obs-smoke check-claims

clean:
	dune clean
	rm -rf artifacts
