# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check chaos-smoke alloc-gate bench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: full build (warnings are errors in the dev profile — see the
# env stanza in dune-project), the whole test suite, then end-to-end serving
# smoke runs — fault-free, fault-injected (gated on goodput), and a
# replicated cluster with a dead-device replica — to catch CLI wiring
# breakage that unit tests can miss. The overload smoke arms the full
# resilience stack (retry budget, concurrency limiter, brownout) against an
# over-capacity fault-injected stream, gated on goodput; the overload bench
# runs twice and its JSON (BENCH_overload.json, a CI artifact) must be
# byte-identical across runs. The trace smoke runs the cluster twice
# with the same seed and demands byte-identical, schema-valid Chrome traces
# (TRACE_cluster.json, uploaded as a CI artifact alongside
# BENCH_cluster.json). The multi-tenant smoke serves three tenants with the
# autoscaler on and one fault-injected replica slot, gated on goodput; the
# tenants bench runs twice and its JSON (BENCH_tenants.json, a CI artifact)
# must be byte-identical across runs. The integrity smoke serves a
# replicated cluster with one replica silently corrupting 40% of its
# batches under full auditing — the CLI exits nonzero if any corrupted
# result is delivered at --audit 1, and the run is additionally gated on
# goodput; the integrity bench (delivered corruption and goodput vs audit
# rate, BENCH_integrity.json, a CI artifact) runs twice and must be
# byte-identical across runs. The simulator-core scale bench (heap event
# loop + EDF admission heap vs the retained Map/sorted-list reference at
# 10^3..10^6 requests, BENCH_scale.json, a CI artifact) runs twice and
# must be byte-identical — its JSON carries only virtual-time results,
# never wall time — and its in-process gate demands byte-identical
# summaries across backends at every size. A seed-equivalence gate
# additionally requires the regenerated BENCH_cluster.json and
# BENCH_tenants.json to be byte-identical to the committed pre-refactor
# outputs (git diff --exit-code), proving the heap rewrite changed
# nothing but speed on legacy-sized configs. The same gate holds the
# committed BENCH_overload.json, BENCH_integrity.json and
# BENCH_partition.json, which pin the single server's fault and
# resilience path, the replica's audit and quarantine path and the
# cluster's net path through the shared batch-recovery loop. The network smoke routes a
# 3-replica round-robin cluster through the lossy virtual transport with a
# mid-run partition of one replica — exactly-once dedup, timeout-driven
# link-down failover and the forced heal probe all on the hot path, gated
# on goodput; the partition bench (exactly-once vs naive resend vs direct
# calls through the same partition, BENCH_partition.json, a CI artifact)
# runs twice and must be byte-identical across runs. The allocation gate
# bounds host-side allocation per item of DFG construction and of tensor
# value computation (see alloc-gate). The paper gate reruns every paper
# reproduction (table4-table9, fig5, fig9: virtual time only) twice and
# requires both runs to be byte-identical to each other and to the
# committed BENCH_paper.json (a CI artifact), so host-speed work cannot
# move a paper result unnoticed. The observability gate does the same for
# the serving metrics timeline of one fault-injected run (final counters
# plus periodic snapshots, BENCH_obs.json, a CI artifact), so the export's
# keys, order and values cannot move unnoticed.
PAPER_EXPERIMENTS = table4 table5 table6 table7 table8 table9 fig5 fig9

check: build test
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 2000 --requests 50 --iters 100
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 2000 --requests 50 --iters 100 \
	  --faults "seed=7,kernel=0.05,straggler=0.02x6,reset=0.001" \
	  --min-goodput 0.9
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 2000 --requests 50 --iters 100 --replicas 3 --hedge 90 \
	  --faults "seed=7,kernel=0.75,reset=0.1" --min-goodput 0.95 \
	  --trace TRACE_cluster.json
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 2000 --requests 50 --iters 100 --replicas 3 --hedge 90 \
	  --faults "seed=7,kernel=0.75,reset=0.1" --min-goodput 0.95 \
	  --trace TRACE_cluster_rerun.json
	cmp TRACE_cluster.json TRACE_cluster_rerun.json
	dune exec bin/acrobatc.exe -- trace TRACE_cluster.json
	dune exec bench/main.exe -- cluster --json BENCH_cluster.json
	dune exec bin/acrobatc.exe -- serve --size tiny --iters 100 --requests 60 \
	  --seed 3 --tenant alpha:treelstm:2000:50:8 --tenant beta:birnn:1000:100:4:2 \
	  --tenant gamma:moe:500:0:64 --autoscale 1:3 \
	  --faults "seed=7,kernel=0.2" --min-goodput 0.9
	dune exec bench/main.exe -- tenants --json BENCH_tenants.json
	dune exec bench/main.exe -- tenants --json BENCH_tenants_rerun.json
	cmp BENCH_tenants.json BENCH_tenants_rerun.json
	git diff --exit-code -- BENCH_cluster.json BENCH_tenants.json
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 6000 --requests 400 --iters 100 \
	  --faults "seed=7,kernel=0.1" --retry-budget 0.2 \
	  --concurrency-target 12 --brownout 6:10:2 --min-goodput 0.9
	dune exec bench/main.exe -- overload --json BENCH_overload.json
	dune exec bench/main.exe -- overload --json BENCH_overload_rerun.json
	cmp BENCH_overload.json BENCH_overload_rerun.json
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 3000 --requests 80 --iters 100 --replicas 2 \
	  --faults "seed=21,corrupt=0.4" --audit 1 --min-goodput 0.5
	dune exec bench/main.exe -- integrity --json BENCH_integrity.json
	dune exec bench/main.exe -- integrity --json BENCH_integrity_rerun.json
	cmp BENCH_integrity.json BENCH_integrity_rerun.json
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 2000 --requests 80 --iters 100 --replicas 3 --dispatch rr \
	  --net "seed=11,delay=150:50,drop=0.05,dup=0.2,partition=10000:25000:2,timeout=5000,resends=3" \
	  --min-goodput 0.9
	dune exec bench/main.exe -- partition --json BENCH_partition.json
	dune exec bench/main.exe -- partition --json BENCH_partition_rerun.json
	cmp BENCH_partition.json BENCH_partition_rerun.json
	git diff --exit-code -- BENCH_overload.json BENCH_integrity.json BENCH_partition.json
	dune exec bench/main.exe -- $(PAPER_EXPERIMENTS) --json BENCH_paper.json
	dune exec bench/main.exe -- $(PAPER_EXPERIMENTS) --json BENCH_paper_rerun.json
	cmp BENCH_paper.json BENCH_paper_rerun.json
	git diff --exit-code -- BENCH_paper.json
	dune exec bench/main.exe -- obs --json BENCH_obs.json
	dune exec bench/main.exe -- obs --json BENCH_obs_rerun.json
	cmp BENCH_obs.json BENCH_obs_rerun.json
	git diff --exit-code -- BENCH_obs.json
	$(MAKE) chaos-smoke
	$(MAKE) alloc-gate
	dune exec bench/main.exe -- chaos --json BENCH_chaos.json
	dune exec bench/main.exe -- chaos --json BENCH_chaos_rerun.json
	cmp BENCH_chaos.json BENCH_chaos_rerun.json
	dune exec bench/main.exe -- scale --json BENCH_scale.json
	dune exec bench/main.exe -- scale --json BENCH_scale_rerun.json
	cmp BENCH_scale.json BENCH_scale_rerun.json

# Bounded fixed-seed chaos campaign: randomized fault scenarios through the
# serve cluster, every run checked against the invariant suite (request
# conservation, terminal-once tracing, no duplicate completions, requeue
# budgets, zero clamped schedules, replay determinism). Any violation
# shrinks to a minimal reproducer written to CHAOS_repro.txt with its
# failing trace in CHAOS_trace.json (uploaded as CI artifacts on failure).
chaos-smoke: build
	dune exec bin/acrobatc.exe -- chaos --seed 42 --runs 60 --fault-prob 0.5 \
	  --shrink --repro CHAOS_repro.txt --trace CHAOS_trace.json

# Host allocation gate: short traced runs of the host-time benchmark
# (~5 s each), failing if gc.minor_words_per_item exceeds the workload's
# bound. The metric is exact for a fixed binary (no timing noise). Each
# bound sits ~20% above its reading with the allocation-lean DFG and
# executor (DESIGN.md §19), the constant-cost serving path (§20),
# batched-only DFG nodes (§21) and AOT calls without forwarded weights
# (§23), so a return to per-node lists, closures or boxed floats in DFG
# construction or batch execution, to per-batch kernel plans, to shared
# arguments on every node, to per-event boxing in the event loop, or to
# frames carrying forwarded weights fails it. offline-treelstm reads
# ~5.64k (7.64k before §23, 8.86k before §21, 25.6k before §19, ~419k
# before node plans, §17). offline-stackrnn-values reads ~69.6k (70.6k
# before §23, 71.7k before §21, 81.9k before §19, ~212k before the tight
# host kernels, §18). serve-birnn reads ~15.7k (16.8k before §23, 17.9k
# before §21, 22.5k before §20, 35.5k before §19) and fleet-overload
# ~1.26k per request (1.28k before §23, 1.34k before §21, 2.19k before
# §20, 2.4k before §19).
ALLOC_GATES = offline-treelstm:6800 offline-stackrnn-values:86000 \
  serve-birnn:18800 fleet-overload:1530

alloc-gate: build
	@for gate in $(ALLOC_GATES); do \
	  workload=$${gate%%:*}; max=$${gate##*:}; \
	  out=$$(mktemp -d) && \
	  dune exec bench/perf/main.exe -- --workload $$workload --seed 1 --seconds 2 \
	    --trace 1 --out $$out > $$out/stdout.txt && \
	  awk -v max=$$max -v workload=$$workload \
	    '$$1 == "gc.minor_words_per_item" { seen = 1; words = $$2 } \
	     END { if (!seen) { print "alloc-gate: gc.minor_words_per_item not reported"; exit 1 } \
	           printf "alloc-gate: %s gc.minor_words_per_item %.0f (max %d)\n", workload, words, max; \
	           exit (words > max) }' $$out/stdout.txt; \
	  status=$$?; rm -rf $$out; [ $$status -eq 0 ] || exit $$status; \
	done

bench:
	dune exec bench/main.exe

clean:
	dune clean
