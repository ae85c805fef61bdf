# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check opaque-gate chaos-smoke alloc-gate bench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: full build (warnings are errors in the default, optimized
# profile and in --profile dev — see dune-workspace and the env stanza in
# the root dune; the opaque gate below keeps the default build inlining
# across modules), the whole test suite, then end-to-end serving
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
# byte-identical across runs. The simulator-core scale bench (the
# production serving core — heap event agenda + EDF admission heap — vs
# its reference build over the Map agenda and sorted-list queue, the
# private library under test/reference/, at 10^3..10^6 requests,
# BENCH_scale.json, a CI artifact) runs twice and must be byte-identical
# to itself and to the committed file — its JSON carries only
# virtual-time results, never wall time — and its in-process gate
# fails the run unless the two builds' summaries are byte-identical at
# every size.
# A seed-equivalence gate additionally requires the regenerated
# BENCH_cluster.json and BENCH_tenants.json to be byte-identical to the
# committed pre-refactor outputs (git diff --exit-code), proving the heap
# rewrite changed nothing but speed on legacy-sized configs. The same
# gate holds the committed BENCH_overload.json, BENCH_integrity.json and
# BENCH_partition.json, which pin the single server's fault and
# resilience path, the replica's audit and quarantine path and the
# cluster's net path through the shared batch-recovery loop. The network smoke routes a
# 3-replica round-robin cluster through the lossy virtual transport with a
# mid-run partition of one replica — exactly-once dedup, timeout-driven
# link-down failover and the forced heal probe all on the hot path, gated
# on goodput; the partition bench (exactly-once vs naive resend vs direct
# calls through the same partition, BENCH_partition.json, a CI artifact)
# runs twice and must be byte-identical across runs. The overload,
# integrity and partition benches check their acceptance gates (DESIGN.md
# §13, §14, §16) in process, and a failed gate fails the run. The serving
# curve, the fault sweep, the extra ablations and the chaos campaigns
# (BENCH_serve.json, BENCH_faults.json, BENCH_extras.json,
# BENCH_chaos.json) are regenerated too and must be byte-identical to
# their committed files. The allocation gate
# bounds host-side allocation per item of DFG construction and of tensor
# value computation (see alloc-gate). The paper gate reruns every paper
# reproduction (table4-table9, fig5, fig9: virtual time only) twice and
# requires both runs to be byte-identical to each other and to the
# committed BENCH_paper.json (a CI artifact), so host-speed work cannot
# move a paper result unnoticed. The hash-order gate reruns the test
# suite, and generates the paper rerun, under OCAMLRUNPARAM=R, which
# seeds every Hashtbl randomly: no schedule, test or paper number may
# depend on hash order (DESIGN.md §30). The observability gate does the same for
# the serving metrics timeline of one fault-injected run (final counters
# plus periodic snapshots, BENCH_obs.json, a CI artifact), so the export's
# keys, order and values cannot move unnoticed.
PAPER_EXPERIMENTS = table4 table5 table6 table7 table8 table9 fig5 fig9

check: build test opaque-gate
	OCAMLRUNPARAM=R dune test --force
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
	OCAMLRUNPARAM=R dune exec bench/main.exe -- $(PAPER_EXPERIMENTS) --json BENCH_paper_rerun.json
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
	dune exec bench/main.exe -- serve --json BENCH_serve.json
	dune exec bench/main.exe -- faults --json BENCH_faults.json
	dune exec bench/main.exe -- extras --json BENCH_extras.json
	git diff --exit-code -- BENCH_chaos.json BENCH_serve.json BENCH_faults.json BENCH_extras.json
	dune exec bench/main.exe -- scale --json BENCH_scale.json
	dune exec bench/main.exe -- scale --json BENCH_scale_rerun.json
	cmp BENCH_scale.json BENCH_scale_rerun.json
	git diff --exit-code -- BENCH_scale.json

# The default build is the release profile (dune-workspace), which
# compiles no library module -opaque, so calls between modules inline
# (DESIGN.md §33). Fails if Store, a module every DFG node calls into,
# compiles -opaque, as every module does under --profile dev; it also
# fails if dune has no rule for that object.
OPAQUE_PROBE = _build/default/lib/runtime/.acrobat_runtime.objs/native/acrobat_runtime__Store.cmx

opaque-gate:
	@rules=$$(dune rules $(OPAQUE_PROBE)) && echo "$$rules" | grep -q ocamlopt || \
	  { echo "opaque-gate: no ocamlopt rule for $(OPAQUE_PROBE)"; exit 1; }; \
	if echo "$$rules" | grep -q -- -opaque; then \
	  echo "opaque-gate: $(OPAQUE_PROBE) compiles -opaque: the default build does not inline across modules"; \
	  exit 1; \
	fi

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
# (~5 s each), failing if gc.minor_words_per_item exceeds the
# workload's bound, or gc.promoted_words_per_item its second bound
# where one is given. The metrics are exact for a fixed binary (no
# timing noise), but Gc.quick_stat counts minor words only up to the
# last minor collection, so a reading can move a few words per item
# against the true count (DESIGN.md §32). Each bound sits ~20% above
# its current reading: room for that drift, yet a return to per-node
# records, lists, closures or boxed floats in DFG construction,
# scheduling or batch execution, to per-launch arrays or per-batch
# kernel plans or staging, to per-event boxing in the event loop or to
# trace work on untraced devices fails it. The promoted bound proves the
# live DFG is no longer promoted: a node graph of records outlives a
# minor heap. Current readings per item: offline-treelstm ~2.82k minor
# and 137 promoted words (~2.71k promoted with record nodes),
# offline-stackrnn-values ~63.5k, serve-birnn ~6.05k and fleet-overload
# ~873 per request. DESIGN.md §17-§33 record how each reading fell.
ALLOC_GATES = offline-treelstm:3380:164 offline-stackrnn-values:76200 \
  serve-birnn:7260 fleet-overload:1050

alloc-gate: build
	@for gate in $(ALLOC_GATES); do \
	  workload=$${gate%%:*}; bounds=$${gate#*:}; max=$${bounds%%:*}; \
	  promoted=$${bounds#*:}; [ "$$promoted" = "$$bounds" ] && promoted=; \
	  out=$$(mktemp -d) && \
	  dune exec bench/perf/main.exe -- --workload $$workload --seed 1 --seconds 2 \
	    --trace 1 --out $$out > $$out/stdout.txt && \
	  awk -v max=$$max -v promoted_max=$$promoted -v workload=$$workload \
	    '$$1 == "gc.minor_words_per_item" { seen = 1; words = $$2 } \
	     $$1 == "gc.promoted_words_per_item" { pseen = 1; promoted = $$2 } \
	     END { if (!seen) { print "alloc-gate: gc.minor_words_per_item not reported"; exit 1 } \
	           printf "alloc-gate: %s gc.minor_words_per_item %.0f (max %d)\n", workload, words, max; \
	           bad = words > max; \
	           if (promoted_max != "") { \
	             if (!pseen) { print "alloc-gate: gc.promoted_words_per_item not reported"; exit 1 } \
	             printf "alloc-gate: %s gc.promoted_words_per_item %.0f (max %d)\n", workload, promoted, promoted_max; \
	             bad = bad || promoted > promoted_max+0 } \
	           exit bad }' $$out/stdout.txt; \
	  status=$$?; rm -rf $$out; [ $$status -eq 0 ] || exit $$status; \
	done

bench:
	dune exec bench/main.exe

clean:
	dune clean
