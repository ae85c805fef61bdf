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
# across modules), the whole test suite, and the test suite again under
# OCAMLRUNPARAM=R, which seeds every Hashtbl randomly: no schedule or
# test may depend on hash order (DESIGN.md §30). Then end-to-end serving
# smoke runs through the CLI, each gated on goodput: fault-free,
# fault-injected, a replicated cluster with hedging (its Chrome trace,
# TRACE_cluster.json, generated twice and byte-compared), three tenants
# under the autoscaler, the full resilience stack over capacity, a
# silently corrupting replica under full auditing (the CLI exits nonzero
# if a corrupted result is delivered at --audit 1) and a lossy,
# partitioned network. BENCH_cluster.json must match its committed file.
# Eight pinned benches (tenants, overload, integrity, partition, the
# paper reproductions table4-table9, fig5 and fig9, obs, chaos and the
# simulator-core scale race) each run twice, the paper rerun under
# OCAMLRUNPARAM=R, and both JSONs must be byte-identical to each other
# and to the committed file (pinned-bench). Their JSON holds virtual time
# only, so host-speed work cannot move a result unnoticed. The overload,
# integrity, partition and scale benches also check their acceptance
# gates in process (DESIGN.md §13, §14, §15, §16), and a failed gate
# fails the run. The serving curve, the fault sweep and the extra
# ablations (BENCH_serve.json, BENCH_faults.json, BENCH_extras.json) are
# regenerated and must match their committed files too. The chaos smoke
# and the allocation gate (see below) run in between.
PAPER_EXPERIMENTS = table4 table5 table6 table7 table8 table9 fig5 fig9

# $(call pinned-bench,NAME[,ARGS[,RERUN-PREFIX]]): run bench/main.exe ARGS
# (default NAME) into BENCH_NAME.json, rerun it, prefixed by RERUN-PREFIX,
# into BENCH_NAME_rerun.json, and require the two byte-identical to each
# other and to the committed BENCH_NAME.json.
define pinned-bench
	dune exec bench/main.exe -- $(or $(2),$(1)) --json BENCH_$(1).json
	$(3) dune exec bench/main.exe -- $(or $(2),$(1)) --json BENCH_$(1)_rerun.json
	cmp BENCH_$(1).json BENCH_$(1)_rerun.json
	git diff --exit-code -- BENCH_$(1).json
endef

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
	git diff --exit-code -- BENCH_cluster.json
	dune exec bin/acrobatc.exe -- serve --size tiny --iters 100 --requests 60 \
	  --seed 3 --tenant alpha:treelstm:2000:50:8 --tenant beta:birnn:1000:100:4:2 \
	  --tenant gamma:moe:500:0:64 --autoscale 1:3 \
	  --faults "seed=7,kernel=0.2" --min-goodput 0.9
	$(call pinned-bench,tenants)
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 6000 --requests 400 --iters 100 \
	  --faults "seed=7,kernel=0.1" --retry-budget 0.2 \
	  --concurrency-target 12 --brownout 6:10:2 --min-goodput 0.9
	$(call pinned-bench,overload)
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 3000 --requests 80 --iters 100 --replicas 2 \
	  --faults "seed=21,corrupt=0.4" --audit 1 --min-goodput 0.5
	$(call pinned-bench,integrity)
	dune exec bin/acrobatc.exe -- serve --model treelstm --size tiny \
	  --rate 2000 --requests 80 --iters 100 --replicas 3 --dispatch rr \
	  --net "seed=11,delay=150:50,drop=0.05,dup=0.2,partition=10000:25000:2,timeout=5000,resends=3" \
	  --min-goodput 0.9
	$(call pinned-bench,partition)
	$(call pinned-bench,paper,$(PAPER_EXPERIMENTS),OCAMLRUNPARAM=R)
	$(call pinned-bench,obs)
	$(MAKE) chaos-smoke
	$(MAKE) alloc-gate
	$(call pinned-bench,chaos)
	dune exec bench/main.exe -- serve --json BENCH_serve.json
	dune exec bench/main.exe -- faults --json BENCH_faults.json
	dune exec bench/main.exe -- extras --json BENCH_extras.json
	git diff --exit-code -- BENCH_serve.json BENCH_faults.json BENCH_extras.json
	$(call pinned-bench,scale)

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
# minor heap. Current readings per item: offline-treelstm ~2.18k minor
# and 113 promoted words (~2.71k promoted with record nodes),
# offline-stackrnn-values ~63.5k, serve-birnn ~6.0k and fleet-overload
# ~865 per request. DESIGN.md §17-§36 record how each reading fell.
ALLOC_GATES = offline-treelstm:2610:136 offline-stackrnn-values:76200 \
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
