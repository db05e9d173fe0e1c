# Tier-1 gate: everything `make check` runs must pass before a change
# lands. `race` covers the concurrency-bearing packages (the fleet worker
# pool, the parallel experiment registry, shared trace recorders, and the
# stats merging they feed), the protocol cores the live tier runs on its
# wall-paced engine (controller, AP, chaos, switch, codec, selector,
# metrics), and the two packages whose events and envelopes come off
# per-medium free lists (mac, client): fleet workers must share none of them.

GO ?= go

RACE_PKGS = ./internal/fleet ./internal/eval ./internal/trace ./internal/stats \
	./internal/runtime ./internal/backhaul/udp ./internal/live ./internal/federation \
	./internal/urban ./internal/core ./internal/controller ./internal/ap \
	./internal/backhaul ./internal/packet ./internal/selector ./internal/metrics \
	./internal/mac ./internal/client ./internal/chaos

.PHONY: check vet lint build test golden-quick golden race cli-smoke live-smoke fuzz-smoke docs-check metro-scale unreached loc bench bench-pair bench-gate

check: vet lint build test golden-quick race cli-smoke live-smoke fuzz-smoke docs-check

# Static analysis beyond vet. The tools are optional — not every build
# environment ships them — so each is gated on availability rather than
# failing the tier-1 gate on a missing binary.
lint:
	@for t in staticcheck govulncheck; do \
		if command -v $$t >/dev/null 2>&1; then $$t ./... || exit 1; \
		else echo "lint: $$t not installed, skipping"; fi; \
	done

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Documentation lint: every internal package's godoc must carry at least one
# paper-section marker (§) mapping the package to the part of the paper it
# reproduces. `go doc <pkg>` prints the package comment plus bare
# declarations (symbol comments stripped), so grepping it for § tests
# exactly the package comment.
# And every Go name DOC_FILES cite in backticks must exist: a `pkg.Name` or
# `pkg.Type.Member` whose pkg is a directory under internal/ or cmd/ must
# resolve there with `go doc -u`, a `Type.Member` in a package declaring
# Type, and any other `x.Name` in the standard library. A dotted name that
# ends in a file extension is a file, one that ends in snake_case a
# benchmark metric (BENCHMARK.json's layer.metric). A cited `*.go` path must
# be a file from the repository root, internal/ or cmd/ — a bare file name
# one some directory under internal/ or cmd/ holds — and a cited `make X`
# a target this Makefile defines. A `file.go:N` must be within that file's
# line count, and every -flag after a DOC_CLIS name (up to a backtick, `#`
# or `|`) must be one that CLI's -h lists.
# The design record's two contracts: every `DESIGN.md §N` a Go file or
# DESIGN_CITERS cites names a `## N.` heading of DESIGN.md (CHANGES.md is
# history and may cite sections since renumbered), and DESIGN.md keeps to
# 1,000 lines.
DOC_FILES = DESIGN.md README.md
DOC_CLIS = wgttsim wgtt-fleet wgtt-experiments wgtt-live
DESIGN_CITERS = README.md DESIGN.md EXPERIMENTS.md
docs-check:
	@fail=0; d=$$(mktemp -d); for c in $(DOC_CLIS); do \
		$(GO) build -o $$d/$$c ./cmd/$$c && $$d/$$c -h 2>&1 | grep -o '^  -[a-z0-9-]*' | cut -c3- > $$d/$$c.flags; \
	done; \
	grep -oh "\($$(echo $(DOC_CLIS) | sed 's/ /\\|/g')\)\( [^ #\`|]*\)*" $(DOC_FILES) > $$d/cmds; \
	while read -r c args; do \
		for f in $$(echo " $$args" | grep -o ' -[a-z][a-z0-9-]*'); do \
			grep -qx -- "$$f" $$d/$$c.flags || { echo "docs-check: \`$$c $$f\` is no flag of $$c"; fail=1; }; \
		done; \
	done < $$d/cmds; \
	rm -rf $$d; \
	for r in $$(grep -oh '[A-Za-z0-9_/.-]*\.go:[0-9][0-9]*' $(DOC_FILES) | sort -u); do \
		f=$${r%%:*}; n=$${r##*:}; ok=0; \
		for p in $$(ls $$f internal/$$f cmd/$$f 2>/dev/null; case $$f in */*) ;; *) find internal cmd -name $$f;; esac); do \
			[ $$(wc -l < $$p) -ge $$n ] && ok=1; \
		done; \
		[ $$ok -eq 1 ] || { echo "docs-check: \`$$r\` is past the end of the file, or names none"; fail=1; }; \
	done; \
	for d in internal/*/; do \
		pkg=$${d%/}; \
		if ! $(GO) doc ./$$pkg 2>/dev/null | grep -q '§'; then \
			echo "docs-check: $$pkg package godoc has no paper-section (§) marker"; fail=1; \
		fi; \
	done; \
	for n in $$(grep -oh '`[A-Za-z_][A-Za-z0-9_]*\(\.[A-Za-z_][A-Za-z0-9_]*\)\{1,2\}`' $(DOC_FILES) | tr -d '`' | sort -u); do \
		q=$${n%%.*}; sym=$${n#*.}; \
		case $${n##*.} in go|md|txt|json|jsonl|golden|*_*) continue;; esac; \
		case $$q in \
			[A-Z]*) sym=$$n; dirs=$$(grep -rlE --include='*.go' "^type $$q\b" internal cmd | xargs -r -n1 dirname | sort -u);; \
			*) dirs=$$(find internal cmd -type d -name $$q);; \
		esac; \
		ok=0; \
		if [ -z "$$dirs" ]; then $(GO) doc -u $$n >/dev/null 2>&1 && ok=1; fi; \
		for p in $$dirs; do $(GO) doc -u ./$$p $$sym >/dev/null 2>&1 && ok=1; done; \
		if [ $$ok -eq 0 ]; then echo "docs-check: \`$$n\` names nothing in the code"; fail=1; fi; \
	done; \
	for f in $$(grep -oh '`[^` ]*\.go`' $(DOC_FILES) | tr -d '`' | sort -u); do \
		case $$f in \
			*/*) [ -f $$f ] || [ -f internal/$$f ] || [ -f cmd/$$f ];; \
			*) [ -n "$$(find internal cmd -name $$f)" ];; \
		esac || { echo "docs-check: \`$$f\` names no file"; fail=1; }; \
	done; \
	for t in $$(grep -oh '`make [A-Za-z0-9_-]*' $(DOC_FILES) | cut -c7- | sort -u); do \
		grep -q "^$$t:" Makefile || { echo "docs-check: \`make $$t\` names no target"; fail=1; }; \
	done; \
	for n in $$({ grep -rhoE --include='*.go' 'DESIGN\.md §[0-9]+' internal cmd examples bench; \
		grep -hoE 'DESIGN\.md §[0-9]+' $(DESIGN_CITERS); } | grep -oE '[0-9]+$$' | sort -un); do \
		grep -q "^## $$n\. " DESIGN.md || { echo "docs-check: DESIGN.md §$$n is cited, but DESIGN.md has no \"## $$n.\" heading"; fail=1; }; \
	done; \
	lines=$$(wc -l < DESIGN.md); \
	[ $$lines -le 1000 ] || { echo "docs-check: DESIGN.md has $$lines lines, more than 1,000"; fail=1; }; \
	if [ $$fail -ne 0 ]; then exit 1; fi
	@echo docs-check: all internal packages carry a paper-section mapping, every Go name, file, line, CLI flag, make target and DESIGN.md section the docs cite resolves, and DESIGN.md keeps to 1,000 lines

# The targets that run a CLI share one shape:
# $(call in-scratch,<cmds>,<script>[,<build flags>]) builds each cmd/<cmd>
# (or, with no such directory, examples/<cmd>) into a fresh `mktemp -d`
# directory $$d, runs <script> in one shell that stops at the first failing
# command, and removes $$d once everything passed. Concurrent `make check` runs therefore share no file, and a failing
# gate leaves its outputs behind (cmp names them). Timing and progress go to
# stderr, so only stdout is ever compared.
define in-scratch
	@set -e; d=$$(mktemp -d); \
	for c in $(1); do p=./cmd/$$c; [ -d $$p ] || p=./examples/$$c; $(GO) build $(3) -o $$d/$$c $$p; done; \
	$(2); \
	rm -rf $$d
endef

# cmd/testdata/cases.txt as a shell loop: <body> runs once per case with
# $$name, $$cmd and $$flags set. CASE_CMDS is every command the file runs:
# the CLIs and the examples.
EXAMPLES = $(notdir $(wildcard examples/*))
CASE_CMDS = wgttsim wgtt-fleet wgtt-live $(EXAMPLES)
each-cli-case = grep -v '^\#' cmd/testdata/cases.txt | while read -r name cmd flags; do $(1); done

# Golden gates: the experiment run must reproduce the recorded tables byte
# for byte — what turns "byte-identical output" from a claim into a check.
# golden-quick (part of check, ~45 s on 2 vCPU) holds the trimmed run against
# internal/eval/testdata/quick.golden; golden (minutes, opt-in) the full run
# against experiments_output.txt. Only the elapsed time wgtt-experiments
# prints after each artifact, "(1.2s)", is not a function of (flags, seed),
# and only that line is stripped. Only an intended change of a reported
# number regenerates a file:
#   go run ./cmd/wgtt-experiments -quick | grep -v '^([0-9.]*s)$' > internal/eval/testdata/quick.golden
ELAPSED = ^([0-9.]*s)$$
golden-quick: RUN = -quick
golden-quick: GOLDEN = internal/eval/testdata/quick.golden
golden: GOLDEN = experiments_output.txt
golden-quick golden:
	$(call in-scratch,wgtt-experiments, \
		$$d/wgtt-experiments $(RUN) > $$d/run.txt; \
		grep -v '$(ELAPSED)' $$d/run.txt > $$d/got.txt; \
		grep -v '$(ELAPSED)' $(GOLDEN) | cmp $$d/got.txt -)
	@echo $@: experiment output matches $(GOLDEN)

# CLI smoke (part of check): what no unit test reaches is each `main` turning
# its flags into a run, so every flag set in cmd/testdata/cases.txt runs once
# and must print its recorded golden byte for byte — the live federation
# handoff too (DESIGN.md §13: two controller OS processes over UDP loopback),
# whose stdout names only what happened, never when, and each example under
# examples/. That a run repeats itself, for any worker count, is held by the
# determinism tests in internal/core and internal/fleet, not here.
cli-smoke:
	$(call in-scratch,$(CASE_CMDS), \
		$(call each-cli-case, \
			$$d/$$cmd $$flags > $$d/$$name.txt; \
			cmp $$d/$$name.txt cmd/testdata/$$name.golden))
	@echo cli-smoke: every recorded CLI run reproduced

# Live-mode smoke (part of check): one controller and two AP processes over
# UDP loopback, each on its own wall-paced engine, must complete a full
# §3.1.2 stop→start→ack switch with every backhaul message passing through
# its wire encoding (DESIGN.md §12) — and again with a third AP, which
# reports the flat ramp every AP past the two crossing ones replays. A short
# fan-out run (§14) must exit 0; its rates are not compared.
live-smoke:
	$(call in-scratch,wgtt-live, \
		$$d/wgtt-live -aps 2 -timeout 10s; \
		$$d/wgtt-live -aps 3 -timeout 10s; \
		$$d/wgtt-live -fanout -aps 8 -packets 2000)
	@echo live-smoke: multi-process switch over UDP loopback complete

# Slow (minutes, opt-in): the 1,000+-tile metro from the §17 acceptance
# criteria — a 32x32 tile grid over a 33x33-intersection city — must complete
# with cross-cell migrations happening (the report's "migrations" line is
# asserted non-zero). Only tiles that clients actually visit are built, so
# the run exercises metro *scale* (tiling, planning, epoch barriers over
# 1,024 cells) without simulating a thousand idle radios.
metro-scale:
	$(call in-scratch,wgtt-fleet, \
		$$d/wgtt-fleet -metro -metro-tiles 32x32 -urban-rows 33 -urban-cols 33 \
			-urban-spacing 60 -urban-duration 30 -urban-riders 4 -urban-cars 2 \
			-urban-peds 1 -rate 1 -seed 7 -progress 2>/dev/null > $$d/report.txt; \
		grep -q '^tiles 32x32' $$d/report.txt; \
		awk '/^migrations / { print; ok = $$2 > 0 } END { exit !ok }' $$d/report.txt)
	@echo metro-scale: 1024-tile metro completed with cross-cell migrations

# Dead-code audit (minutes, opt-in): build the four CLIs and the examples
# instrumented for coverage, drive them through the trimmed experiment run,
# the cli-smoke cases (the examples among them), the live-smoke switch and
# fan-out runs, all into one GOCOVERDIR, and list every function outside
# _test.go that nothing reached. Each main package must sit inside its own
# -coverpkg or its binary flushes no counters. A listed function is a
# candidate, not a verdict: failure-recovery paths, String methods, the live
# AP role (those processes are killed, so they flush nothing), and anything
# only bench/ or a test calls show up here too — grep before deleting.
# ($(comma): a literal comma inside a $$(call …) argument.)
comma := ,
unreached:
	$(call in-scratch,wgtt-experiments $(CASE_CMDS), \
		mkdir $$d/cov; export GOCOVERDIR=$$d/cov; \
		{ $$d/wgtt-experiments -quick; \
		  $(call each-cli-case,$$d/$$cmd $$flags); \
		  $$d/wgtt-live -aps 2 -timeout 10s; \
		  $$d/wgtt-live -fanout -aps 8 -packets 2000; } > /dev/null; \
		$(GO) tool covdata func -i=$$d/cov | grep -v '_test\.go' | awk '$$NF == "0.0%"', \
		-cover -coverpkg=./internal/...$(comma)./cmd/...$(comma)./examples/...)

# The size ledger ROADMAP and CHANGES cite: Go lines that are neither blank,
# nor a // comment line, nor in a _test.go file — over the whole program, and
# over the fleet/core/cmd layers aim 2 set a -15% target for — and
# DESIGN.md's length in lines, which carries its own target.
loc-of = find $(1) -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'
loc:
	@echo "internal/ cmd/ examples/: $$($(call loc-of,internal cmd examples))"
	@echo "internal/fleet internal/core cmd/: $$($(call loc-of,internal/fleet internal/core cmd))"
	@echo "DESIGN.md lines: $$(wc -l < DESIGN.md)"

# Fuzz smoke (part of check): a short coverage-guided run of each fuzz
# target on top of its seed corpus — malformed backhaul bytes must never
# panic the decoder or the UDP fabric's datagram parser, accepted inputs
# must round-trip stably, and every datagram must be accounted for; no
# -metro-tiles spec may panic the tiling parser or overflow its tile count;
# no reordering or duplication of handoff messages may leave a client with
# two owners, or with none once the backhaul is clean; no argument list may
# panic the shared CLI flags or make them resolve to contradictory configs;
# no sequence of enqueues, stops, starts, crashes, restarts and aligns may
# let an AP's ring or MPDU counters stop adding up.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzDatagram$$' -fuzztime 10s ./internal/backhaul/udp
	$(GO) test -run '^$$' -fuzz '^FuzzParseTiling$$' -fuzztime 10s ./internal/urban
	$(GO) test -run '^$$' -fuzz '^FuzzHandoffReorder$$' -fuzztime 10s ./internal/federation
	$(GO) test -run '^$$' -fuzz '^FuzzCLIFlags$$' -fuzztime 10s ./cmd/internal/cliflags
	$(GO) test -run '^$$' -fuzz '^FuzzRingConservation$$' -fuzztime 10s ./internal/ap
	@echo fuzz-smoke: decoder, datagram parser, tiling parser, handoff machine, CLI flags and AP ring counters survived coverage-guided input

# The performance record (minutes, opt-in): both passes of the repository's
# benchmark (bench/README.md) on every BENCHMARK.json workload, each pass's
# last-line JSON appended to BENCH_results.json as one line that starts with
# the commit, date and Go version it was measured at. One run of this per
# merged change is the trajectory; a pass that does not end in
# "correct":true stops the run and records nothing.
BENCH_WORKLOADS = corridor-udp corridor-mixed metro backhaul-fanout
bench:
	@set -e; head="\"commit\":\"$$(git describe --always --dirty)\",\"date\":\"$$(date -u +%F)\",\"go\":\"$$($(GO) env GOVERSION)\""; \
	for w in $(BENCH_WORKLOADS); do for t in 0 1; do \
		json=$$(bash bench/run.sh --workload $$w --seed 2017 --seconds 24 --trace $$t | tail -n 1); \
		case "$$json" in '{"correct":true,'*) ;; *) echo "bench: $$w --trace $$t failed: $$json" >&2; exit 1;; esac; \
		printf '{%s,"workload":"%s","trace":%s,%s\n' "$$head" $$w $$t "$${json#\{}" >> BENCH_results.json; \
		echo "bench: recorded $$w --trace $$t"; \
	done; done

# Paired comparison (minutes, opt-in): `make bench-pair REF=<commit>
# W="<workload> ..."` exports REF's tree into a `mktemp -d` directory and, for
# each workload of W in turn, runs BENCHMARK.json's command, `bench/run.sh
# --trace 0`, on that tree and on this one PAIRS times, the same seed on both
# sides of a pair and the side that goes first alternating — what a
# claimed gain is read from. One line per run: workload,
# pair, side, the six end-to-end metrics. Records nothing; the directory
# stays behind if a run fails.
PAIRS ?= 10
bench-pair:
	@test -n "$(REF)" -a -n "$(W)" || { echo "usage: make bench-pair REF=<commit> W=\"<workload> ...\" [PAIRS=$(PAIRS)]" >&2; exit 2; }
	@set -e; d=$$(mktemp -d); git archive $(REF) | tar -x -C $$d; \
	for w in $(W); do for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then sides="$$d ."; else sides=". $$d"; fi; \
		for side in $$sides; do \
			if [ $$side = . ]; then label=head; else label=$(REF); fi; \
			json=$$(bash $$side/bench/run.sh --workload $$w --seed $$((2016 + i)) --seconds 24 --trace 0 | tail -n 1); \
			case "$$json" in '{"correct":true,'*) ;; *) echo "bench-pair: $$w $$label failed: $$json" >&2; exit 1;; esac; \
			echo "$$w pair $$i $$label $$(echo "$$json" | grep -o '"[a-z_]*":{"value":[-+.e0-9]*' | sed 's/"\(.*\)":{"value":/\1=/' | tr '\n' ' ')"; \
		done; \
	done; done; \
	rm -rf $$d

# Regression gate (minutes, opt-in): `make bench-gate [W="<workload> ..."]`
# runs BENCHMARK.json's command, `bench/run.sh`, once per workload (all four
# by default) and trace mode at `make bench`'s seed and length, and holds
# each pass against the last BENCH_results.json line of that workload and
# mode recorded at different code: a line is skipped when its commit and
# the working tree differ in no BENCH_CODE file but for whitespace, so a
# record of this very program (a commit that only touched docs or tests,
# or the lines `make bench` just appended) is never its own reference. The
# bounds and directions BENCHMARK.json declares are read as data.
# It fails if goodput_mbps or delivered_frac differs at all (they are
# simulated), or if a counted metric — allocs_per_unit, alloc_kb_per_unit,
# and each traced *_per_unit count, which takes allocs_per_unit's bound
# unless it declares its own — is worse than recorded by more than its
# bound. A traced <layer>.allocs_per_unit is held to that bound as a share
# of all the layers' recorded allocations, not of its own: the traced
# allocations come from one profiled rep, where an allocation or two moves
# a small layer's count past the bound (metro's controller read 1.933 and
# then 1.956 at the same commit). A host-time metric (units_per_ref_s, setup_s) worse past its bound
# fails nothing: one pass against a record from another moment of the
# machine is no verdict, so the gate prints the `make bench-pair` that would
# give one. Records nothing; the directory stays behind if a pass fails.
BENCH_CODE = ':(glob)**/*.go' ':(exclude,glob)**/*_test.go' go.mod bench BENCHMARK.json
GATE_SAME = goodput_mbps delivered_frac
GATE_HOST = units_per_ref_s setup_s
metrics-of = grep -o '"[a-z0-9_.]*":{"value":[^,}]*' | sed 's/"\(.*\)":{"value":/\1 /'
bench-gate:
	@set -e; d=$$(mktemp -d); fail=0; \
	awk -F'"' '/"name"/ { n = $$4 } /"better"/ { print n, "better", $$4 } /"bound"/ { split($$0, b, ":"); print n, "bound", b[2] + 0 }' BENCHMARK.json > $$d/rules; \
	for c in $$(cut -d'"' -f4 BENCH_results.json | sort -u); do \
		if git diff --quiet -w --ignore-blank-lines $$c -- $(BENCH_CODE) 2>/dev/null; then echo "{\"commit\":\"$$c\","; fi; \
	done > $$d/same; \
	for w in $(or $(W),$(BENCH_WORKLOADS)); do for t in 0 1; do \
		last=$$(grep "\"workload\":\"$$w\",\"trace\":$$t," BENCH_results.json | grep -vFf $$d/same | tail -n 1); \
		test -n "$$last" || { echo "bench-gate: BENCH_results.json records no $$w --trace $$t of code other than this; run make bench at an earlier commit" >&2; exit 2; }; \
		ref=$$(echo "$$last" | cut -d'"' -f4); \
		json=$$(bash bench/run.sh --workload $$w --seed 2017 --seconds 24 --trace $$t | tail -n 1); \
		case "$$json" in '{"correct":true,'*) ;; *) echo "bench-gate: $$w --trace $$t failed: $$json" >&2; exit 1;; esac; \
		echo "$$last" | $(metrics-of) > $$d/last; \
		echo "$$json" | $(metrics-of) > $$d/json; \
		awk -v pass="$$w --trace $$t" -v ref=$$ref -v w=$$w \
			-v same=" $(GATE_SAME) " -v host=" $(GATE_HOST) " ' \
			FNR == 1 { f++ } \
			f == 1 { if ($$2 == "better") better[$$1] = $$3; else bound[$$1] = $$3; next } \
			f == 2 { rec[$$1] = $$2; if ($$1 ~ /\.allocs_per_unit$$/) layers += $$2; next } \
			!($$1 in rec) { next } \
			index(same, " " $$1 " ") { \
				if ($$2 != rec[$$1]) { printf "bench-gate: %s %s = %s, %s recorded %s: the simulation changed\n", pass, $$1, $$2, ref, rec[$$1]; bad = 1 } \
				next } \
			{ counted = $$1 ~ /_per_unit$$/; timed = index(host, " " $$1 " ") } \
			!counted && !timed { next } \
			{ b = ($$1 in bound) ? bound[$$1] : bound["allocs_per_unit"]; \
			  slack = b * ($$1 ~ /\.allocs_per_unit$$/ ? layers : rec[$$1]); \
			  worse = better[$$1] == "higher" ? $$2 < rec[$$1] - slack : $$2 > rec[$$1] + slack } \
			worse && counted { printf "bench-gate: %s %s = %s, %s recorded %s: worse by more than %g\n", pass, $$1, $$2, ref, rec[$$1], slack; bad = 1 } \
			worse && timed { printf "bench-gate: %s %s = %s, %s recorded %s; for a verdict: make bench-pair REF=%s W=%s\n", pass, $$1, $$2, ref, rec[$$1], ref, w } \
			END { exit bad }' $$d/rules $$d/last $$d/json || fail=1; \
		echo "bench-gate: checked $$w --trace $$t against $$ref"; \
	done; done; \
	rm -rf $$d; \
	if [ $$fail -ne 0 ]; then exit 1; fi
	@echo "bench-gate: every counted metric within its bound, goodput and delivery unchanged"
