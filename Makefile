# Tier-1 gate: everything `make check` runs must pass before a change
# lands. `race` covers the concurrency-bearing packages (the fleet worker
# pool, the parallel experiment registry, shared trace recorders, and the
# stats merging they feed).

GO ?= go

RACE_PKGS = ./internal/fleet ./internal/eval ./internal/trace ./internal/stats \
	./internal/runtime ./internal/backhaul/udp ./internal/live ./internal/federation \
	./internal/urban ./internal/core

.PHONY: check vet build test golden-quick golden race bench bench-smoke fleet-determinism docs-check lint chaos-smoke live-smoke federation-smoke fanout-smoke selector-smoke urban-smoke metro-smoke metro-scale fuzz-smoke unreached

check: vet lint build test golden-quick race bench-smoke chaos-smoke live-smoke federation-smoke fanout-smoke selector-smoke urban-smoke metro-smoke fuzz-smoke docs-check

# Static analysis beyond vet. The tools are optional — not every build
# environment ships them — so each is gated on availability rather than
# failing the tier-1 gate on a missing binary.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... || exit 1; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || exit 1; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Hot-path packages with microbenchmarks and AllocsPerRun assertions.
BENCH_PKGS = ./internal/sim ./internal/radio ./internal/phy ./internal/csi ./internal/controller ./internal/selector \
	./internal/metrics ./internal/backhaul ./internal/backhaul/udp ./internal/urban

# Fast allocation-regression gate (part of check): every ZeroAlloc
# assertion plus one iteration of each hot-path microbenchmark and of the
# root fan-out benchmark family, so a steady-state allocation or a broken
# bench fails tier-1 immediately.
bench-smoke:
	$(GO) test -run ZeroAlloc $(BENCH_PKGS)
	$(GO) test -run '^$$' -bench 'GainsDB|ESNR|Median|Engine|BER|Selector|Urban' -benchtime 1x -benchmem $(BENCH_PKGS)
	$(GO) test -run '^$$' -bench '^BenchmarkFanout' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkMetroEpoch' -benchtime 1x -benchmem ./internal/fleet

# Documentation lint: every internal package's godoc must carry at least one
# paper-section marker (§) mapping the package to the part of the paper it
# reproduces. `go doc <pkg>` prints the package comment plus bare
# declarations (symbol comments stripped), so grepping it for § tests
# exactly the package comment.
docs-check:
	@fail=0; for d in internal/*/; do \
		pkg=$${d%/}; \
		if ! $(GO) doc ./$$pkg 2>/dev/null | grep -q '§'; then \
			echo "docs-check: $$pkg package godoc has no paper-section (§) marker"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi
	@echo docs-check: all internal packages carry a paper-section mapping

# The determinism smokes share one shape: build a CLI once, run one flag set
# several times, and require byte-identical stdout every time.
# $(call same-output,<cmd>,<flags>,<variants>[,<filter>]) runs cmd/<cmd> with
# <flags> once per variant — a variant is a quoted word of extra flags such as
# "-workers 4", and "" repeats the run unchanged — pipes stdout through
# <filter> when one is given, and cmp's every run against the first. Timing
# and progress go to stderr, so only stdout is compared.
define same-output
	$(GO) build -o /tmp/$(1) ./cmd/$(1)
	@i=0; for v in $(3); do \
		/tmp/$(1) $(2) $$v $(if $(4),| $(4)) > /tmp/$@-$$i.txt || exit 1; \
		cmp /tmp/$@-0.txt /tmp/$@-$$i.txt || exit 1; \
		i=$$((i+1)); \
	done
endef

# Golden gate (golden-quick is part of check, ~45 s on 2 vCPU): the trimmed
# experiment run must reproduce the recorded tables byte for byte, elapsed-
# time lines aside — what turns "byte-identical output" from a claim into a
# check. Only an intended change of a reported number regenerates the file:
#   go run ./cmd/wgtt-experiments -quick | grep -v '(.*s)$' > internal/eval/testdata/quick.golden
golden-quick:
	$(call same-output,wgtt-experiments,-quick,"",grep -v '(.*s)$$')
	cmp /tmp/$@-0.txt internal/eval/testdata/quick.golden
	@echo golden-quick: trimmed experiment output matches the golden

# Slow (minutes, opt-in): the same for the full run against the checked-in
# experiments_output.txt.
golden:
	$(call same-output,wgtt-experiments,,"",grep -v '(.*s)$$')
	grep -v '(.*s)$$' experiments_output.txt | cmp /tmp/$@-0.txt -
	@echo golden: full experiment output matches experiments_output.txt

# Chaos determinism smoke (part of check): the same fault-injected drive run
# twice must print byte-identical summaries — the CLI face of the DESIGN.md
# §11 determinism contract (per-seed reproducible faults and recovery).
chaos-smoke:
	$(call same-output,wgttsim,-chaos -speed 25 -seed 11,"" "")
	@echo chaos-smoke: fault-injected runs byte-identical

# Live-mode smoke (part of check): one controller and two AP processes over
# UDP loopback, each on its own wall-clock run loop, must complete a full
# §3.1.2 stop→start→ack switch with every backhaul message passing through
# its wire encoding (DESIGN.md §12).
live-smoke:
	$(GO) build -o /tmp/wgtt-live ./cmd/wgtt-live
	/tmp/wgtt-live -aps 2 -timeout 10s
	@echo live-smoke: multi-process switch over UDP loopback complete

# Federation smoke (part of check, DESIGN.md §13): two controller OS
# processes hand one client across domains over UDP loopback — run twice
# and compared byte for byte — then a 2-domain fleet must render identical
# reports for 1 and 4 workers (the sim half of the same contract).
federation-smoke:
	$(GO) build -o /tmp/wgtt-live ./cmd/wgtt-live
	/tmp/wgtt-live -federation -timeout 10s > /tmp/fed-run1.txt
	/tmp/wgtt-live -federation -timeout 10s > /tmp/fed-run2.txt
	cmp /tmp/fed-run1.txt /tmp/fed-run2.txt
	$(call same-output,wgtt-fleet,-cells 2 -domains 2 -seed 7,"-workers 1" "-workers 4")
	@echo federation-smoke: inter-controller handoff deterministic live and in sim

# Fan-out determinism smoke (part of check, DESIGN.md §14): the same drive
# run twice must produce byte-identical summaries AND metrics tables — the
# fan-out counters (downlink_encodes, downlink_copies) and the batched-write
# depth histogram pin the data plane's replication decisions per seed.
fanout-smoke:
	$(call same-output,wgttsim,-speed 25 -seed 7,"-metrics /tmp/fanout-m1.json" "-metrics /tmp/fanout-m2.json",grep -v '^metrics:')
	cmp /tmp/fanout-m1.json /tmp/fanout-m2.json
	@echo fanout-smoke: fan-out data plane deterministic, metrics byte-identical

# Selection-policy smoke (part of check, DESIGN.md §15): the ext-selector
# ablation run twice per policy must print byte-identical tables — selectors
# are pure functions of the CSI sequence, so policy choice must never break
# the per-seed determinism contract.
selector-smoke:
	$(call same-output,wgtt-experiments,-quick ext-selector,"" "",grep -v '(.*s)$$')
	$(call same-output,wgttsim,-selector windowed-median -speed 25 -seed 7,"" "")
	$(call same-output,wgttsim,-selector predictive -speed 25 -seed 7,"" "")
	$(call same-output,wgttsim,-selector global-assign -speed 25 -seed 7,"" "")
	@echo selector-smoke: selection policies deterministic in ablation and CLI

# Urban determinism smoke (part of check, DESIGN.md §16): the same city
# run twice must print byte-identical summaries — routes, lights, rider
# seats, the geographic federation binding, and the street-canyon radio
# are all pure functions of (config, seed).
urban-smoke:
	$(call same-output,wgttsim,-urban -urban-rows 2 -urban-cols 2 -urban-riders 2 -rate 0.5 -seed 11,"" "")
	@echo urban-smoke: city runs byte-identical

# Metro determinism smoke (part of check, DESIGN.md §17): one small connected
# metro — tiles advancing in lockstep epochs with cross-cell client migration
# at the seams — must print byte-identical reports for 1, 4, and 8 workers,
# and again on a second 8-worker run. This is the CLI face of the metro's
# headline contract: the epoch-barrier migration exchange keeps reports a
# pure function of (flags, seed) no matter how tiles are scheduled.
METRO_SMOKE_FLAGS = -metro -rate 1 -seed 7 -urban-rows 4 -urban-cols 4 \
	-urban-riders 3 -urban-cars 1 -urban-peds 1 -urban-duration 20
metro-smoke:
	$(call same-output,wgtt-fleet,$(METRO_SMOKE_FLAGS),"-workers 1" "-workers 4" "-workers 8" "-workers 8")
	@echo metro-smoke: metro reports byte-identical across worker counts

# Slow (minutes, opt-in): the 1,000+-tile metro from the §17 acceptance
# criteria — a 32x32 tile grid over a 33x33-intersection city — must complete
# with cross-cell migrations happening (the report's "migrations" line is
# asserted non-zero). Only tiles that clients actually visit are built, so
# the run exercises metro *scale* (tiling, planning, epoch barriers over
# 1,024 cells) without simulating a thousand idle radios.
metro-scale:
	$(GO) build -o /tmp/wgtt-fleet ./cmd/wgtt-fleet
	/tmp/wgtt-fleet -metro -metro-tiles 32x32 -urban-rows 33 -urban-cols 33 \
		-urban-spacing 60 -urban-duration 30 -urban-riders 4 -urban-cars 2 \
		-urban-peds 1 -rate 1 -seed 7 -progress 2>/dev/null > /tmp/metro-scale.txt
	grep -q '^tiles 32x32' /tmp/metro-scale.txt
	grep '^migrations ' /tmp/metro-scale.txt | awk '{ exit ($$2 > 0) ? 0 : 1 }'
	@grep '^migrations ' /tmp/metro-scale.txt
	@echo metro-scale: 1024-tile metro completed with cross-cell migrations

# Dead-code audit (minutes, opt-in): build the four CLIs instrumented for
# coverage, drive them through the trimmed experiment run and the flag sets
# the smokes above define, all into one GOCOVERDIR, and list every function
# outside _test.go that nothing reached. Each main package must sit inside
# its own -coverpkg or its binary flushes no counters. A listed function is a
# candidate, not a verdict: failure-recovery paths, String methods, the live
# AP role (those processes are killed, so they flush nothing), and anything
# only examples/, bench/ or a test calls show up here too — grep before
# deleting.
unreached:
	rm -rf /tmp/wgtt-unreached && mkdir -p /tmp/wgtt-unreached/cov
	for c in wgttsim wgtt-fleet wgtt-experiments wgtt-live; do \
		$(GO) build -cover -coverpkg=./internal/...,./cmd/... -o /tmp/wgtt-unreached/$$c ./cmd/$$c || exit 1; \
	done
	cd /tmp/wgtt-unreached && export GOCOVERDIR=/tmp/wgtt-unreached/cov && { \
		./wgtt-experiments -quick && \
		./wgttsim -chaos -speed 25 -seed 11 && \
		./wgttsim -speed 25 -seed 7 -metrics /tmp/wgtt-unreached/metrics.json && \
		./wgttsim -selector predictive -speed 25 -seed 7 && \
		./wgttsim -selector global-assign -speed 25 -seed 7 && \
		./wgttsim -urban -urban-rows 2 -urban-cols 2 -urban-riders 2 -rate 0.5 -seed 11 && \
		./wgtt-fleet -cells 2 -domains 2 -seed 7 && \
		./wgtt-fleet $(METRO_SMOKE_FLAGS) && \
		./wgtt-live -aps 2 -timeout 10s && \
		./wgtt-live -federation -timeout 10s; \
	} > /dev/null
	@$(GO) tool covdata func -i=/tmp/wgtt-unreached/cov | grep -v '_test\.go' | awk '$$NF == "0.0%"'

# Wire-codec fuzz smoke (part of check): a short coverage-guided run of
# FuzzDecode on top of its seed corpus — malformed backhaul bytes must never
# panic the decoder, and accepted inputs must round-trip stably.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/packet
	@echo fuzz-smoke: decoder survived coverage-guided malformed input

# Slow (tens of minutes): the full perf trajectory — every figure/table
# benchmark from the root bench_test.go plus the hot-path micros — written
# to BENCH_results.json for future PRs to diff against. wgtt-benchjson
# echoes progress to stderr and exits nonzero if the run printed FAIL.
bench:
	$(GO) build -o /tmp/wgtt-benchjson ./cmd/wgtt-benchjson
	{ $(GO) test -run '^$$' -bench . -benchmem -timeout 60m . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkMetroEpoch' -benchmem ./internal/fleet; } \
		| /tmp/wgtt-benchjson -o BENCH_results.json

# Slow (minutes): the CLI-level determinism check from the fleet engine's
# acceptance criteria — 32 cells, 1 worker vs 8 workers, byte-identical
# stdout. The in-repo unit test covers the same invariant on a small fleet.
fleet-determinism:
	$(call same-output,wgtt-fleet,-cells 32 -seed 7,"-workers 1" "-workers 8")
	@echo fleet reports byte-identical
