# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race allocs perf-smoke examples node-smoke tables-check size unreached lint vet check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# allocs runs the garbage-budget tests (heap objects per wire exchange,
# per lookup, traced or not, per route lookup, per finger scan (package chord's
# finger table, the oracle's and the live node's), per converged gossip
# round, per range digest, per agreed anti-entropy round, per agreeing
# quorum read against a fake and per quorum read and write over MemNet
# sessions (5 and 16 objects, every node's share counted, and a read
# over 4x more keys than the intern table holds, under 7), per replica
# set, per simulated lookup through the façade) and the footprint
# tests (heap and goroutines per idle connection, per settled node of a
# 64- and a 256-node cluster, and heap per one-hop route-table member).
# They are built only without -race, where allocation counts are exact.
allocs:
	$(GO) test -count=1 -run AllocBudget . ./internal/wire ./internal/chord ./internal/transport ./internal/routes ./internal/replica ./internal/churn

# perf-smoke runs every bench/perf workload briefly. The harness checks
# each answer and exits non-zero when one is wrong; the timings of a run
# this short are for reading, not for comparing.
perf-smoke:
	$(GO) run ./bench/perf -seconds 1 -scale 0.25 -json > perf.json

# examples runs every examples/* program (~5 s, half of it churnstudy).
# Each one checks its own result and exits non-zero when it is wrong.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# node-smoke starts one hieras-node with default flags, drives its REPL
# through a put, a get and a lookup (0 hops in the default onehop mode:
# the lone node's table names itself, checked in-process), and checks
# that the retired cached route mode is refused.
node-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/node" ./cmd/hieras-node && \
	printf 'put k hello\nget k\nlookup k\nquit\n' | \
		"$$tmp/node" -listen 127.0.0.1:24090 -create -landmarks 127.0.0.1:24090 > "$$tmp/out" && \
	grep -q hello "$$tmp/out" && grep -q '(0 hops' "$$tmp/out" || { cat "$$tmp/out"; echo "node-smoke: wrong REPL output"; exit 1; }; \
	if "$$tmp/node" -route-mode cached -create < /dev/null 2> /dev/null; then echo "node-smoke: -route-mode cached was accepted"; exit 1; fi

# tables-check regenerates every EXPERIMENTS table and diffs it against
# the archive (~30 s). The output is a function of the seed alone, at any
# -workers, so any difference is a behaviour change: silent means every
# printed table is byte-identical.
tables-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/hieras-bench -scale 0.2 -seed 2003 > "$$tmp" && \
	diff docs/evaluation-scale0.2.txt "$$tmp"

# size prints the line count ROADMAP's "lines removed" aim is judged by:
# non-test Go outside bench/perf (the harness is frozen by BENCHMARK.json)
# and the analyzers' testdata fixtures.
size:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './bench/perf/*' | xargs cat | wc -l

# unreached prints the functions no test anywhere in the tree executes:
# one whole-tree coverage run (-coverpkg=./..., over a minute), filtered
# to the functions at 0.0% outside the binaries and bench/perf. It is the
# audit behind "a path stays if a test or a workload executes it": what
# it prints should be interface obligations (Error, Network, LocalAddr),
# what hieras-lint runs only when it has a finding to print, and the
# exceptions ROADMAP names, so a new line is either a test to write or
# code to delete. Informational; CI appends it to the step summary.
unreached:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) test -count=1 -coverpkg=./... -coverprofile="$$tmp" ./... > /dev/null && \
	$(GO) tool cover -func="$$tmp" | awk '$$NF == "0.0%" && $$1 !~ /^repro\/(cmd|examples|bench\/perf)\// { print $$1, $$2 }'

# lint is the blocking contract gate: stock vet plus the repo's own
# analyzer suite (determinism, lock-across-RPC, retry idempotency,
# metric hygiene, structural error matching, goroutine lifecycle,
# context flow, lock ordering, channel ownership). Suppressions require
# //lint:allow <analyzer> <reason>; a missing reason is itself a
# finding, and a suppression whose analyzer no longer fires is rot the
# stale-allows pass rejects.
lint: vet
	$(GO) run ./cmd/hieras-lint ./...
	$(GO) run ./cmd/hieras-lint -stale-allows ./...

vet:
	$(GO) vet ./...

check: build lint test

clean:
	$(GO) clean ./...
