# Mirrors .github/workflows/ci.yml: `make ci` runs exactly what CI runs,
# except the govulncheck job, which is CI-only because it installs the
# govulncheck tool from the network.

GO ?= go

SMOKE_BENCHES := PipelineEndToEnd|PipelineWorkers|SynthGenerate|Render|OCRDecode|ParseConcurrent|ClassifyAll|Snapshot|ServeRoutes|EngineQueries|Table
SERVE_ADDR ?= 127.0.0.1:18080
FUZZ_TIME ?= 10s

.PHONY: build vet test race lint fuzz bench bench-check examples fmt serve load-smoke proxy-smoke loc ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race job covers every package: a hand-maintained list let newly added
# concurrent packages silently escape race coverage.
race:
	$(GO) test -race ./...

# The analyzer suite over the whole repository, the same single pass as
# CI's lint job (which adds -gha only to render findings as annotations).
# See DESIGN.md system #21 for what each analyzer enforces; the concurrency
# invariants are held by serve's scoped lock helpers, the test timeout and
# -race instead (system #26).
lint:
	$(GO) run ./cmd/avlint ./...

# Short fuzz smokes. The snapshot reader: arbitrary bytes must yield a
# typed error or a valid view, never a panic or a fault on a mapped page.
# The JSON string writer of the disengagement bodies: every string must
# encode byte-identically to encoding/json. go test -fuzz takes one target
# per run, hence two commands.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot2Read$$' -fuzztime $(FUZZ_TIME) ./internal/snapshot2
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSONString$$' -fuzztime $(FUZZ_TIME) ./internal/query

# Benchmark smoke: run the key go test benchmarks once so they cannot
# bit-rot. It checks that they compile and run, and measures nothing;
# the benchmark is bash bench/run.sh (bench/README.md).
bench:
	$(GO) test -bench '$(SMOKE_BENCHES)' -benchtime 1x -run '^$$' ./...

# Run every program under examples/ to the end, output discarded: go build
# only proves they compile, and they are the library's smoke tests. A
# non-zero exit fails the target.
examples:
	@for dir in examples/*/; do \
		echo "go run ./$$dir"; \
		$(GO) run "./$$dir" >/dev/null || exit 1; \
	done

# bench/ is a nested module (the end-to-end benchmark, see BENCHMARK.json),
# so the root module's vet, test and avlint runs never reach it. It
# compiles against the serve, query and snapshot2 APIs, so check it here.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...
	$(GO) run ./cmd/avlint -C bench ./...

# Build avserve and smoke-test it: start on SERVE_ADDR, poll /healthz until
# it answers, then shut the server down. Fails if the probe never succeeds.
serve:
	$(GO) build -o bin/avserve ./cmd/avserve
	@./bin/avserve -addr $(SERVE_ADDR) & pid=$$!; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -fsS "http://$(SERVE_ADDR)/healthz" >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ "$$ok" != 1 ]; then echo "avserve never answered /healthz" >&2; exit 1; fi; \
	echo "avserve healthy on $(SERVE_ADDR)"

# Serving smoke (the load-smoke CI job): one run of the benchmark's hot
# workload (see bench/README.md). It drives the real avserve with the
# default query mix, then checks one answer per mix op byte for byte
# against an in-process server. The target fails unless the run's result
# line, the last line of its output, reports "correct":true and
# "failed":0 (no request failed).
load-smoke:
	@out=$$(bash bench/run.sh -workload hot); status=$$?; \
	printf '%s\n' "$$out"; \
	[ $$status = 0 ] || exit $$status; \
	last=$$(printf '%s\n' "$$out" | tail -n 1); \
	case "$$last" in *'"correct":true'*'"failed":0,'*) ;; \
	*) echo "load-smoke: result line lacks \"correct\":true and \"failed\":0" >&2; exit 1;; \
	esac

# Sharded serving smoke (the proxy-smoke CI job): 1 avserve -proxy over 2
# backends, the second peered to the first for snapshot pull-through. The
# script proves shard routing, 304 revalidation through the proxy,
# byte-identical answers from either backend, and a zero-build peer
# warm-start; see scripts/proxy_smoke.sh for the full checklist.
proxy-smoke:
	$(GO) build -o bin/avserve ./cmd/avserve
	sh scripts/proxy_smoke.sh

# Non-test Go lines outside bench/ and testdata/ at HEAD, and the change
# from REV when given (make loc REV=main): the one definition of the line
# delta each change reports.
loc:
	@sh scripts/goloc.sh $(REV)

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "unformatted files:" >&2; echo "$$out" >&2; exit 1; \
	fi

ci: build vet test race lint fuzz fmt bench bench-check examples serve load-smoke proxy-smoke
