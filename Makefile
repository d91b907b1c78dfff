# Convenience targets mirroring the CI jobs (.github/workflows/ci.yml).
# Everything here is plain go-tool invocations; nothing needs the network
# except the pinned static-analysis installs in `make lint-extra`.

GO ?= go
FUZZTIME ?= 30s

# Build identity stamped into the binaries (internal/obs.BuildVersion /
# BuildCommit): /status reports it and every trace's root span carries it,
# so a scraped trace names the exact build that produced it.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS := -X dassa/internal/obs.BuildVersion=$(VERSION) -X dassa/internal/obs.BuildCommit=$(COMMIT)

.PHONY: all build install test race lint lint-extra fuzz bench loc

all: build lint test

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

# Stamped binaries into GOBIN (or GOPATH/bin).
install:
	$(GO) install -ldflags "$(LDFLAGS)" ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Project-invariant analyzers (cmd/dassalint) + their self-tests. The
# suite lints _test.go files too via per-package test variants.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/dassalint ./...
	$(GO) test ./internal/lint/... -count=1

# Third-party analyzers, pinned to match CI (needs module downloads).
lint-extra:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@2024.1.1
	staticcheck ./...
	$(GO) install golang.org/x/vuln/cmd/govulncheck@v1.1.3
	govulncheck ./...

# The fuzz targets, FUZZTIME each (CI runs 30s smokes; the scheduled
# fuzz-soak workflow runs minutes-long sessions with a cached corpus).
# -fuzzminimizetime is capped: minimizing multi-KB interesting inputs
# would otherwise consume the whole budget.
fuzz:
	$(GO) test ./internal/dasf -run='^$$' -fuzz='^FuzzOpenCorruptIndex$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/dasf -run='^$$' -fuzz='^FuzzOpenChunkedDeflate$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/dasf -run='^$$' -fuzz='^FuzzOpenAppendedVCA$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/dass -run='^$$' -fuzz='^FuzzIndexCache$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/dass -run='^$$' -fuzz='^FuzzSearchRegex$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzWireDecode$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s
	$(GO) test ./internal/daslib -run='^$$' -fuzz='^FuzzRFFTRoundTrip$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s

# In-tree kernel and engine benchmarks (daslib, detect, dass, haee, obs).
# End-to-end and per-layer numbers come from `bash benchmark/run.sh`; the
# paper's tables and figures from `go run ./cmd/das_bench`.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# The ROADMAP census: non-test Go lines, total and per package — the one
# definition of "non-test line count of the packages a PR touches".
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'
