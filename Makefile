# Developer entry points. CI runs the same commands (plus staticcheck
# and govulncheck, which need network to install — see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: build test vet fmt perfbench check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet = the toolchain's standard passes + the repo's invariant
# analyzers (docs/INVARIANTS.md).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/tkij-vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

# perfbench/ is a nested module that root ./... patterns never reach.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# check is the pre-push gate: everything a PR must pass locally.
check: fmt build vet test perfbench
	@echo "check: OK"
