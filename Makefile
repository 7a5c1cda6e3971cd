# Developer entry points. `make check` is the pre-push gate; the CI
# workflow runs the same commands step by step.

GO ?= go

.PHONY: check fmt vet lint test race bench vuln

check: fmt vet lint test

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The single static-analysis entry point: the in-repo invariant suite
# (poolescape, boundedgo, determinism, ctxflow, shardlock) plus the
# whole-program deadexport rule.
lint:
	$(GO) run ./cmd/sizelessvet ./...
	$(GO) test ./internal/analysis -run TestEveryInternalExportHasCaller

test:
	$(GO) test ./...

race:
	$(GO) test -race -short -timeout 30m ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Mirrors the CI vuln job; skips gracefully where govulncheck (a network
# install) is unavailable.
vuln:
	@if ! command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck not installed (go install golang.org/x/vuln/cmd/govulncheck@latest); skipping"; \
	else \
		govulncheck -scan module ./... || echo "warning: module-level advisories found (not necessarily reachable)"; \
		govulncheck ./...; \
	fi
