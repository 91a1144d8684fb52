# Developer entry points. CI (ci.yml) runs the same commands.

GO ?= go

.PHONY: build test lint fmt bench

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# lint builds the sopslint multichecker (internal/lint: rngsource,
# walltime, ctxflow, tokenpair, goroleak, chansend, dettaint,
# speccoverage, errverbatim, allocfree) and runs it over the module
# through `go vet -vettool`, exactly as CI does. Standalone runs — no
# vet build cache, handy while iterating on an analyzer — are
# `go run ./cmd/sopslint ./...` (add -json for machine-readable output).
lint:
	$(GO) build -o bin/sopslint ./cmd/sopslint
	$(GO) vet -vettool=$(CURDIR)/bin/sopslint ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
