# Developer entry points. CI (ci.yml) runs the same commands.

GO ?= go

.PHONY: build test lint fmt bench

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# lint runs the sopslint suite (internal/lint; DESIGN.md's "Mechanized
# contracts" table names its analyzers) over the module, as CI's lint
# job does with -json, then checks gofmt.
lint:
	$(GO) run ./cmd/sopslint ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
