// Command cgra-vet is the project's invariants-as-lint multichecker:
// the custom analyzers of internal/lint (wallclock, globalrand,
// maporder, traceemit — the determinism and memo-key contracts from
// ROADMAP.md as machine-checked rules) plus a stdlib reimplementation
// of the stock nilness check, speaking the `go vet -vettool` protocol.
//
// Usage:
//
//	go build -o cgra-vet ./cmd/cgra-vet
//	go vet -vettool=./cgra-vet ./...
//
// or, equivalently (the tool re-executes itself through go vet):
//
//	go run ./cmd/cgra-vet ./...
//
// Disable an analyzer with -<name>=false. Suppress a single finding
// with an audited directive: //cgravet:ignore <analyzer> <reason> —
// the reason is mandatory.
package main

import "agingcgra/internal/lint"

func main() {
	lint.Main(lint.Suite()...)
}
