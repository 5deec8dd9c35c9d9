// Package repro is a full Go reproduction of "A Perspective on AN2: Local
// Area Network as Distributed System" (Susan S. Owicki, PODC 1993).
//
// The library lives under internal/ (see README.md for the architecture
// map); this root package carries the module documentation plus the
// end-to-end integration tests:
//
//	go run ./cmd/an2bench          # every experiment in DESIGN.md, as tables
//	go run ./bench                 # the performance ledger
//	go run ./examples/pullplug     # the paper's favorite demo
package repro
