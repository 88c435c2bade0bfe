// Package bad seeds exactly one violation for each of several analyzers, so
// main_test.go can pin down the driver's exit-code contract, per-analyzer
// summary counts, and output formats against known findings. The go tool
// never builds testdata; only the driver's own loader reads this file.
//
// badmod has its own go.mod so that a run rooted here covers a whole
// module: only such a run, with test files, reports deadexport.
package bad

import (
	"errors"
	"sync"
)

func mayFail() error { return errors.New("seeded") }

func dropsError() {
	_ = mayFail() // seeded errlost finding
}

func panics(n int) {
	if n > 0 {
		panic("seeded") // seeded nakedpanic finding
	}
}

func copiesMutex(mu sync.Mutex) {} // seeded mutexcopy finding

func floatEq(a, b float64) bool {
	return a == b // seeded floateq finding
}

func stale() int {
	// lint:invariant(floateq): seeded stale suppression; nothing below compares floats
	return 1
}

func Orphan() {} // seeded deadexport finding (whole-module, -include-tests runs only)
