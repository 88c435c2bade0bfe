// Package lib declares one export per deadexport case. Its tests (lib_test.go,
// lib_ext_test.go) and package app are the references the analyzer weighs.
package lib

import "fmt"

func Unused() {} // want `exported Unused is never referenced; delete it`

func OwnTestsOnly() int { return 1 } // want `exported OwnTestsOnly is referenced only by its own package's tests; move it into a _test.go file or delete it`

func ExternalTestsOnly() int { return 2 } // want `exported ExternalTestsOnly is referenced only by its own package's tests`

func OwnFileOnly() int { return 3 } // want `exported OwnFileOnly is referenced only in its own file; unexport it`

func callsOwnFileOnly() int { return OwnFileOnly() }

// UsedBySibling is referenced from sibling.go, another file of this
// package, so it is live (if only worth unexporting by hand).
func UsedBySibling() int { return 4 }

// UsedByApp is called from package app.
func UsedByApp() int { return callsOwnFileOnly() }

// UsedByOtherTests is a shared fixture: only app's tests call it.
func UsedByOtherTests() int { return 5 }

// lint:invariant(deadexport): reached only through a plugin table the analyzer cannot see
func Suppressed() {}

// T carries the method cases.
type T struct{ n int }

// Get is live as a method value taken in package app.
func (t *T) Get() int { return t.n }

func (t *T) Stale() int { return t.n } // want `exported T.Stale is never referenced; delete it`

// String implements fmt.Stringer; calls through the interface never name it.
func (t T) String() string { return fmt.Sprint(t.n) }

// Shape is a module interface; Square satisfies it.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ side int }

// Area implements Shape and is exempt although nothing calls it by name.
func (s Square) Area() int { return s.side * s.side }

// unexported declarations are out of scope.
func unused() {}
