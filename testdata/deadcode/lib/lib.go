// Package lib is the dead-code gate's fixture: TestDeadCodeFixture
// expects exactly Unused and helper to be reported.
package lib

// Unused is exported, and nothing calls it.
func Unused() { helper() }

// helper is reached only from Unused.
func helper() {}

// Name is live through Measured's result.
type Name string

// String satisfies fmt.Stringer; nothing calls it directly.
func (n Name) String() string { return string(n) }

// Measured is called only from the perfbench-style root in ../bench.
func Measured() Name { return "measured" }
