// Package bench stands in for perfbench: every reference in it is a
// root, though nothing in it is main or init.
package bench

import "fixture/lib"

// Run measures lib.
func Run() string { return lib.Measured().String() }
