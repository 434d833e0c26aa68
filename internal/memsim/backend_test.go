package memsim

import "testing"

func TestBackendInterfaceSatisfied(t *testing.T) {
	m := newTestMachine(64, 64)
	var _ Backend = NewAnalytic(m)
	if NewAnalytic(m).Machine() != m {
		t.Fatal("backend must expose its machine")
	}
}
