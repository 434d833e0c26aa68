package drf_test

import (
	"fmt"

	"heteroos/internal/drf"
)

// The paper's configuration: FastMem and SlowMem as two resources with
// weights 2 and 1, shared by two guest VMs with different demand mixes.
func ExampleAllocator() {
	// 4 GiB FastMem, 8 GiB SlowMem (in GiB units), FastMem weighted 2x.
	a, err := drf.New([]float64{4, 8}, []float64{2, 1})
	if err != nil {
		panic(err)
	}
	a.AddClient(1) // GraphChi VM: SlowMem-hungry
	a.AddClient(2) // Metis VM: FastMem-hungry

	if err := a.Grant(1, []float64{0.5, 4}); err != nil {
		panic(err)
	}
	if err := a.Grant(2, []float64{1.5, 1}); err != nil {
		panic(err)
	}
	s1, _ := a.DominantShare(1)
	s2, _ := a.DominantShare(2)
	fmt.Printf("VM1: dominant share %.2f\n", s1)
	fmt.Printf("VM2: dominant share %.2f\n", s2)
	// A grant past FastMem's capacity is refused; the VMM then balloons
	// the VM with the higher dominant share, VM2.
	fmt.Println(a.Grant(1, []float64{3, 0}))
	// Output:
	// VM1: dominant share 0.50
	// VM2: dominant share 0.75
	// drf: insufficient capacity: resource 0 (want 3, free 2)
}
