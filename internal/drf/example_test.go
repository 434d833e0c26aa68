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

	grants := a.RunToSaturation(map[drf.ClientID][]float64{
		1: {0.25, 1.0}, // per task: 0.25 GiB fast, 1 GiB slow
		2: {0.75, 0.5}, // per task: 0.75 GiB fast, 0.5 GiB slow
	}, 1000)

	s1, _ := a.DominantShare(1)
	s2, _ := a.DominantShare(2)
	r1, _ := a.DominantResource(1)
	r2, _ := a.DominantResource(2)
	res := []string{"FastMem", "SlowMem"}
	fmt.Printf("VM1: %d tasks, dominant %s share %.2f\n", grants[1], res[r1], s1)
	fmt.Printf("VM2: %d tasks, dominant %s share %.2f\n", grants[2], res[r2], s2)
	// Output:
	// VM1: 7 tasks, dominant FastMem share 0.88
	// VM2: 2 tasks, dominant FastMem share 0.75
}
