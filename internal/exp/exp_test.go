package exp

import (
	"bytes"
	"context"
	encsv "encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func quick() Options { return Options{Seed: 1, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"figure1", "figure2", "figure3", "figure4", "figure6", "figure7",
		"figure8", "figure9", "figure10", "figure11", "figure12", "figure13",
		"ext-nvm",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if _, ok := ByID("figure99"); ok {
		t.Error("bogus id resolved")
	}
}

func TestStaticTables(t *testing.T) {
	// The data-catalog tables run instantly and must match the paper's
	// published values.
	r, err := Table1(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.Rows() != 4 {
		t.Fatalf("table1 rows = %d", r.Table.Rows())
	}
	if got := tableCell(t, r, 1, 3); got != "150" {
		t.Fatalf("NVM load latency cell = %q", got)
	}

	r, err = Table3(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.Rows() != 4 {
		t.Fatalf("table3 rows = %d", r.Table.Rows())
	}
	if got := tableCell(t, r, 3, 1); got != "960.00" {
		t.Fatalf("L:5,B:12 latency cell = %q", got)
	}

	r, err = Table6(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if got := tableCell(t, r, 0, 1); got != "25.50" {
		t.Fatalf("8K batch move cost = %q", got)
	}
	if got := tableCell(t, r, 3, 2); got != "10.25" {
		t.Fatalf("128K batch walk cost = %q", got)
	}
}

func TestTable2And5FromRegistries(t *testing.T) {
	r, err := Table2(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.Rows() != 6 {
		t.Fatalf("table2 rows = %d", r.Table.Rows())
	}
	r, err = Table5(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.Rows() != 4 {
		t.Fatalf("table5 rows = %d", r.Table.Rows())
	}
	if tableCell(t, r, 3, 0) != "HeteroOS-coordinated" {
		t.Fatal("table5 ordering wrong")
	}
}

func TestTable4MPKI(t *testing.T) {
	r, err := Table4(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// GraphChi row leads with the Table 4 MPKI of 27.4.
	if tableCell(t, r, 0, 1) != "27.40" {
		t.Fatalf("GraphChi MPKI = %q", tableCell(t, r, 0, 1))
	}
}

// tableCell reads data row row, column col of r's table from its CSV
// rendering.
func tableCell(t *testing.T, r *Result, row, col int) string {
	t.Helper()
	var b bytes.Buffer
	r.Table.RenderCSV(&b)
	recs, err := encsv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs[row+1][col]
}

func numCell(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	raw := tableCell(t, r, row, col)
	raw = strings.Fields(raw)[0]
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tableCell(t, r, row, col))
	}
	return v
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure1(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: GraphChi, LevelDB over {L2B2, L5B9} + remote NUMA.
	for row := 0; row < r.Table.Rows(); row++ {
		mild := numCell(t, r, row, 1)
		harsh := numCell(t, r, row, 2)
		remote := numCell(t, r, row, 3)
		if !(mild >= 1 && harsh > mild) {
			t.Errorf("row %d: slowdowns not monotone: %v, %v", row, mild, harsh)
		}
		// Observation 2: remote NUMA penalty is far below heterogeneous
		// misplacement.
		if !(remote < mild && remote < 1.5) {
			t.Errorf("row %d: remote NUMA slowdown %v should be small", row, remote)
		}
	}
	// GraphChi (memory-intensive) suffers more than LevelDB.
	if !(numCell(t, r, 0, 2) > numCell(t, r, 1, 2)) {
		t.Error("GraphChi should be more sensitive than LevelDB")
	}
}

func TestFigure2LargerLLCReducesSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	f1, err := Figure1(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Figure2(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// The 48 MB LLC absorbs more traffic: slowdown at the harsh point
	// must not exceed the 16 MB platform's.
	for row := 0; row < f2.Table.Rows(); row++ {
		if numCell(t, f2, row, 2) > numCell(t, f1, row, 2)+0.05 {
			t.Errorf("row %d: larger LLC increased slowdown", row)
		}
	}
}

func TestFigure3CapacityMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure3(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < r.Table.Rows(); row++ {
		half := numCell(t, r, row, 1)
		eighth := numCell(t, r, row, 2)
		if !(half >= 0.95 && eighth >= half-0.05) {
			t.Errorf("row %d: capacity slowdown not monotone: 1/2=%v 1/8=%v", row, half, eighth)
		}
	}
}

func TestFigure4Distribution(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure4(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode rows: Redis, LevelDB.
	// Redis is NW-buff heavy; LevelDB is I/O-cache heavy (Figure 4).
	redisNW := numCell(t, r, 0, 3)
	ldbIO := numCell(t, r, 1, 2)
	if redisNW < 5 {
		t.Errorf("Redis NW-buff share = %v%%, want substantial", redisNW)
	}
	if ldbIO < 30 {
		t.Errorf("LevelDB I/O cache share = %v%%, want dominant", ldbIO)
	}
	// Shares sum to ~100.
	for row := 0; row < r.Table.Rows(); row++ {
		sum := 0.0
		for col := 1; col <= 5; col++ {
			sum += numCell(t, r, row, col)
		}
		if sum < 99 || sum > 101 {
			t.Errorf("row %d shares sum to %v", row, sum)
		}
	}
}

func TestFigure6LatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure6(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: SlowMem-only, Random, Heap-OD, FastMem-only, VMM-exclusive.
	// Columns (quick): 0.25GB, 1GB.
	slowSmall, slowBig := numCell(t, r, 0, 1), numCell(t, r, 0, 2)
	heapODSmall, heapODBig := numCell(t, r, 2, 1), numCell(t, r, 2, 2)
	fastSmall, fastBig := numCell(t, r, 3, 1), numCell(t, r, 3, 2)
	// FastMem-only is the floor; SlowMem-only the ceiling.
	if !(fastSmall < heapODSmall*1.05 && heapODSmall < slowSmall) {
		t.Errorf("0.25GB ordering wrong: fast=%v heapOD=%v slow=%v", fastSmall, heapODSmall, slowSmall)
	}
	// Heap-OD matches FastMem-only while the WSS fits the 0.5GB
	// FastMem, then degrades toward SlowMem-only beyond it.
	if !(heapODBig > heapODSmall && heapODBig <= slowBig*1.05) {
		t.Errorf("Heap-OD capacity behaviour wrong: small=%v big=%v slow=%v", heapODSmall, heapODBig, slowBig)
	}
	if !(fastBig < heapODBig) {
		t.Errorf("FastMem-only should stay fastest at 1GB: %v vs %v", fastBig, heapODBig)
	}
}

func TestFigure7BandwidthShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure7(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// FastMem-only bandwidth far exceeds SlowMem-only at both sizes.
	for col := 1; col <= 2; col++ {
		slow := numCell(t, r, 0, col)
		fast := numCell(t, r, 3, col)
		if !(fast > 3*slow) {
			t.Errorf("col %d: fast bw %v not >> slow bw %v", col, fast, slow)
		}
	}
	// Heap-OD at 0.5GB (fits FastMem) approaches FastMem-only.
	if numCell(t, r, 2, 1) < numCell(t, r, 3, 1)*0.7 {
		t.Errorf("Heap-OD small-WSS bandwidth too low: %v vs %v",
			numCell(t, r, 2, 1), numCell(t, r, 3, 1))
	}
}

func TestFigure8OverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure8(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// Overhead falls as the scan interval grows (100ms vs 500ms), and
	// the 100ms point sits in the paper's heavyweight band.
	o100 := numCell(t, r, 0, 3)
	o500 := numCell(t, r, 1, 3)
	if !(o100 > o500) {
		t.Errorf("overhead not decreasing with interval: %v vs %v", o100, o500)
	}
	if o100 < 10 || o100 > 75 {
		t.Errorf("100ms overhead %v%% outside plausible band", o100)
	}
	if numCell(t, r, 0, 4) <= 0 {
		t.Error("no pages migrated")
	}
}

func TestFigure9PlacementShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure9(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// Quick: GraphChi and LevelDB at 1/4 ratio.
	// Columns: app, ratio, Heap-OD, Heap-IO-Slab-OD, HeteroOS-LRU,
	// NUMA-preferred, FastMem-only.
	for row := 0; row < r.Table.Rows(); row++ {
		heapOD := numCell(t, r, row, 2)
		ideal := numCell(t, r, row, 6)
		if heapOD <= 0 {
			t.Errorf("row %d: Heap-OD gains %v not positive", row, heapOD)
		}
		if ideal < heapOD {
			t.Errorf("row %d: FastMem-only (%v) below Heap-OD (%v)", row, ideal, heapOD)
		}
	}
	// LevelDB (row 1): I/O prioritisation must beat heap-only placement.
	if !(numCell(t, r, 1, 3) > numCell(t, r, 1, 2)) {
		t.Error("LevelDB: Heap-IO-Slab-OD should beat Heap-OD")
	}
	// GraphChi (row 0): HeteroOS-LRU must beat plain placement.
	if !(numCell(t, r, 0, 4) > numCell(t, r, 0, 3)) {
		t.Error("GraphChi: HeteroOS-LRU should beat Heap-IO-Slab-OD")
	}
}

func TestFigure10MissRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure10(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < r.Table.Rows(); row++ {
		for col := 1; col <= 4; col++ {
			v := numCell(t, r, row, col)
			if v < 0 || v > 1 {
				t.Errorf("miss ratio out of range: %v", v)
			}
		}
		// HeteroOS-LRU reclaims, so its miss ratio undercuts plain
		// on-demand placement (Figure 10's headline).
		if !(numCell(t, r, row, 3) <= numCell(t, r, row, 2)+0.02) {
			t.Errorf("row %d: LRU miss ratio above Heap-IO-Slab-OD", row)
		}
	}
}

func TestFigure11CoordinatedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure11(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// GraphChi at 1/4 (row 0): coordinated beats VMM-exclusive.
	lru := numCell(t, r, 0, 2)
	vmm := numCell(t, r, 0, 3)
	coord := numCell(t, r, 0, 4)
	if !(coord > vmm*0.9) {
		t.Errorf("coordinated (%v) should not trail VMM-exclusive (%v) badly", coord, vmm)
	}
	if !(coord > lru*0.9) {
		t.Errorf("coordinated (%v) should not trail HeteroOS-LRU (%v) badly", coord, lru)
	}
}

func TestFigure12MigrationAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure12(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// Each cell carries "gain (pagesM)"; the VMM-exclusive column must
	// move more pages than HeteroOS-LRU (Figure 12's contrast).
	row := 0
	vmmCell := tableCell(t, r, row, 1)
	lruCell := tableCell(t, r, row, 2)
	vmmPages := parseParenMillions(t, vmmCell)
	lruPages := parseParenMillions(t, lruCell)
	if !(vmmPages > lruPages) {
		t.Errorf("VMM-exclusive moved %vM <= LRU %vM", vmmPages, lruPages)
	}
}

func parseParenMillions(t *testing.T, cellVal string) float64 {
	t.Helper()
	open := strings.Index(cellVal, "(")
	close := strings.Index(cellVal, "M)")
	if open < 0 || close < 0 {
		t.Fatalf("cell %q lacks (xM) annotation", cellVal)
	}
	v, err := strconv.ParseFloat(cellVal[open+1:close], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestExtNVMWriteAwareWins(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := ExtNVM(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	// gain % positive and extra promotions > 0 at the contended size.
	if g := numCell(t, r, 0, 3); g <= 0 {
		t.Errorf("write-aware gain %v not positive", g)
	}
	if extra := numCell(t, r, 0, 4); extra <= 0 {
		t.Errorf("no extra promotions (%v) — write tracking inert", extra)
	}
}

func TestFigure13DRFProtectsVictim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := Figure13(context.Background(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: GraphChi VM, Metis VM. Columns: VMM-exclusive, coordinated
	// (max-min), DRF-coordinated, single-VM.
	gMaxMin := numCell(t, r, 0, 2)
	gDRF := numCell(t, r, 0, 3)
	gSingle := numCell(t, r, 0, 4)
	// DRF must improve the contended GraphChi VM over max-min.
	if !(gDRF > gMaxMin) {
		t.Errorf("DRF (%v) did not improve GraphChi over max-min (%v)", gDRF, gMaxMin)
	}
	// Contention cannot beat running alone.
	if gDRF > gSingle+10 {
		t.Errorf("multi-VM DRF (%v) implausibly beats single-VM (%v)", gDRF, gSingle)
	}
}
