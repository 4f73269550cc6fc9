package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

func quickCfg() Config {
	return Config{Seed: 1, NumPoints: 20_000, CensusCount: 64, Quick: true}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Seed == 0 || c.NumPoints == 0 || c.CensusCount == 0 {
		t.Error("defaults not filled")
	}
	q := Config{Quick: true, NumPoints: 5_000_000}.WithDefaults()
	if q.NumPoints > 100_000 {
		t.Error("quick mode did not shrink the workload")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "t", Header: []string{"a", "bbb"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "22")
	tb.AddNote("note %d", 7)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== t ==", "longer", "note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunnerByName(t *testing.T) {
	if _, err := RunnerByName("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := RunnerByName("nope"); err == nil {
		t.Error("unknown runner accepted")
	}
	if len(Runners()) != 7 {
		t.Errorf("runner count = %d", len(Runners()))
	}
}

// parseCell strips formatting from a numeric table cell like "1234" or
// "1.05x".
func parseFloatCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig4aProducesAllMethods(t *testing.T) {
	tb, err := Fig4a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 7 { // RS-32/128/512, BS-512, R*, Quadtree, Kd
		t.Fatalf("rows = %d, want 7", len(tb.Rows))
	}
	// All methods must return plausible qualifying counts; RS counts shrink
	// (or stay equal) as precision grows.
	counts := map[string]float64{}
	for _, row := range tb.Rows {
		counts[row[0]] = parseFloatCell(t, row[3])
		if counts[row[0]] <= 0 {
			t.Errorf("%s returned %v qualifying points", row[0], counts[row[0]])
		}
	}
	if counts["RS-32"] < counts["RS-128"] || counts["RS-128"] < counts["RS-512"] {
		t.Errorf("qualifying counts not monotone in precision: %v", counts)
	}
}

func TestFig4bConservativeAndConverging(t *testing.T) {
	tb, err := Fig4b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, row := range tb.Rows {
		vals[row[0]] = parseFloatCell(t, row[1])
	}
	exact := vals["exact (PIP)"]
	if exact <= 0 {
		t.Fatal("no exact matches")
	}
	for _, name := range []string{"RS-32", "RS-128", "RS-512", "MBR filter"} {
		if vals[name] < exact {
			t.Errorf("%s returned fewer than exact: %v < %v", name, vals[name], exact)
		}
	}
	// Precision 512 must be much closer to exact than precision 32.
	if (vals["RS-512"]-exact)/exact > (vals["RS-32"]-exact)/exact {
		t.Error("higher precision did not reduce overcount")
	}
	// The paper's claim: RS-512 ≈ exact.
	if (vals["RS-512"]-exact)/exact > 0.05 {
		t.Errorf("RS-512 overcount %.3f, want ≤ 5%%", (vals["RS-512"]-exact)/exact)
	}
}

func TestFig6ApproxFastAndAccurate(t *testing.T) {
	tb, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		medErr := parseFloatCell(t, row[7])
		if medErr > 5 {
			t.Errorf("%s: ACT median error %v%%", row[0], medErr)
		}
	}
	// The paper's shape claim that survives any scale: ACT's advantage over
	// the exact R*-tree join is largest on the complex Borough polygons
	// (where PIP refinement is most expensive), and ACT must win there.
	boroughSpeedup := parseFloatCell(t, tb.Rows[0][5])
	censusSpeedup := parseFloatCell(t, tb.Rows[2][5])
	if boroughSpeedup < 1 {
		t.Errorf("Boroughs: ACT slower than R*-tree (%vx)", boroughSpeedup)
	}
	if boroughSpeedup < censusSpeedup {
		t.Errorf("speedup ordering violated: boroughs %vx < census %vx", boroughSpeedup, censusSpeedup)
	}
}

func TestMemOrdering(t *testing.T) {
	tb, err := Mem(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// ACT cells ≫ SI cells.
	actCells := parseFloatCell(t, tb.Rows[0][1])
	siCells := parseFloatCell(t, tb.Rows[1][1])
	if actCells <= siCells {
		t.Errorf("ACT cells %v not above SI cells %v", actCells, siCells)
	}
}

func TestFig7ShapesHold(t *testing.T) {
	tb, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Coarser bounds must not have larger median error than finer bounds...
	// errors shrink with the bound; check the 10m row has a small error.
	err10 := parseFloatCell(t, tb.Rows[1][4])
	if err10 > 5 {
		t.Errorf("BRJ 10m median error %v%%", err10)
	}
}

func TestAblApprox(t *testing.T) {
	tb, err := AblApprox(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	byName := map[string][]string{}
	for _, row := range tb.Rows {
		byName[row[0]] = row
	}
	// HR honors its bound; MBR's max Hausdorff is larger than HR's.
	hrMax := parseFloatCell(t, strings.TrimSuffix(byName["HR(64m)"][3], "m"))
	if hrMax > 64 {
		t.Errorf("HR max Hausdorff %vm above bound", hrMax)
	}
	mbrMax := parseFloatCell(t, strings.TrimSuffix(byName["MBR"][3], "m"))
	if mbrMax <= hrMax {
		t.Errorf("MBR max Hausdorff %vm not above HR %vm", mbrMax, hrMax)
	}
}

func TestAblCurve(t *testing.T) {
	tb, err := AblCurve(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	morton := parseFloatCell(t, tb.Rows[0][1])
	hilbert := parseFloatCell(t, tb.Rows[1][1])
	// Hilbert covers fragment into at most as many ranges as Morton's.
	if hilbert > morton*1.1 {
		t.Errorf("hilbert ranges/cover %v above morton %v", hilbert, morton)
	}
}

func TestAllRunnersComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full runner sweep in non-short mode only")
	}
	cfg := quickCfg()
	for _, r := range Runners() {
		start := time.Now()
		tb, err := r.Run(cfg)
		if err != nil {
			t.Errorf("%s: %v", r.Name, err)
			continue
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", r.Name)
		}
		t.Logf("%s completed in %v", r.Name, time.Since(start))
	}
}
