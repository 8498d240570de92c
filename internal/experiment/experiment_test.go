package experiment

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"rainbar/internal/channel"
)

// tinyOptions keeps harness tests fast: 2 frames per sweep point.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Scale.Frames = 2
	return o
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID:      "demo",
		Title:   "a demo table",
		Columns: []string{"x", "long_column"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow(1, 3.14159)
	tbl.AddRow("wide-value-here", 2)
	out := tbl.Format()
	for _, want := range []string{"=== demo: a demo table ===", "long_column", "wide-value-here", "3.142", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	// Columns must stay aligned: every data line at least as wide as the
	// widest cell in column 0.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines: %d", len(lines))
	}
}

func TestRunErrorRateCleanChannelIsLow(t *testing.T) {
	cfg := channel.DefaultConfig()
	m, err := RunErrorRate(SystemRainBar, RunConfig{
		Scale: tinyOptions().Scale, BlockSize: 12, DisplayRate: 10,
		Channel: cfg, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.SymbolErrorRate > 0.01 {
		t.Fatalf("error rate %.4f on the default channel, want < 1%%", m.SymbolErrorRate)
	}
}

func TestRunErrorRateUnknownSystem(t *testing.T) {
	if _, err := RunErrorRate(System("nope"), RunConfig{Scale: tinyOptions().Scale, BlockSize: 12, DisplayRate: 10, Channel: channel.DefaultConfig()}); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestRunStreamProducesConsistentMetrics(t *testing.T) {
	m, err := RunStream(SystemRainBar, RunConfig{
		Scale: tinyOptions().Scale, BlockSize: 12, DisplayRate: 10,
		Channel: channel.DefaultConfig(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.DecodingRate < 0 || m.DecodingRate > 1 {
		t.Fatalf("decoding rate %v out of [0,1]", m.DecodingRate)
	}
	if m.DecodingRate > 0 && m.ThroughputBps <= 0 {
		t.Fatal("decoded frames but zero throughput")
	}
}

func TestRunStreamDeterministic(t *testing.T) {
	rc := RunConfig{
		Scale: tinyOptions().Scale, BlockSize: 12, DisplayRate: 14,
		Channel: channel.DefaultConfig(), Seed: 3,
	}
	a, err := RunStream(SystemRainBar, rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStream(SystemRainBar, rc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config, different metrics: %+v vs %+v", a, b)
	}
}

func TestCapacityAnalysisOrdering(t *testing.T) {
	tbl, err := CapacityAnalysis(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "RainBar" || tbl.Rows[1][0] != "COBRA" || tbl.Rows[2][0] != "RDCode" {
		t.Fatalf("row order: %v", tbl.Rows)
	}
	// The whole analytic table, cell by cell and note by note: the
	// counts are arithmetic on the S4 screen, so any change is a bug.
	want := [][]string{
		{"RainBar", "11609", "11520", "2902"},
		{"COBRA", "10857", "10857", "2714"},
		{"RDCode", "10080", "10508", "2520"},
	}
	if fmt.Sprint(tbl.Rows) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", tbl.Rows, want)
	}
	wantNotes := []string{
		"shape: RainBar > COBRA > RDCode; our counts are cell-exact, the paper's are its own arithmetic",
		"RDCode counted after excluding its 4 palette blocks per square (the paper's 10508 counts them in)",
	}
	if fmt.Sprint(tbl.Notes) != fmt.Sprint(wantNotes) {
		t.Fatalf("notes = %q, want %q", tbl.Notes, wantNotes)
	}
}

func TestLocalizationErrorShape(t *testing.T) {
	tbl, err := LocalizationError(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Under the strongest distortion COBRA's error must exceed RainBar's.
	last := tbl.Rows[len(tbl.Rows)-1]
	if !(parseF(t, last[1]) < parseF(t, last[2])) {
		t.Fatalf("strong distortion: rainbar %s !< cobra %s", last[1], last[2])
	}
}

func TestHSVvsRGBShape(t *testing.T) {
	tbl, err := HSVvsRGB(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// At the dimmest point HSV must beat the RGB classifier.
	first := tbl.Rows[0]
	if !(parseF(t, first[1]) > parseF(t, first[2])) {
		t.Fatalf("dim point: hsv %s !> rgb %s", first[1], first[2])
	}
}

func TestDecodeTimeRuns(t *testing.T) {
	tbl, err := DecodeTime(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tbl.Rows))
	}
	// COBRA's modeled row must exceed RainBar single-thread by ~12 ms.
	rb := parseF(t, tbl.Rows[0][2])
	cb := parseF(t, tbl.Rows[2][2])
	if cb < rb+10 {
		t.Fatalf("COBRA %v ms not ≈12ms above RainBar %v ms", cb, rb)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestLightSyncComparisonShape(t *testing.T) {
	tbl, err := LightSyncComparison(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Wherever both decode fully, RainBar must out-carry LightSync.
	for _, row := range tbl.Rows {
		if parseF(t, row[1]) == 1 && parseF(t, row[2]) == 1 {
			if !(parseF(t, row[3]) > parseF(t, row[4])) {
				t.Fatalf("fps %s: rainbar %s B/s not above lightsync %s", row[0], row[3], row[4])
			}
		}
	}
}

func TestAlphabetRobustnessShape(t *testing.T) {
	tbl, err := AlphabetRobustness(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// At the harshest chroma level the B/W alphabet must err less.
	last := tbl.Rows[len(tbl.Rows)-1]
	if parseF(t, last[2]) > parseF(t, last[1]) {
		t.Fatalf("lightsync err %s above rainbar %s under max chroma", last[2], last[1])
	}
}

func TestLocalizationAblationShape(t *testing.T) {
	tbl, err := LocalizationAblation(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		full := parseF(t, row[1])
		if !(parseF(t, row[2]) > full && parseF(t, row[3]) > full) {
			t.Fatalf("%s: ablations (%s, %s) not worse than full %s", row[0], row[2], row[3], row[1])
		}
	}
}

func TestAdaptiveBlockSizeShape(t *testing.T) {
	tbl, err := AdaptiveBlockSize(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// In the walking regime the adaptive error must be below fixed-small.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "walking" {
		t.Fatalf("last regime = %s", last[0])
	}
	if !(parseF(t, last[3]) < parseF(t, last[4])) {
		t.Fatalf("walking: adaptive %s not below fixed %s", last[3], last[4])
	}
}
