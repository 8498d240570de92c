package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestSelfTestFiresOnCorruption(t *testing.T) {
	sent := newRNG(1, 9).imagePayload(300)
	exact := func(got []byte) error { return checkSession(got, sent) }
	if err := selfTest(exact, append([]byte(nil), sent...)); err != nil {
		t.Fatalf("bit-exact check: %v", err)
	}
	if selfTest(func([]byte) error { return nil }, sent) == nil {
		t.Fatal("a check that accepts everything passed the self-test")
	}
	// A concealed chunk may differ; every other chunk must not.
	got := append([]byte(nil), sent...)
	lo, hi := chunkRange(1, 100, len(sent))
	for i := lo; i < hi; i++ {
		got[i] = 0x80
	}
	if err := verifyLossy(sent, got, 100, []int{1}); err != nil {
		t.Fatalf("concealed chunk rejected: %v", err)
	}
	if verifyLossy(sent, got, 100, nil) == nil {
		t.Fatal("changed chunk not reported concealed was accepted")
	}
	if verifyLossy(sent, got[:len(got)-1], 100, []int{1}) == nil {
		t.Fatal("short delivery was accepted")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := genXferOps(newRNG(7, 1), 12, 300)
	b := genXferOps(newRNG(7, 1), 12, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different transfers")
	}
	if reflect.DeepEqual(a, genXferOps(newRNG(8, 1), 12, 300)) {
		t.Fatal("different seeds drew the same transfers")
	}
	for _, op := range a {
		if n := (len(op.data) + 12 + 299) / 300; n < 1 || n > 6 {
			t.Errorf("%d-byte payload needs %d chunks", len(op.data), n)
		}
	}
}

// TestXferCountsExact runs the transfer workload at smoke size twice on
// one seed: every op verifies and the count metrics repeat exactly.
func TestXferCountsExact(t *testing.T) {
	var first map[string]float64
	for i := 0; i < 2; i++ {
		b, err := newXferBench(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := b.run()
		if p.failed != 0 {
			t.Fatalf("%d ops failed: %v", p.failed, p.firstErr)
		}
		_, m, err := b.traced(newTracer(), p)
		if err != nil {
			t.Fatal(err)
		}
		if cov := m["trace.coverage"]; cov < 0.9 || cov > 1 {
			t.Errorf("trace.coverage = %v, want in [0.9, 1]", cov)
		}
		if i == 1 {
			for _, name := range []string{"transport.rounds_per_op", "transport.frames_sent_per_needed",
				"camera.captures_per_frame", "camera.mixed_ratio", "core.capture_fail_ratio",
				"core.frames_decoded_ratio", "core.ladder_attempts_per_capture"} {
				if m[name] != first[name] {
					t.Errorf("%s = %v then %v on one seed", name, first[name], m[name])
				}
			}
		}
		first = m
	}
}

func TestReplaySmoke(t *testing.T) {
	b, err := newReplayBench(5, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := b.run()
	if p.failed != 0 || p.ok != 6 {
		t.Fatalf("%d of 6 ops verified: %v", p.ok, p.firstErr)
	}
	_, m, err := b.traced(newTracer(), p)
	if err != nil {
		t.Fatal(err)
	}
	if m["core.decode_ms_per_capture"] <= 0 || m["trace.coverage"] < 0.9 {
		t.Errorf("decode %v ms per capture, coverage %v", m["core.decode_ms_per_capture"], m["trace.coverage"])
	}
}

func TestServeSmoke(t *testing.T) {
	b, err := newServeBench(2, 4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.ok != 4 {
		t.Fatalf("%d of 4 sessions verified: %v", p.ok, p.firstErr)
	}
	_, m, err := b.traced(newTracer(), p)
	if err != nil {
		t.Fatal(err)
	}
	if m["journal.records_per_session"] < 2 || m["serve.step_p50_ms"] <= 0 {
		t.Errorf("records per session %v, step p50 %v ms", m["journal.records_per_session"], m["serve.step_p50_ms"])
	}
}

// TestBenchmarkJSONMatchesCode keeps the metric and workload names the
// program prints in step with the benchmark's declaration.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("declared %d workloads, program has %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is unknown to the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s metrics declared %v, printed %v", kind, g, w)
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}
