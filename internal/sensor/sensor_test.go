package sensor

import (
	"math"
	"testing"
)

func TestMagnitudeAtRest(t *testing.T) {
	s := Sample{X: 0, Y: 0, Z: gravity}
	if got := s.Magnitude(); got != 0 {
		t.Errorf("rest magnitude = %v", got)
	}
}

func TestMobilityString(t *testing.T) {
	cases := map[Mobility]string{
		MobilityStill:    "still",
		MobilityHandheld: "handheld",
		MobilityWalking:  "walking",
		Mobility(0):      "unknown",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q", m, got)
		}
	}
}

func TestClassifyWindowEmpty(t *testing.T) {
	if got := ClassifyWindow(nil); got != MobilityStill {
		t.Errorf("empty window = %v", got)
	}
}

func TestTracesClassifyToTheirRegime(t *testing.T) {
	// Each synthetic trace must classify back to the regime it models —
	// across several seeds, since the classifier must not depend on one
	// lucky noise draw.
	for _, m := range []Mobility{MobilityStill, MobilityHandheld, MobilityWalking} {
		for seed := int64(1); seed <= 5; seed++ {
			tr := NewTrace(m, seed)
			window := tr.Window(100, 0.02) // 2 s at 50 Hz
			if got := ClassifyWindow(window); got != m {
				t.Errorf("seed %d: %v trace classified as %v", seed, m, got)
			}
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	a := NewTrace(MobilityWalking, 7).Window(10, 0.02)
	b := NewTrace(MobilityWalking, 7).Window(10, 0.02)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

// paperPolicy covers the paper's evaluated block sizes (8..14 px).
var paperPolicy = BlockSizePolicy{Min: 8, Max: 14}

func TestPolicyValidate(t *testing.T) {
	if err := (BlockSizePolicy{Min: 1, Max: 5}).Validate(); err == nil {
		t.Error("min 1 accepted")
	}
	if err := (BlockSizePolicy{Min: 10, Max: 8}).Validate(); err == nil {
		t.Error("max < min accepted")
	}
	if err := paperPolicy.Validate(); err != nil {
		t.Errorf("default policy invalid: %v", err)
	}
}

func TestPolicyBlockSizes(t *testing.T) {
	p := paperPolicy
	if got := p.BlockSize(MobilityStill); got != p.Min {
		t.Errorf("still = %d, want %d", got, p.Min)
	}
	if got := p.BlockSize(MobilityWalking); got != p.Max {
		t.Errorf("walking = %d, want %d", got, p.Max)
	}
	mid := p.BlockSize(MobilityHandheld)
	if mid <= p.Min || mid >= p.Max {
		t.Errorf("handheld = %d, want strictly between %d and %d", mid, p.Min, p.Max)
	}
}

func TestConfiguratorHysteresis(t *testing.T) {
	cfg, err := NewAdaptiveConfigurator(paperPolicy, 2)
	if err != nil {
		t.Fatal(err)
	}
	still := NewTrace(MobilityStill, 1)
	walking := NewTrace(MobilityWalking, 2)

	if got := cfg.Observe(still.Window(100, 0.02)); got != MobilityStill {
		t.Fatalf("initial regime = %v", got)
	}
	// One walking window must not flip the regime yet (hysteresis 2).
	if got := cfg.Observe(walking.Window(100, 0.02)); got != MobilityStill {
		t.Fatalf("regime flipped after one window: %v", got)
	}
	// A second consecutive walking window must flip it.
	if got := cfg.Observe(walking.Window(100, 0.02)); got != MobilityWalking {
		t.Fatalf("regime did not flip after two windows: %v", got)
	}
	if got := cfg.BlockSize(); got != paperPolicy.Max {
		t.Errorf("block size = %d after walking", got)
	}
}

func TestConfiguratorVoteReset(t *testing.T) {
	cfg, err := NewAdaptiveConfigurator(paperPolicy, 2)
	if err != nil {
		t.Fatal(err)
	}
	still := NewTrace(MobilityStill, 3)
	hand := NewTrace(MobilityHandheld, 4)
	walking := NewTrace(MobilityWalking, 5)

	cfg.Observe(still.Window(100, 0.02))
	cfg.Observe(walking.Window(100, 0.02)) // vote 1 for walking
	cfg.Observe(hand.Window(100, 0.02))    // different candidate: reset
	if got := cfg.Mobility(); got != MobilityStill {
		t.Fatalf("regime = %v, want still (votes must reset)", got)
	}
}

func TestConfiguratorRejectsBadPolicy(t *testing.T) {
	if _, err := NewAdaptiveConfigurator(BlockSizePolicy{Min: 0, Max: 0}, 1); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestRegimeVarianceOrdering(t *testing.T) {
	// The variance of the magnitude must be strictly ordered across
	// regimes; this is the physical premise of the classifier.
	variance := func(m Mobility) float64 {
		window := NewTrace(m, 9).Window(200, 0.02)
		var sum, sum2 float64
		for _, s := range window {
			v := s.Magnitude()
			sum += v
			sum2 += v * v
		}
		n := float64(len(window))
		return sum2/n - math.Pow(sum/n, 2)
	}
	vs := variance(MobilityStill)
	vh := variance(MobilityHandheld)
	vw := variance(MobilityWalking)
	if !(vs < vh && vh < vw) {
		t.Fatalf("variance ordering violated: %v, %v, %v", vs, vh, vw)
	}
}
