// Package sensor provides the accelerometer-driven adaptive configuration
// RainBar adopts from COBRA (paper §III-A): the sender estimates its level
// of mobility from accelerometer variance and adapts the block size before
// data mapping — crucially *before*, the paper notes, so the per-frame
// capacity is known when data is chunked.
//
// Physical accelerometers are replaced by synthetic trace generators for
// the three regimes the evaluation exercises: phones on a table, in
// steady hands, and while walking.
package sensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Sample is one 3-axis accelerometer reading in m/s².
type Sample struct {
	X, Y, Z float64
}

// Magnitude returns the deviation of the sample from rest (|a| - g).
func (s Sample) Magnitude() float64 {
	return math.Abs(math.Sqrt(s.X*s.X+s.Y*s.Y+s.Z*s.Z) - gravity)
}

const gravity = 9.81

// Mobility classifies the sender's movement regime.
type Mobility int

// Mobility levels.
const (
	MobilityStill Mobility = iota + 1
	MobilityHandheld
	MobilityWalking
)

// String returns the regime name.
func (m Mobility) String() string {
	switch m {
	case MobilityStill:
		return "still"
	case MobilityHandheld:
		return "handheld"
	case MobilityWalking:
		return "walking"
	default:
		return "unknown"
	}
}

// Thresholds on the windowed standard deviation of Magnitude (m/s²)
// separating the regimes; calibrated on the synthetic traces below but of
// the same order as smartphone literature values.
const (
	stillStdDev = 0.08
	handStdDev  = 0.8
)

// ClassifyWindow estimates the mobility regime from a window of samples.
func ClassifyWindow(window []Sample) Mobility {
	if len(window) == 0 {
		return MobilityStill
	}
	var sum, sum2 float64
	for _, s := range window {
		m := s.Magnitude()
		sum += m
		sum2 += m * m
	}
	n := float64(len(window))
	mean := sum / n
	variance := sum2/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	sd := math.Sqrt(variance)
	switch {
	case sd < stillStdDev:
		return MobilityStill
	case sd < handStdDev:
		return MobilityHandheld
	default:
		return MobilityWalking
	}
}

// BlockSizePolicy maps a mobility regime to a block size in pixels: more
// movement means more motion blur, so bigger blocks (§III-A's adaptive
// configuration). Bounds B_min and B_max also gate the decoder's
// first-middle-locator search (§III-E).
type BlockSizePolicy struct {
	// Min and Max bound the block size in pixels.
	Min, Max int
}

// Validate reports configuration errors.
func (p BlockSizePolicy) Validate() error {
	if p.Min < 2 || p.Max < p.Min {
		return fmt.Errorf("sensor: invalid block size bounds [%d, %d]", p.Min, p.Max)
	}
	return nil
}

// BlockSize picks the block size for a mobility regime: Min when still,
// Max when walking, the midpoint in between.
func (p BlockSizePolicy) BlockSize(m Mobility) int {
	switch m {
	case MobilityStill:
		return p.Min
	case MobilityWalking:
		return p.Max
	default:
		return (p.Min + p.Max) / 2
	}
}

// Trace generates synthetic accelerometer streams. Create with NewTrace.
type Trace struct {
	mobility Mobility
	rng      *rand.Rand
	t        float64
}

// NewTrace creates a generator for the given regime and seed.
func NewTrace(m Mobility, seed int64) *Trace {
	// Determinism contract (RB-D2): locally seeded *rand.Rand — every
	// sample is a pure function of (seed, draw index), never of global or
	// time-seeded state.
	return &Trace{mobility: m, rng: rand.New(rand.NewSource(seed))}
}

// Next produces the next sample at the given sampling interval in seconds.
// The models: rest is gravity plus sensor noise; handheld adds a ~2 Hz
// physiological tremor; walking adds a strong ~1.8 Hz gait oscillation
// with harmonics.
func (tr *Trace) Next(dt float64) Sample {
	tr.t += dt
	noise := func(sd float64) float64 { return tr.rng.NormFloat64() * sd }
	switch tr.mobility {
	case MobilityHandheld:
		// The tremor must show up along gravity: magnitude deviation is
		// first-order in Z and only second-order in X/Y.
		tremor := 0.5 * math.Sin(2*math.Pi*2.1*tr.t)
		return Sample{
			X: noise(0.15) + 0.3*math.Sin(2*math.Pi*1.7*tr.t+1),
			Y: noise(0.15),
			Z: gravity + noise(0.15) + tremor,
		}
	case MobilityWalking:
		gait := 1.8 * math.Sin(2*math.Pi*1.8*tr.t)
		bounce := 2.4*math.Sin(2*math.Pi*3.6*tr.t+0.5) + noise(0.6)
		return Sample{
			X: noise(0.5) + gait,
			Y: noise(0.5) + 0.8*math.Sin(2*math.Pi*1.8*tr.t+2),
			Z: gravity + bounce,
		}
	default:
		return Sample{X: noise(0.02), Y: noise(0.02), Z: gravity + noise(0.02)}
	}
}

// Window produces n consecutive samples at interval dt.
func (tr *Trace) Window(n int, dt float64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = tr.Next(dt)
	}
	return out
}

// AdaptiveConfigurator ties the pieces together: feed it accelerometer
// windows, read the block size to use for the next frame batch.
type AdaptiveConfigurator struct {
	policy BlockSizePolicy
	// Hysteresis: require this many consecutive windows agreeing before
	// switching regimes, so the block size does not flap mid-transfer.
	hysteresis int

	current   Mobility
	candidate Mobility
	votes     int
}

// NewAdaptiveConfigurator creates a configurator with the given policy and
// hysteresis window count (minimum 1).
func NewAdaptiveConfigurator(policy BlockSizePolicy, hysteresis int) (*AdaptiveConfigurator, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if hysteresis < 1 {
		hysteresis = 1
	}
	return &AdaptiveConfigurator{policy: policy, hysteresis: hysteresis, current: MobilityStill}, nil
}

// Observe processes one accelerometer window and returns the (possibly
// updated) mobility regime.
func (a *AdaptiveConfigurator) Observe(window []Sample) Mobility {
	m := ClassifyWindow(window)
	if m == a.current {
		a.candidate = m
		a.votes = 0
		return a.current
	}
	if m == a.candidate {
		a.votes++
	} else {
		a.candidate = m
		a.votes = 1
	}
	if a.votes >= a.hysteresis {
		a.current = m
		a.votes = 0
	}
	return a.current
}

// Mobility returns the current regime.
func (a *AdaptiveConfigurator) Mobility() Mobility { return a.current }

// BlockSize returns the block size for the current regime.
func (a *AdaptiveConfigurator) BlockSize() int { return a.policy.BlockSize(a.current) }
