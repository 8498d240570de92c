//go:build unix

package transport

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
)

// flatMemoryFrames are the frame counts of the small and the large
// transfer TestRoundMemoryFlat compares.
var flatMemoryFrames = [2]int{16, 64}

// TestRoundMemoryFlat: the peak resident memory of one transfer does not
// grow with its frame count. It runs TestRoundMemoryChild in a fresh
// process per size and compares the children's peak RSS: the 64-frame
// transfer may peak at most 1.25x the 16-frame one. The eager round held
// every frame and capture of a round and peaked about 3x higher at 64
// frames than at 16 on this geometry. The small run has 16 frames, not
// fewer, so that its heap too reaches the steady state the GC settles
// in.
func TestRoundMemoryFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory swamps the heap being measured")
	}
	var peak [2]int64
	for i, n := range flatMemoryFrames {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRoundMemoryChild$", "-test.count=1", "--", strconv.Itoa(n))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%d-frame child: %v\n%s", n, err, out)
		}
		if !bytes.Contains(out, []byte("PASS")) {
			t.Fatalf("%d-frame child did not run:\n%s", n, out)
		}
		peak[i] = maxRSS(cmd.ProcessState)
	}
	if float64(peak[1]) > 1.25*float64(peak[0]) {
		t.Fatalf("peak RSS grew with the transfer: %d frames %d, %d frames %d (ratio %.2f, want <= 1.25)",
			flatMemoryFrames[0], peak[0], flatMemoryFrames[1], peak[1], float64(peak[1])/float64(peak[0]))
	}
	t.Logf("peak RSS: %d frames %d, %d frames %d (units of the platform's ru_maxrss)", flatMemoryFrames[0], peak[0], flatMemoryFrames[1], peak[1])
}

// TestRoundMemoryChild is TestRoundMemoryFlat's child process: given a
// frame count after "--", it runs one clean transfer of that many frames.
// Run without one, it does nothing.
func TestRoundMemoryChild(t *testing.T) {
	if flag.NArg() != 1 {
		t.Skip("runs only as TestRoundMemoryFlat's child process")
	}
	n, err := strconv.Atoi(flag.Arg(0))
	if err != nil {
		t.Fatal(err)
	}
	c := roundCase{displayRate: 10, camRate: 30, readout: 0.9, chanCfg: channel.DefaultConfig(), recovery: RecoveryCombine}
	s := c.session(t)
	s.Link.Camera = camera.Default()
	data := payloadOfChunks(t, FileCodec{Codec: s.Codec}, n)
	got, _, err := s.Transfer(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("transfer not bit-exact")
	}
}

// maxRSS is a finished process's peak resident set size, in the unit the
// platform's getrusage reports (KiB on Linux).
func maxRSS(ps *os.ProcessState) int64 {
	return int64(ps.SysUsage().(*syscall.Rusage).Maxrss)
}
