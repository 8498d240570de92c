package transport

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"testing"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
)

// flatMemoryFrames are the frame counts of the small and the large
// transfer TestRoundMemoryFlat compares.
var flatMemoryFrames = [2]int{16, 64}

// TestRoundMemoryFlat: the peak resident memory of one transfer does not
// grow with its frame count. It runs TestRoundMemoryChild in a fresh
// process per size and compares the peaks the children report: the
// 64-frame transfer may peak at most 1.25x the 16-frame one. The eager
// round held every frame and capture of a round and peaked about 3x
// higher at 64 frames than at 16 on this geometry.
//
// Each child reports its own high-water mark (VmHWM), not the ru_maxrss
// the parent reads after wait: Linux carries a vfork+exec parent's peak
// into the child's ru_maxrss, so inside a large test process both children
// would report the parent's size.
func TestRoundMemoryFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory swamps the heap being measured")
	}
	var peak [2]int64
	for i, n := range flatMemoryFrames {
		out, err := exec.Command(os.Args[0], "-test.run=^TestRoundMemoryChild$", "-test.count=1", "--", strconv.Itoa(n)).CombinedOutput()
		if err != nil {
			t.Fatalf("%d-frame child: %v\n%s", n, err, out)
		}
		if !bytes.Contains(out, []byte("PASS")) {
			t.Fatalf("%d-frame child did not run:\n%s", n, out)
		}
		if peak[i], err = vmHWM(out); err != nil {
			t.Fatalf("%d-frame child: %v\n%s", n, err, out)
		}
	}
	if float64(peak[1]) > 1.25*float64(peak[0]) {
		t.Fatalf("peak RSS grew with the transfer: %d frames %d KiB, %d frames %d KiB (ratio %.2f, want <= 1.25)",
			flatMemoryFrames[0], peak[0], flatMemoryFrames[1], peak[1], float64(peak[1])/float64(peak[0]))
	}
	t.Logf("peak RSS: %d frames %d KiB, %d frames %d KiB", flatMemoryFrames[0], peak[0], flatMemoryFrames[1], peak[1])
}

// TestRoundMemoryChild is TestRoundMemoryFlat's child process: given a
// frame count after "--", it runs a clean transfer of that many frames
// until the collector has run twice, then prints its own peak RSS line
// from /proc/self/status. The repeats put both sizes in the GC's steady
// state: one 16-frame transfer ends before the first collection, which
// waits for a 4 MB heap, so its peak would count all it allocated rather
// than what it holds. Run without a frame count, it does nothing.
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
	for rep := 0; ; rep++ {
		got, _, err := s.Transfer(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("transfer not bit-exact")
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.NumGC >= 2 {
			break
		}
		if rep == 100 {
			t.Fatalf("%d transfers ran %d collections, want 2", rep+1, ms.NumGC)
		}
		s.Reset()
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vmHWM(status); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("VmHWM:")) {
			fmt.Printf("%s\n", line)
		}
	}
}

// vmHWM returns the peak resident set size, in KiB, from the first
// "VmHWM:" line of out, in /proc/<pid>/status's format.
func vmHWM(out []byte) (int64, error) {
	for _, line := range bytes.Split(out, []byte("\n")) {
		if f := bytes.Fields(line); len(f) == 3 && string(f[0]) == "VmHWM:" && string(f[2]) == "kB" {
			return strconv.ParseInt(string(f[1]), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM line in %q", out)
}
