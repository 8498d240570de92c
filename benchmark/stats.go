package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks, in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	v := float64(s[lo]) + frac*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}

// medianSeconds returns the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	return quantile(ds, 0.5) / 1000
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meanMS is the mean of ds in milliseconds, 0 for none.
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total from the OS where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// gcSample is the allocation and GC counters at one instant.
type gcSample struct {
	alloc uint64
	gcs   uint32
}

func readGC() gcSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSample{alloc: m.TotalAlloc, gcs: m.NumGC}
}

// perOp returns the allocation bytes and GC cycles per op since s.
func (s gcSample) perOp(ops int) (allocBytes, gcCycles float64) {
	now := readGC()
	return ratio(float64(now.alloc-s.alloc), float64(ops)), ratio(float64(now.gcs-s.gcs), float64(ops))
}
