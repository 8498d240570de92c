// Command benchmark measures RainBar end to end and layer by layer.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload xfer_clean --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - xfer_clean: closed loop, back-to-back transfers through the rainbar
//     facade (640x360, 12 px blocks, 10 fps, default channel and camera).
//     One op is one transfer.
//   - rx_replay: closed loop, captures filmed during set-up replayed into
//     one long-lived core.Receiver at a 20 fps display rate. One op is one
//     round's IngestBatch, Flush, verify and Reset.
//   - serve_mixed: open loop, sessions arriving at serveRate into one
//     journaled serve.Server. One op is one session, from due to
//     delivered.
//
// Each run does a fixed number of ops, derived from --seconds, and checks
// every delivered byte. With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it runs the same ops untraced, then again with a span
// around every public call into each layer, and prints the per-layer
// metrics. The last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, the last build is the one measured.
const setupReps = 3

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

// workloads maps each workload to its nominal ops per second of
// --seconds on a 2-CPU host; a run always does at least minOps ops so
// every percentile up to p90 has ten samples beyond it.
var workloads = map[string]float64{
	"xfer_clean":  5,
	"rx_replay":   45,
	"serve_mixed": serveRate,
}

const minOps = 100

// opsFor returns the fixed op count of a run.
func opsFor(workload string, seconds int) int {
	return max(minOps, int(math.Round(workloads[workload]*float64(seconds))))
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_ok_ratio", "ratio"},
	{"air_bytes_per_s", "B/s"},
	{"wall_bytes_per_s", "B/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// perLayer lists the per-layer metrics with their units. A workload that
// does not run a layer, or whose public API does not expose it, reports 0.
var perLayer = []struct{ name, unit string }{
	{"transport.rounds_per_op", "count"},
	{"transport.frames_sent_per_needed", "ratio"},
	{"core.encode_ms_per_frame", "ms"},
	{"core.encode_share", "ratio"},
	{"camera.film_ms_per_capture", "ms"},
	{"camera.film_share", "ratio"},
	{"camera.captures_per_frame", "count"},
	{"camera.mixed_ratio", "ratio"},
	{"core.decode_ms_per_capture", "ms"},
	{"core.decode_share", "ratio"},
	{"core.detect_ms", "ms"},
	{"core.locate_ms", "ms"},
	{"core.extract_ms", "ms"},
	{"core.correct_ms", "ms"},
	{"core.capture_fail_ratio", "ratio"},
	{"core.frames_decoded_ratio", "ratio"},
	{"core.ladder_attempts_per_capture", "count"},
	{"core.ladder_success_ratio", "ratio"},
	{"serve.step_p50_ms", "ms"},
	{"serve.step_p90_ms", "ms"},
	{"serve.wait_p50_ms", "ms"},
	{"serve.wait_p90_ms", "ms"},
	{"serve.worker_busy_share", "ratio"},
	{"serve.snapshot_ms", "ms"},
	{"serve.admit_ms", "ms"},
	{"journal.write_ms", "ms"},
	{"journal.sync_ms", "ms"},
	{"journal.records_per_session", "count"},
	{"journal.bytes_per_session", "B"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles_per_op", "count"},
	{"gen.late_p90_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// pass is one pass over a run's ops.
type pass struct {
	opTimes  []time.Duration
	ok       int
	failed   int
	firstErr error
	bytes    int64         // verified payload bytes
	air      time.Duration // simulated display time of the verified ops
	wall     time.Duration // host time of the whole pass
}

func (p *pass) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// selfTest proves a verification fires: check must accept the delivered
// bytes and reject them with one byte flipped.
func selfTest(check func([]byte) error, delivered []byte) error {
	if len(delivered) == 0 {
		return errors.New("self-test: nothing delivered to corrupt")
	}
	if err := check(delivered); err != nil {
		return fmt.Errorf("self-test: intact delivery rejected: %w", err)
	}
	bad := append([]byte(nil), delivered...)
	bad[len(bad)/2] ^= 0x01
	if check(bad) == nil {
		return errors.New("self-test: verification accepted a corrupted byte")
	}
	return nil
}

// bench is one workload, set up and ready to run.
type bench interface {
	// run is the untraced timed phase.
	run() (*pass, error)
	// traced runs the same ops with spans and returns the per-layer
	// metrics, given the untraced pass of the same run.
	traced(tr *tracer, untraced *pass) (*pass, map[string]float64, error)
}

type config struct {
	workload string
	seed     int64
	ops      int
	trace    bool
	dir      string // where the run writes journals and spans
}

// setup builds a workload setupReps times and returns the last build and
// every build's duration.
func setup(cfg config) (bench, []time.Duration, error) {
	var b bench
	var times []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		switch cfg.workload {
		case "xfer_clean":
			b, err = newXferBench(cfg.seed, cfg.ops)
		case "rx_replay":
			b, err = newReplayBench(cfg.seed, cfg.ops, replayRounds)
		case "serve_mixed":
			b, err = newServeBench(cfg.seed, cfg.ops, cfg.dir)
		default:
			return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		// Collect this build's garbage (and an earlier build's) inside the
		// set-up time, so the timed phase and the peak resident set start
		// from the same heap on every run.
		runtime.GC()
		times = append(times, time.Since(t0))
	}
	return b, times, nil
}

// measure runs one configured benchmark and returns its result.
func measure(cfg config) (*result, error) {
	b, setupTimes, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	gc := readGC()
	p, err := b.run()
	if err != nil {
		return nil, err
	}
	alloc, gcs := gc.perOp(len(p.opTimes))
	res := &result{Correct: p.failed == 0, Attempted: len(p.opTimes), Failed: p.failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		values := map[string]float64{
			"setup_s":          medianSeconds(setupTimes),
			"peak_rss_mb":      peakRSSMB(),
			"ops_ok_ratio":     ratio(float64(p.ok), float64(len(p.opTimes))),
			"air_bytes_per_s":  ratio(float64(p.bytes), p.air.Seconds()),
			"wall_bytes_per_s": ratio(float64(p.bytes), p.wall.Seconds()),
			"op_p50_ms":        quantile(p.opTimes, 0.5),
			"op_p90_ms":        quantile(p.opTimes, 0.9),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		}
		return res, nil
	}
	tr := newTracer()
	tp, values, err := b.traced(tr, p)
	if err != nil {
		return nil, err
	}
	if tp.failed > 0 {
		res.Correct = false
		res.Failed += tp.failed
	}
	if _, ok := values["go.alloc_bytes_per_op"]; !ok {
		values["go.alloc_bytes_per_op"], values["go.gc_cycles_per_op"] = alloc, gcs
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	path, err := tr.write(filepath.Join(cfg.dir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	return res, nil
}

func main() {
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "xfer_clean, rx_replay or serve_mixed")
	seed := fs.Int64("seed", 1, "workload seed: every input is drawn from it")
	seconds := fs.Int("seconds", 20, "nominal run length; fixes the op count")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*workload]; !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	dir, err := filepath.Abs(buildDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := config{workload: *workload, seed: *seed, ops: opsFor(*workload, *seconds), trace: *trace == 1, dir: dir}
	res, err := measure(cfg)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}
