package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/obs"
	"rainbar/internal/serve"
	"rainbar/internal/serve/journal"
	"rainbar/internal/transport"
)

// serve_mixed: sessions arrive on a fixed schedule into one serve.Server
// that journals every admission, round and retirement with fsync always.
const (
	// serveRate is the arrival rate in sessions per second, about 0.4 of
	// the saturation throughput of this mix (39 sessions/s when all are
	// submitted at once on a 2-CPU host): queueing shows, and a slower
	// host or program raises latency well before throughput falls.
	serveRate      = 16.0
	serveMaxRounds = 8
	// serveWarmups is two full rotations of geometries and faults.
	serveWarmups = 24
)

// serveGeometries and serveFaults rotate across sessions (3 and 4 are
// coprime, so every pairing recurs every 12 sessions).
var (
	serveGeometries = []struct{ w, h, block int }{{400, 192, 8}, {480, 270, 10}, {448, 252, 8}}
	serveFaults     = []string{"", "drop=0.2", "splice=0.2", "occlude=0.15,burst=0.15"}
)

type serveBench struct {
	specs   []serve.SessionSpec
	workers int
	root    string // directory the journals are made in
	// untraced is what the untraced pass observed, for the traced one.
	untraced *serveObs
}

// genServeSpecs draws n sessions: text payloads that nearly fill one
// frame at the session's geometry, seeded channel, camera and fault seeds,
// and the combine recovery ladder. With one size per geometry the latency
// has three modes of equal weight, so p50 and p90 fall inside a mode
// rather than on a jump between two, and bytes per session hardly vary.
func genServeSpecs(r *rng, n int) ([]serve.SessionSpec, error) {
	specs := make([]serve.SessionSpec, n)
	for i := range specs {
		g := serveGeometries[i%len(serveGeometries)]
		geo, err := layout.NewGeometry(g.w, g.h, g.block)
		if err != nil {
			return nil, fmt.Errorf("serve geometry: %w", err)
		}
		codec, err := core.NewCodec(core.Config{Geometry: geo})
		if err != nil {
			return nil, fmt.Errorf("serve codec: %w", err)
		}
		chunkSize := transport.FileCodec{Codec: codec}.ChunkSize()
		spec := serve.SessionSpec{
			Payload:     r.textPayload(chunkSize - 12 - r.intn(chunkSize/8)),
			ScreenW:     g.w,
			ScreenH:     g.h,
			Block:       g.block,
			DisplayRate: xferRate,
			Channel:     channel.DefaultConfig(),
			CamSeed:     r.int63(),
			Recovery:    "combine",
			MaxRounds:   serveMaxRounds,
		}
		spec.Channel.Seed = r.int63()
		if f := serveFaults[i%len(serveFaults)]; f != "" {
			spec.Faults = fmt.Sprintf("%s,seed=%d", f, r.int63())
		}
		specs[i] = spec
	}
	return specs, nil
}

// newServeBench draws the sessions and runs a warm-up fleet through a
// journaled server, checking that verification rejects a corrupted
// delivery.
func newServeBench(seed int64, ops int, root string) (*serveBench, error) {
	specs, err := genServeSpecs(newRNG(seed, 4), ops)
	if err != nil {
		return nil, err
	}
	warm, err := genServeSpecs(newRNG(seed, 5), serveWarmups)
	if err != nil {
		return nil, err
	}
	b := &serveBench{specs: specs, workers: runtime.NumCPU(), root: root}
	wp, obsW, err := b.fleet(warm, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up fleet: %w", err)
	}
	if wp.ok != len(warm) {
		return nil, fmt.Errorf("warm-up fleet: %d of %d sessions verified: %w", wp.ok, len(warm), wp.firstErr)
	}
	if err := selfTest(func(got []byte) error { return checkSession(got, warm[0].Payload) }, obsW.results[0]); err != nil {
		return nil, err
	}
	return b, nil
}

func checkSession(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("session delivered bytes that differ from its payload")
	}
	return nil
}

// serveObs is what a fleet pass observed beyond the op times.
type serveObs struct {
	results                    [][]byte
	late                       []time.Duration
	records                    int64
	journalBytes               int64
	gc                         [2]float64 // alloc bytes and GC cycles per session
	rounds, framesSent, needed int
	attempts, wins             int
}

// fleet runs sessions through a fresh journaled server. Arrivals are open
// loop: session i is due i/rate after the start whether or not earlier
// ones finished; rate 0 submits them all at once. Each op is timed from
// its due time to the moment its driver handed back the delivered bytes.
func (b *serveBench) fleet(specs []serve.SessionSpec, tr *tracer, rate float64) (*pass, *serveObs, error) {
	dir, err := os.MkdirTemp(b.root, "journal-")
	if err != nil {
		return nil, nil, fmt.Errorf("journal dir: %w", err)
	}
	defer os.RemoveAll(dir)
	jf := &journalFiles{tr: tr}
	counter := &recordCounter{}
	jnl, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways, Open: jf.open, Recorder: counter})
	if err != nil {
		return nil, nil, fmt.Errorf("open journal: %w", err)
	}
	n := len(specs)
	f := &benchFactory{inner: serve.DefaultFactory(nil), tr: tr, due: make([]time.Time, n), delivered: make([]time.Time, n)}
	srv := serve.NewServer(serve.Config{
		MaxSessions:     n,
		Workers:         b.workers,
		Factory:         f,
		Journal:         jnl,
		CheckpointEvery: 1,
	})
	o := &serveObs{late: make([]time.Duration, n), results: make([][]byte, n)}
	ids := make([]uint64, n)
	gc := readGC()
	start := time.Now().Add(5 * time.Millisecond)
	for i, spec := range specs {
		due := start
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		}
		time.Sleep(time.Until(due))
		t0 := time.Now()
		o.late[i] = t0.Sub(due)
		f.expect(i, due)
		id, err := srv.Submit(spec)
		tr.add(i, layerServe, "Server.Submit", t0, time.Now())
		if err != nil {
			srv.Stop()
			jnl.Close()
			return nil, nil, fmt.Errorf("submit session %d: %w", i, err)
		}
		ids[i] = id
	}
	srv.Quiesce()
	o.gc[0], o.gc[1] = gc.perOp(n)
	srv.Drain()
	if err := jnl.Close(); err != nil {
		return nil, nil, fmt.Errorf("close journal: %w", err)
	}

	p := &pass{}
	for i, id := range ids {
		f.mu.Lock()
		due, done := f.due[i], f.delivered[i]
		f.mu.Unlock()
		p.opTimes = append(p.opTimes, done.Sub(due))
		p.wall = max(p.wall, done.Sub(start))
		tr.add(i, layerOp, "session", due, done)
		got, stats, err := srv.Result(id)
		if err == nil {
			err = checkSession(got, specs[i].Payload)
		}
		if stats != nil {
			o.rounds += stats.Rounds
			o.framesSent += stats.FramesSent
			o.needed += stats.FramesNeeded
			o.attempts += stats.LadderAttempts
			for _, w := range stats.LadderSuccessesByHypothesis {
				o.wins += w
			}
		}
		if err != nil {
			p.fail(fmt.Errorf("session %d: %w", i, err))
			continue
		}
		o.results[i] = got
		p.ok++
		p.bytes += int64(len(got))
		p.air += stats.AirTime
	}
	o.records = counter.n.Load()
	o.journalBytes = jf.mainBytes.Load()
	return p, o, nil
}

func (b *serveBench) run() (*pass, error) {
	p, o, err := b.fleet(b.specs, nil, serveRate)
	b.untraced = o
	return p, err
}

// traced repeats the fleet with every driver call, admission, queue wait
// and journal file operation recorded as a span.
func (b *serveBench) traced(tr *tracer, untraced *pass) (*pass, map[string]float64, error) {
	p, o, err := b.fleet(b.specs, tr, serveRate)
	if err != nil {
		return nil, nil, err
	}
	a := tr.analyze()
	opTime, covered := a.opCoverage(nil)
	steps := a.durations(layerServe, "Driver.Step")
	var busy time.Duration
	for _, name := range []string{"Driver.Step", "Driver.Snapshot", "Driver.Result"} {
		for _, d := range a.durations(layerServe, name) {
			busy += d
		}
	}
	sessions := float64(len(b.specs))
	m := map[string]float64{
		"transport.rounds_per_op":          ratio(float64(o.rounds), sessions),
		"transport.frames_sent_per_needed": ratio(float64(o.framesSent), float64(o.needed)),
		"core.ladder_success_ratio":        ratio(float64(o.wins), float64(o.attempts)),
		"serve.step_p50_ms":                quantile(steps, 0.5),
		"serve.step_p90_ms":                quantile(steps, 0.9),
		"serve.wait_p50_ms":                quantile(a.durations(layerServe, "wait"), 0.5),
		"serve.wait_p90_ms":                quantile(a.durations(layerServe, "wait"), 0.9),
		"serve.worker_busy_share":          ratio(float64(busy), float64(b.workers)*float64(p.wall)),
		"serve.snapshot_ms":                meanMS(a.durations(layerServe, "Driver.Snapshot")),
		"serve.admit_ms":                   meanMS(a.durations(layerServe, "Server.Submit")),
		"journal.write_ms":                 meanMS(a.durations(layerJournal, "File.Write")),
		"journal.sync_ms":                  meanMS(a.durations(layerJournal, "File.Sync")),
		"journal.records_per_session":      ratio(float64(o.records), sessions),
		"journal.bytes_per_session":        ratio(float64(o.journalBytes), sessions),
		"gen.late_p90_ms":                  quantile(b.untraced.late, 0.9),
		"go.alloc_bytes_per_op":            b.untraced.gc[0],
		"go.gc_cycles_per_op":              b.untraced.gc[1],
		"trace.coverage":                   ratio(float64(covered), float64(opTime)),
		"trace.overhead":                   ratio(quantile(p.opTimes, 0.5), quantile(untraced.opTimes, 0.5)) - 1,
	}
	return p, m, nil
}

// benchFactory wraps serve.DefaultFactory's drivers. Untraced it only
// notes when each session's result was handed over; traced it also
// records every driver call and the queue waits between them.
type benchFactory struct {
	inner serve.Factory
	tr    *tracer

	mu        sync.Mutex
	next      int // op index of the session being submitted
	due       []time.Time
	delivered []time.Time
}

// expect tells the factory which op the next Submit admits; the single
// generator submits in op order.
func (f *benchFactory) expect(op int, due time.Time) {
	f.mu.Lock()
	f.next = op
	f.due[op] = due
	f.mu.Unlock()
}

func (f *benchFactory) New(spec serve.SessionSpec) (serve.Driver, error) {
	d, err := f.inner.New(spec)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	op, due := f.next, f.due[f.next]
	f.mu.Unlock()
	return &benchDriver{inner: d, f: f, op: op, last: due}, nil
}

func (f *benchFactory) Restore(spec serve.SessionSpec, state []byte) (serve.Driver, error) {
	return f.inner.Restore(spec, state)
}

// benchDriver is one session's wrapped driver. The server serializes
// calls per session, so last needs no lock.
type benchDriver struct {
	inner serve.Driver
	f     *benchFactory
	op    int
	last  time.Time // end of the previous step, or the due time
}

func (d *benchDriver) Step() (serve.StepInfo, error) {
	if d.f.tr == nil {
		return d.inner.Step()
	}
	t0 := wallNow()
	info, err := d.inner.Step()
	t1 := wallNow()
	d.f.tr.add(d.op, layerServe, "wait", d.last, t0)
	d.f.tr.add(d.op, layerServe, "Driver.Step", t0, t1)
	d.last = t1
	return info, err
}

func (d *benchDriver) Snapshot() ([]byte, error) {
	if d.f.tr == nil {
		return d.inner.Snapshot()
	}
	t0 := wallNow()
	out, err := d.inner.Snapshot()
	d.f.tr.add(d.op, layerServe, "Driver.Snapshot", t0, wallNow())
	return out, err
}

func (d *benchDriver) Result() ([]byte, *transport.Stats, error) {
	t0 := wallNow()
	got, stats, err := d.inner.Result()
	t1 := wallNow()
	d.f.tr.add(d.op, layerServe, "Driver.Result", t0, t1)
	d.f.mu.Lock()
	if d.f.delivered[d.op].IsZero() {
		d.f.delivered[d.op] = t1
	}
	d.f.mu.Unlock()
	return got, stats, err
}

// journalFiles opens the journal's files, timing writes and syncs when
// traced and counting the bytes written to the journal proper (not to a
// compaction's temporary file).
type journalFiles struct {
	tr        *tracer
	mainBytes atomic.Int64
}

func (j *journalFiles) open(path string) (journal.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journalFile{f: f, j: j, main: !strings.HasSuffix(path, ".tmp")}, nil
}

type journalFile struct {
	f    *os.File
	j    *journalFiles
	main bool
}

func (f *journalFile) Write(p []byte) (int, error) {
	t0 := wallNow()
	n, err := f.f.Write(p)
	if f.j.tr != nil {
		f.j.tr.add(-1, layerJournal, "File.Write", t0, wallNow())
	}
	if f.main {
		f.j.mainBytes.Add(int64(n))
	}
	return n, err
}

func (f *journalFile) Sync() error {
	t0 := wallNow()
	err := f.f.Sync()
	if f.j.tr != nil {
		f.j.tr.add(-1, layerJournal, "File.Sync", t0, wallNow())
	}
	return err
}

func (f *journalFile) Close() error { return f.f.Close() }

// recordCounter counts journal records appended, from the journal's own
// per-record counter.
type recordCounter struct{ n atomic.Int64 }

func (c *recordCounter) Inc(name string, delta int64) {
	if strings.HasPrefix(name, obs.MServeJournalRecords) {
		c.n.Add(delta)
	}
}
func (c *recordCounter) Observe(string, float64) {}
func (c *recordCounter) Span(string) func()      { return func() {} }
