package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rainbar/internal/obs"
)

// The experiment engine parallelizes at sweep-point granularity: every job
// is one (condition, system, seed) cell of a sweep grid, owns its codec and
// channel (a channel.Channel carries a private sequential PRNG and must not
// be shared), and draws all randomness from a seed derived with seedAt. The
// jobs therefore commute, and a table built from indexed result slots in
// sweep order is bit-identical no matter how many workers computed them.
//
// This is the same determinism contract the channel's two-stage capture
// kernel keeps — parallelism only ever reorders wall-clock execution, never
// any arithmetic.

// workers resolves Options.Workers: 0 means one worker per CPU.
func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// forEachPoint runs jobs 0..n-1 on o's worker pool. Each job must write its
// results only into slots indexed by its own argument. With one worker the
// jobs run serially in index order and the first error short-circuits,
// exactly like the historical sweep loops; with more workers all jobs run
// and the lowest-index error is reported, which is the same error a serial
// run would have surfaced first.
func forEachPoint(o Options, n int, job func(i int) error) error {
	// Per-point observability: latency span, points counter, and a pool
	// occupancy sample at each start. Results never depend on the recorder
	// — it only ever watches.
	rec := obs.OrNop(o.Recorder)
	obsOn := obs.Enabled(o.Recorder)
	var inflight atomic.Int64
	run := func(i int) error {
		if obsOn {
			rec.Inc(obs.MExperimentPoints, 1)
			rec.Observe(obs.MExperimentInflight, float64(inflight.Add(1)))
		}
		end := rec.Span(obs.MExperimentPointSeconds)
		err := job(i)
		end()
		if obsOn {
			inflight.Add(-1)
		}
		return err
	}

	workers := min(o.workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
