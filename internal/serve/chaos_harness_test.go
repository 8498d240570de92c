package serve

// The chaos harness: a seed-deterministic machine for proving the serving
// layer survives the failures the paper's link layer cannot see — worker
// panics, wedged rounds, transient infrastructure errors, filling disks,
// and whole-process crashes. The headline is the kill/recover loop
// (runChaos): run a fleet to completion journaling as it goes, then for a
// set of seed-chosen kill points replay only a prefix of that journal —
// exactly the bytes a crashed process would have left behind, with an
// optional torn half-frame on the end — Recover a fresh server from it,
// run the recovered fleet to completion, and demand every session's
// payload, terminal state, and transfer statistics be bit-identical to
// the uncrashed run's. Everything derives from chaosConfig.Seed: the same
// configuration always kills at the same records and always reaches the
// same verdict. The fault injectors (faultFactory, budgetFS) are
// themselves deterministic so supervision tests stay replayable.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"rainbar/internal/serve/journal"
	"rainbar/internal/transport"
	"rainbar/internal/workload"
)

// chaosConfig parameterizes one kill/recover campaign.
type chaosConfig struct {
	// Seed drives every choice the harness makes: session seeds, kill
	// points, torn-tail bytes.
	Seed int64
	// Fleet is the number of sessions in the reference run (default 3).
	Fleet int
	// Rounds caps each session's display rounds (default 4).
	Rounds int
	// FaultSpecs are faults.ParseSpec chains rotated across the fleet
	// (default a lossy mix including a clean link).
	FaultSpecs []string
	// Recovery is the decode-recovery mode (default "combine").
	Recovery string
	// Dir is the scratch directory for the reference and per-kill
	// journals (required).
	Dir string
	// Fsync is the journal durability policy under test.
	Fsync journal.Fsync
	// CheckpointEvery is the checkpoint interval in rounds (default 1:
	// every boundary is a recovery point, the harshest setting).
	CheckpointEvery int
	// Kills is how many kill points to sample beyond the forced
	// endpoints 0 and len(records) (default 4).
	Kills int
	// TornTail, when set, appends a seed-derived half-frame of garbage
	// at every kill point — the torn write a mid-append crash leaves.
	TornTail bool
}

// chaosOutcome is one session's terminal result in a run.
type chaosOutcome struct {
	State   State
	Err     string
	Payload []byte
	Stats   *transport.Stats
}

// chaosResult aggregates a campaign.
type chaosResult struct {
	// Sessions is the reference fleet size, Records its journal length.
	Sessions int
	Records  int
	// Kills lists the record counts the journal was cut to.
	Kills []int
	// Checkpointed and Resubmitted count session recoveries across all
	// kills, by path taken.
	Checkpointed int
	Resubmitted  int
	// Mismatches counts recovered sessions whose payload, state or stats
	// diverged from the uncrashed run (must be zero).
	Mismatches int
	// Resurrected counts sessions recovered despite a terminal record in
	// the surviving prefix (must be zero).
	Resurrected int
}

// chaosMix is the harness's splitmix64 step for deriving per-purpose seeds.
func chaosMix(base int64, n int) int64 {
	x := uint64(base) + 0x9E3779B97F4A7C15*uint64(n+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

func (cfg chaosConfig) withDefaults() chaosConfig {
	if cfg.Fleet <= 0 {
		cfg.Fleet = 3
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	if len(cfg.FaultSpecs) == 0 {
		cfg.FaultSpecs = []string{"", "drop=0.6,seed=3", "splice=0.55,occlude=0.5,seed=5"}
	}
	if cfg.Recovery == "" {
		cfg.Recovery = "combine"
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.Kills <= 0 {
		cfg.Kills = 4
	}
	return cfg
}

// chaosW/H/Block is the harness screen: small enough that a campaign's
// dozens of runs stay fast, large enough for a valid layout.
const chaosW, chaosH, chaosBlock = 400, 192, 8

// specFor builds session i's spec: small geometry so rounds are cheap,
// a two-frame payload so lossy sessions genuinely span multiple rounds
// (and therefore multiple checkpoints), per-session seeds mixed from
// the campaign seed.
func (cfg chaosConfig) specFor(i int) SessionSpec {
	spec := SessionSpec{
		Payload:   framesOfText(chaosW, chaosH, chaosBlock, 2, chaosMix(cfg.Seed, 3*i)),
		ScreenW:   chaosW,
		ScreenH:   chaosH,
		Block:     chaosBlock,
		CamSeed:   chaosMix(cfg.Seed, 3*i+1),
		Faults:    cfg.FaultSpecs[i%len(cfg.FaultSpecs)],
		Recovery:  cfg.Recovery,
		MaxRounds: cfg.Rounds,
	}
	spec.Channel.Seed = chaosMix(cfg.Seed, 3*i+2)
	return spec
}

func (cfg chaosConfig) serverConfig(j *journal.Journal) Config {
	return Config{
		MaxSessions: cfg.Fleet,
		// One worker makes the journal's record order — and therefore the
		// kill points — deterministic.
		Workers:         1,
		Journal:         j,
		CheckpointEvery: cfg.CheckpointEvery,
	}
}

// chaosOutcomes drains the server and collects every session's terminal
// result keyed by id.
func chaosOutcomes(srv *Server) map[uint64]chaosOutcome {
	srv.Quiesce()
	out := make(map[uint64]chaosOutcome)
	for _, info := range srv.Sessions() {
		payload, stats, err := srv.Result(info.ID)
		o := chaosOutcome{State: info.State, Payload: payload, Stats: stats}
		if err != nil {
			o.Err = err.Error()
		}
		out[info.ID] = o
	}
	return out
}

// runChaos executes the campaign. A non-nil error means the harness itself
// broke (unbuildable spec, journal plumbing); divergence and
// resurrection are reported in the chaosResult for the caller to assert on.
func runChaos(cfg chaosConfig) (*chaosResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("chaos: Dir is required")
	}

	// Reference run: the uncrashed daemon, journaling every boundary.
	refDir := filepath.Join(cfg.Dir, "ref")
	opts := journal.Options{Fsync: cfg.Fsync}
	j, err := journal.Open(refDir, opts)
	if err != nil {
		return nil, err
	}
	srv := NewServer(cfg.serverConfig(j))
	ids := make([]uint64, cfg.Fleet)
	for i := 0; i < cfg.Fleet; i++ {
		if ids[i], err = srv.Submit(cfg.specFor(i)); err != nil {
			return nil, fmt.Errorf("chaos: reference submit %d: %w", i, err)
		}
	}
	ref := chaosOutcomes(srv)
	srv.Drain()
	if err := j.Close(); err != nil {
		return nil, err
	}
	for _, id := range ids {
		if ref[id].State != StateDone {
			return nil, fmt.Errorf("chaos: reference session %d ended %s (%s): campaign needs completable specs",
				id, ref[id].State, ref[id].Err)
		}
	}

	data, err := os.ReadFile(filepath.Join(refDir, journal.FileName))
	if err != nil {
		return nil, err
	}
	records, tail, err := journal.Replay(data)
	if err != nil || tail != len(data) {
		return nil, fmt.Errorf("chaos: reference journal does not replay cleanly: tail %d/%d, %w", tail, len(data), err)
	}

	res := &chaosResult{Sessions: cfg.Fleet, Records: len(records)}
	res.Kills = killPoints(cfg.Seed, len(records), cfg.Kills)
	for _, k := range res.Kills {
		if err := cfg.runKill(k, records, ref, opts, res); err != nil {
			return nil, fmt.Errorf("chaos: kill at record %d: %w", k, err)
		}
	}
	return res, nil
}

// killPoints picks the sampled kill set: always the empty and complete
// journals, plus n seed-chosen interior records.
func killPoints(seed int64, records, n int) []int {
	points := map[int]bool{0: true, records: true}
	for i := 0; len(points) < n+2 && i < 4*n+16; i++ {
		points[int(uint64(chaosMix(seed, 100+i))%uint64(records+1))] = true
	}
	out := make([]int, 0, len(points))
	for k := range points {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// runKill simulates a crash after record k became durable: rebuild the
// journal prefix (torn tail optional), Recover, run to completion,
// compare against the reference.
func (cfg chaosConfig) runKill(k int, records []journal.Record, ref map[uint64]chaosOutcome, opts journal.Options, res *chaosResult) error {
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("kill%04d", k))
	j, err := journal.Open(dir, opts)
	if err != nil {
		return err
	}
	for _, rec := range records[:k] {
		if err := j.Append(rec); err != nil {
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	if cfg.TornTail {
		// Half a frame of seed-derived garbage: the write the crash cut.
		garbage := workload.Text(11, chaosMix(cfg.Seed, 200+k))
		f, err := os.OpenFile(filepath.Join(dir, journal.FileName), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(garbage); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	// Fold the surviving prefix to know who must come back: sessions
	// with a submit or checkpoint and no terminal record.
	expect := map[uint64]bool{}
	for _, rec := range records[:k] {
		// Per-session record order is submit → checkpoints → terminal, so
		// last-writer-wins folding is exact.
		expect[rec.ID] = rec.Kind != journal.KindTerminal
	}

	srv, rep, err := Recover(dir, opts, cfg.serverConfig(nil))
	if err != nil {
		return err
	}
	res.Checkpointed += rep.Checkpointed
	res.Resubmitted += rep.Resubmitted
	recovered := map[uint64]bool{}
	for _, id := range rep.Sessions {
		recovered[id] = true
		if !expect[id] {
			res.Resurrected++
		}
	}
	for id, live := range expect {
		if live && !recovered[id] {
			res.Mismatches++ // a live session the recovery dropped
		}
	}

	got := chaosOutcomes(srv)
	srv.Drain()
	if j := srv.Journal(); j != nil {
		j.Close()
	}
	for _, id := range rep.Sessions {
		want, ok := ref[id]
		if !ok {
			res.Mismatches++
			continue
		}
		o := got[id]
		if o.State != want.State || o.Err != want.Err ||
			string(o.Payload) != string(want.Payload) ||
			!reflect.DeepEqual(o.Stats, want.Stats) {
			res.Mismatches++
		}
	}
	return nil
}

// --- worker-level fault injection ---

// faultMode selects the fault a faultFactory injects.
type faultMode string

const (
	// modePanic panics inside Step (the server must isolate it).
	modePanic faultMode = "panic"
	// modeSlow blocks Step on a watch timer (the round deadline must
	// reap it).
	modeSlow faultMode = "slow"
	// modeTransient fails Step with an ErrTransient-wrapped error a
	// fixed number of times before letting the round run (the retry
	// policy must absorb it).
	modeTransient faultMode = "transient"
)

// faultFactory wraps an inner Factory and injects one fault kind into
// every session it builds, at a fixed 1-based round. Deterministic:
// the same (Mode, Round, Fails) always misbehaves identically.
type faultFactory struct {
	// Inner builds the real drivers (DefaultFactory for real
	// transfers, or a test fake).
	Inner Factory
	// Mode is the fault to inject.
	Mode faultMode
	// Round is the 1-based step index at which the fault fires.
	Round int
	// Watch supplies the timer a modeSlow step blocks on (required for
	// modeSlow; tests advance it past the round deadline).
	Watch WatchClock
	// SlowBy is how long a slow step wedges (default one hour — far
	// past any sane deadline).
	SlowBy time.Duration
	// Fails is how many times a modeTransient fault fires before the
	// round proceeds (default 2).
	Fails int
	// Only, when non-nil, limits injection to specs it accepts.
	Only func(spec SessionSpec) bool
}

// errInjected is the cause carried by injected panics and transient
// failures, so tests can assert the failure came from the harness.
var errInjected = errors.New("chaos: injected fault")

func (f faultFactory) wrap(spec SessionSpec, drv Driver) Driver {
	if f.Only != nil && !f.Only(spec) {
		return drv
	}
	fd := &faultDriver{faultFactory: f, inner: drv}
	if fd.Fails <= 0 {
		fd.Fails = 2
	}
	if fd.SlowBy <= 0 {
		fd.SlowBy = time.Hour
	}
	return fd
}

// New builds a fault-injecting driver over the inner factory's.
func (f faultFactory) New(spec SessionSpec) (Driver, error) {
	drv, err := f.Inner.New(spec)
	if err != nil {
		return nil, err
	}
	return f.wrap(spec, drv), nil
}

// Restore builds a fault-injecting driver over the inner factory's
// restored one. The step counter restarts, so a recovered session hits
// the fault again Round steps later.
func (f faultFactory) Restore(spec SessionSpec, state []byte) (Driver, error) {
	drv, err := f.Inner.Restore(spec, state)
	if err != nil {
		return nil, err
	}
	return f.wrap(spec, drv), nil
}

type faultDriver struct {
	faultFactory
	inner Driver
	steps int
	fired int
}

func (d *faultDriver) Step() (StepInfo, error) {
	d.steps++
	if d.steps == d.Round {
		switch d.Mode {
		case modePanic:
			// Injected on purpose: the server's recover must isolate it.
			panic(fmt.Sprintf("%v: panic at step %d", errInjected, d.steps))
		case modeSlow:
			// Wedge until the test's watch fires; the server's watchdog
			// should have declared this round dead long before.
			<-d.Watch.After(d.SlowBy)
		case modeTransient:
			if d.fired < d.Fails {
				d.fired++
				d.steps-- // the round did not run; fail it again next attempt
				return StepInfo{}, fmt.Errorf("%w: transient at step %d (%d/%d)", ErrTransient, d.Round, d.fired, d.Fails)
			}
		}
	}
	return d.inner.Step()
}

func (d *faultDriver) Snapshot() ([]byte, error) { return d.inner.Snapshot() }

func (d *faultDriver) Result() ([]byte, *transport.Stats, error) { return d.inner.Result() }

// --- disk fault injection ---

// budgetFS is a journal.OpenFunc factory simulating a disk with a fixed
// byte budget shared across every file it opens. Like a real full disk,
// the first write past the budget flips it to full and EVERY write
// fails from then on — even small ones — until Refill models the
// operator clearing space, after which the server's next compaction
// heals the journal.
type budgetFS struct {
	left int
	full bool
}

// newBudgetFS returns a disk with n writable bytes remaining.
func newBudgetFS(n int) *budgetFS { return &budgetFS{left: n} }

// Refill grants n more writable bytes and clears the full condition.
func (fs *budgetFS) Refill(n int) { fs.left += n; fs.full = false }

// Open is the journal.OpenFunc to install in journal.Options.
func (fs *budgetFS) Open(path string) (journal.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &budgetFile{fs: fs, f: f}, nil
}

type budgetFile struct {
	fs *budgetFS
	f  *os.File
}

func (b *budgetFile) Write(p []byte) (int, error) {
	if b.fs.full || b.fs.left < len(p) {
		b.fs.full = true
		return 0, fmt.Errorf("%w: disk full", errInjected)
	}
	b.fs.left -= len(p)
	return b.f.Write(p)
}

func (b *budgetFile) Sync() error  { return b.f.Sync() }
func (b *budgetFile) Close() error { return b.f.Close() }
