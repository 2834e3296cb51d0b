package main

//cfm:wallclock-ok the benchmark measures host time; no clock reading reaches simulation state

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"cfm"
)

// buildOpts selects how a workload's fleet is built.
type buildOpts struct {
	seed   uint64
	oracle bool    // serial Clock regardless of the workload's engine
	tr     *tracer // non-nil: wrap every component and record spans
	// slowdown, in [0, 1), registers a delay ticker that makes the fleet
	// run that fraction slower without touching simulated state.
	slowdown float64
}

// fleet is one built simulation plus the workload-specific readers the
// harness needs.
type fleet struct {
	eng  cfm.Engine // what the harness drives (a tracedEngine when traced)
	base cfm.Engine // the engine itself
	// ops is the cumulative number of completed simulated accesses or
	// operations.
	ops func() int64
	// digest hashes the simulated statistics and state.
	digest func() uint64
	// beforeChunk and afterChunk run around each timed chunk's Run and
	// inside its timing: the observed workload checkpoints and exports
	// there.
	beforeChunk func(i int)
	afterChunk  func(i int)
	// settle stops new issues and drains in-flight operations (closed
	// loops only); check verifies the workload's invariants afterwards.
	settle func() error
	check  func() error
	// overdue counts closed-loop operations outstanding past
	// opBudgetSlots.
	overdue func() int64
	// layer adds the simulated per-layer counts to m; on a traced fleet it
	// also times the after-run calls of the observability layers.
	layer func(m map[string]float64)
	// modelErr is |simulated - analytic efficiency| (partial workloads).
	modelErr func() float64
	// lastCkpt is the observed workload's last periodic checkpoint.
	lastCkpt     []byte
	lastCkptSlot cfm.Slot
}

func (f *fleet) close() {
	if pc, ok := f.base.(*cfm.ParallelClock); ok {
		pc.Close()
	}
}

// crossings is the parallel engine's barrier-crossing count (0 serial).
func (f *fleet) crossings() int64 {
	if pc, ok := f.base.(*cfm.ParallelClock); ok {
		return pc.BarrierCrossings()
	}
	return 0
}

// opBudgetSlots bounds how long a closed-loop operation may stay
// outstanding before it counts as failed.
const opBudgetSlots = 10000

type workload struct {
	name, why string
	parallel  bool // ParallelClock(WorkersAuto, EpochAuto), as -parallel builds it
	// openLoop workloads issue on a schedule, so their backlog can grow;
	// the saturation guard watches it.
	openLoop bool
	warmup   int64 // slots run during set-up, before timing
	chunk    int64 // slots per timed chunk
	build    func(o buildOpts, eng cfm.Engine) *fleet
}

var workloads = []*workload{
	{name: "partial_fig314", parallel: true, openLoop: true, warmup: 200_000, chunk: 32_768,
		why:   "Fig. 3.14 machine (n64/m8, r=0.03): small fleet, so engine dispatch, barriers and epoch folds dominate",
		build: buildPartial(64, 8)},
	{name: "partial_x64", parallel: true, openLoop: true, warmup: 4_000, chunk: 1_024,
		why:   "Fig. 3.14 cluster shape scaled 64x (n4096/m512): core.Partial's dense sweep over arrays larger than L2 dominates",
		build: buildPartial(4096, 512)},
	{name: "coherence_mix", warmup: 150_000, chunk: 8_192,
		why:   "cache.Protocol, 16 procs x 8 lines, closed-loop 60/30/10 load/store/RMW: misses, invalidations, write-backs",
		build: buildCoherence},
	{name: "att_observed", warmup: 80_000, chunk: 4_096,
		why:   "att.Tracked with metrics, sampler, flight recorder and periodic checkpoints: the only observed workload",
		build: buildATT},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newEngine builds the fleet's engine, wrapped for tracing if asked.
func (w *workload) newEngine(o buildOpts) (eng, base cfm.Engine) {
	if w.parallel && !o.oracle {
		pc := cfm.NewParallelClock(cfm.WorkersAuto)
		pc.SetEpochBatch(cfm.EpochAuto)
		base = pc
	} else {
		base = cfm.NewClock()
	}
	if o.tr != nil {
		return &tracedEngine{Engine: base, tr: o.tr}, base
	}
	return base, base
}

func (w *workload) buildFleet(o buildOpts) *fleet {
	eng, base := w.newEngine(o)
	f := w.build(o, eng)
	f.eng, f.base = eng, base
	if o.slowdown > 0 {
		eng.Register(delayTicker(o.slowdown))
	}
	return f
}

// delayTicker is the seeded slowdown: it keeps the host time spent in
// its own ticks at the given fraction of the fleet's running time, so the
// fleet runs that fraction slower whatever the host's speed. The balance
// is carried from tick to tick, so the clock reads it makes are paid for
// too; a gap of over a millisecond between ticks (between Run calls) is
// not counted. It touches no simulated state.
func delayTicker(slowdown float64) *cfm.FuncTicker {
	extra := slowdown / (1 - slowdown)
	t0 := time.Now()
	for i := 0; i < 1000; i++ {
		time.Now()
	}
	read := time.Since(t0) / 1001 // cost of one clock read
	var (
		last time.Time     // end of the previous tick
		owed time.Duration // delay still to burn
	)
	return &cfm.FuncTicker{
		Phases: cfm.MaskOf(cfm.PhaseUpdate),
		OnTick: func(cfm.Slot, cfm.Phase) {
			start := time.Now()
			if out := start.Sub(last) - read; out >= 0 && out < time.Millisecond {
				owed += time.Duration(float64(out) * extra)
			}
			end := start
			for owed > end.Sub(start)+read {
				end = time.Now()
			}
			owed -= end.Sub(start) + read
			last = end
		},
	}
}

func digestOf(vals ...int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// Fig. 3.14's operating point: 16-word blocks, bank cycle 2, locality
// 0.9, access rate 0.03 — below saturation, so the backlog is bounded.
const (
	partialRate     = 0.03
	partialLocality = 0.9
	// modelErrBand is the largest |simulated - analytic| efficiency gap
	// accepted. At this operating point the simulation sits about 0.05
	// below the §3.4.2 model on both fleet sizes (0.896 against 0.949).
	modelErrBand = 0.1
)

func buildPartial(n, m int) func(o buildOpts, eng cfm.Engine) *fleet {
	return func(o buildOpts, eng cfm.Engine) *fleet {
		cfg := cfm.PartialConfig{Processors: n, Modules: m, BlockWords: 16, BankCycle: 2,
			Locality: partialLocality, AccessRate: partialRate, RetryMean: 4, Seed: o.seed}
		p := cfm.NewPartial(cfg)
		eng.Register(p)
		model := cfm.PartialModel{Processors: n, Modules: m, BlockTime: cfg.BlockTime()}
		return &fleet{
			ops: func() int64 { return p.Completed },
			digest: func() uint64 {
				return digestOf(int64(eng.Now()), p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc)
			},
			layer: func(m map[string]float64) {
				m["core.retries_per_access"] = ratio(p.Retries, p.Completed)
			},
			modelErr: func() float64 {
				d := p.Efficiency() - model.Efficiency(partialRate, partialLocality)
				if d < 0 {
					d = -d
				}
				return d
			},
		}
	}
}

// Closed-loop coherence mix: every processor issues its next request as
// soon as the previous one has completed.
const (
	cohProcs      = 16
	cohLines      = 8
	cohWorkingSet = 4 * cohLines // blocks shared by all processors
)

func buildCoherence(o buildOpts, eng cfm.Engine) *fleet {
	c := cfm.NewCacheProtocol(cfm.CacheConfig{Processors: cohProcs, Lines: cohLines, RetryDelay: 1}, nil)
	root := cfm.NewRNG(o.seed)
	rngs := make([]*cfm.RNG, cohProcs)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	var (
		outstanding [cohProcs]bool
		issuedAt    [cohProcs]cfm.Slot
		flagged     [cohProcs]bool
		issued      [3]int64 // loads, stores, RMWs
		completed   int64
		overdue     int64
		stopped     bool
	)
	// RMWs add one to word 0; stores write the other words. The sum of
	// word 0 over the working set therefore counts completed RMWs.
	addOne := func(b cfm.Block) cfm.Block { b[0]++; return b }
	var nIssue int32
	var serial *spanBuf
	if o.tr != nil {
		nIssue, serial = o.tr.name("cache.issue"), o.tr.serial
	}
	driver := &cfm.FuncTicker{
		Phases: cfm.MaskOf(cfm.PhaseIssue),
		OnTick: func(t cfm.Slot, _ cfm.Phase) {
			for p := 0; p < cohProcs; p++ {
				if c.Busy(p) {
					if outstanding[p] && !flagged[p] && t-issuedAt[p] > opBudgetSlots {
						flagged[p] = true
						overdue++
					}
					continue
				}
				if outstanding[p] {
					outstanding[p], flagged[p] = false, false
					completed++
				}
				if stopped {
					continue
				}
				rng := rngs[p]
				off := rng.Intn(cohWorkingSet)
				if serial != nil {
					serial.begin(nIssue)
				}
				switch k := rng.Intn(10); {
				case k < 6:
					c.Load(p, off, nil)
					issued[0]++
				case k < 9:
					c.Store(p, off, 1+rng.Intn(cohProcs-1), cfm.Word(t), nil)
					issued[1]++
				default:
					c.RMW(p, off, addOne, nil)
					issued[2]++
				}
				if serial != nil {
					serial.end()
				}
				outstanding[p], issuedAt[p] = true, t
			}
		},
	}
	eng.Register(driver)
	eng.Register(c)
	// word0 reads word 0 of a block from its dirty owner, else memory.
	word0 := func(off int) cfm.Word {
		for p := 0; p < cohProcs; p++ {
			if c.State(p, off) == cfm.Dirty {
				return c.CachedData(p, off)[0]
			}
		}
		return c.PeekMemory(off)[0]
	}
	return &fleet{
		ops: func() int64 { return completed },
		digest: func() uint64 {
			v := []int64{int64(eng.Now()), completed, issued[0], issued[1], issued[2],
				c.Hits, c.Misses, c.Invalidations, c.WriteBacks, c.Retries, c.TriggeredWBs}
			for off := 0; off < cohWorkingSet; off++ {
				for _, w := range c.PeekMemory(off) {
					v = append(v, int64(w))
				}
			}
			return digestOf(v...)
		},
		settle: func() error {
			stopped = true
			idle := func() bool {
				for p := range outstanding {
					if outstanding[p] {
						return false
					}
				}
				return c.Idle()
			}
			if _, ok := eng.RunUntil(idle, 100*opBudgetSlots); !ok {
				return errors.New("coherence_mix: operations still in flight after the drain budget")
			}
			return nil
		},
		check: func() error {
			if err := c.CheckCoherence(); err != nil {
				return fmt.Errorf("coherence_mix: %w", err)
			}
			var sum int64
			for off := 0; off < cohWorkingSet; off++ {
				sum += int64(word0(off))
			}
			if sum != issued[2] {
				return fmt.Errorf("coherence_mix: RMW counters sum to %d, %d RMWs completed", sum, issued[2])
			}
			return nil
		},
		overdue: func() int64 { return overdue },
		layer: func(m map[string]float64) {
			m["cache.hit_ratio"] = ratio(c.Hits, c.Hits+c.Misses)
			m["cache.retries_per_op"] = ratio(c.Retries, completed)
			m["cache.invalidations_per_op"] = ratio(c.Invalidations, completed)
		},
	}
}

// Observed ATT workload: 16 banks, swaps and writes on two pairs of hot
// blocks, reads on all four.
const (
	attBanks       = 16
	attHotBlocks   = 4
	attRate        = 0.2
	attStoreFrac   = 0.5
	attSampleEvery = 1024
	attCkptEvery   = 4 // chunks between periodic checkpoints
)

func buildATT(o buildOpts, eng cfm.Engine) *fleet {
	tr := cfm.NewTracked(attBanks, cfm.EarliestWins, nil)
	reg := cfm.NewRegistry()
	tr.Instrument(reg)
	rec := cfm.NewFlightRecorder(0)
	tr.RecordFlight(rec)
	gen := cfm.NewBernoulliWorkload(attBanks, attRate, attStoreFrac, o.seed, cfm.UniformTargets(attHotBlocks))
	// Swaps add one to word 0 of blocks 0 and 1; writes go to blocks 2
	// and 3 only, so word 0 of blocks 0 and 1 counts completed swaps.
	addOne := func(b cfm.Block) cfm.Block { b[0]++; return b }
	tr.SetModifyRebinder(func(int, int) func(cfm.Block) cfm.Block { return addOne })

	var (
		outstanding [attBanks]bool
		issuedAt    [attBanks]cfm.Slot
		flagged     [attBanks]bool
		stores      [attBanks]int64
		data        [attBanks]cfm.Block
		issued      int64
		completed   int64
		overdue     int64
		stopped     bool
	)
	for p := range data {
		data[p] = make(cfm.Block, attBanks)
	}
	var nIssue, nNext int32
	var serial *spanBuf
	if o.tr != nil {
		nIssue, nNext, serial = o.tr.name("att.issue"), o.tr.name("workload.next"), o.tr.serial
	}
	driver := &cfm.FuncTicker{
		Phases: cfm.MaskOf(cfm.PhaseIssue),
		OnTick: func(t cfm.Slot, _ cfm.Phase) {
			for p := 0; p < attBanks; p++ {
				if tr.Busy(p) {
					if !flagged[p] && t-issuedAt[p] > opBudgetSlots {
						flagged[p] = true
						overdue++
					}
					continue
				}
				if outstanding[p] {
					outstanding[p], flagged[p] = false, false
					completed++
				}
				if stopped {
					continue
				}
				if serial != nil {
					serial.begin(nNext)
				}
				a, ok := gen.Next(t, p)
				if serial != nil {
					serial.end()
				}
				if !ok {
					continue
				}
				if serial != nil {
					serial.begin(nIssue)
				}
				switch {
				case !a.Store:
					tr.StartRead(t, p, a.Module, nil)
				case stores[p]%3 == 0:
					tr.StartSwap(t, p, a.Module%2, addOne, nil)
					stores[p]++
				default:
					for i := range data[p] {
						data[p][i] = cfm.Word(issued)
					}
					tr.StartWrite(t, p, 2+a.Module%2, data[p], nil)
					stores[p]++
				}
				if serial != nil {
					serial.end()
				}
				issued++
				outstanding[p], issuedAt[p] = true, t
			}
		},
		Save: func(enc *cfm.StateEncoder) {
			gen.SaveState(enc)
			for p := 0; p < attBanks; p++ {
				enc.Bool(outstanding[p])
				enc.Slot(issuedAt[p])
				enc.Bool(flagged[p])
				enc.I64(stores[p])
			}
			enc.I64(issued)
			enc.I64(completed)
			enc.I64(overdue)
		},
		Load: func(dec *cfm.StateDecoder) {
			gen.LoadState(dec)
			for p := 0; p < attBanks; p++ {
				outstanding[p] = dec.Bool()
				issuedAt[p] = dec.Slot()
				flagged[p] = dec.Bool()
				stores[p] = dec.I64()
			}
			issued = dec.I64()
			completed = dec.I64()
			overdue = dec.I64()
		},
	}
	eng.Register(driver)
	eng.Register(tr)
	sampler := cfm.NewSampler(reg, attSampleEvery)
	sampler.Attach(eng)
	eng.AttachState("metrics", reg)
	eng.AttachState("flight", rec)

	f := &fleet{
		ops: func() int64 { return completed },
		digest: func() uint64 {
			v := []int64{int64(eng.Now()), issued, completed, tr.CompletedWrites, tr.AbortedWrites,
				tr.CompletedReads, tr.CompletedSwaps, tr.Restarts,
				int64(reg.Snapshot().Digest()), int64(rec.Digest())}
			for off := 0; off < attHotBlocks; off++ {
				for _, w := range tr.PeekBlock(off) {
					v = append(v, int64(w))
				}
			}
			return digestOf(v...)
		},
		settle: func() error {
			stopped = true
			idle := func() bool {
				for p := range outstanding {
					if outstanding[p] || tr.Busy(p) {
						return false
					}
				}
				return true
			}
			if _, ok := eng.RunUntil(idle, 100*opBudgetSlots); !ok {
				return errors.New("att_observed: operations still in flight after the drain budget")
			}
			return nil
		},
		check: func() error {
			got := int64(tr.PeekBlock(0)[0]) + int64(tr.PeekBlock(1)[0])
			if got != tr.CompletedSwaps {
				return fmt.Errorf("att_observed: swap counters sum to %d, %d swaps completed", got, tr.CompletedSwaps)
			}
			return nil
		},
		overdue: func() int64 { return overdue },
	}
	var nExport int32
	if o.tr != nil {
		nExport = o.tr.name("metrics.export")
	}
	f.beforeChunk = func(i int) {
		if i%attCkptEvery != 0 {
			return
		}
		var buf bytes.Buffer
		if err := eng.Checkpoint(&buf); err != nil {
			panic(fmt.Sprintf("att_observed: checkpoint: %v", err))
		}
		f.lastCkpt, f.lastCkptSlot = buf.Bytes(), eng.Now()
	}
	// After each chunk the sampled series and the registry are exported
	// and the series dropped, as a streaming consumer would.
	f.afterChunk = func(int) {
		if serial != nil {
			serial.begin(nExport)
		}
		_ = cfm.WriteMetricsJSONL(io.Discard, sampler.Samples)
		_ = cfm.PrometheusText(reg.Snapshot())
		if serial != nil {
			serial.end()
		}
		sampler.Samples = sampler.Samples[:0]
	}
	f.layer = func(m map[string]float64) {
		snap := reg.Snapshot()
		counter := func(name string) int64 {
			for _, nv := range snap.Counters {
				if nv.Name == name {
					return nv.Value
				}
			}
			return 0
		}
		slots := int64(eng.Now())
		acc, conf := counter("att_bank_accesses_total"), counter("att_bank_conflicts_total")
		m["att.restarts_per_op"] = ratio(tr.Restarts, completed)
		m["att.aborts_per_write"] = ratio(tr.AbortedWrites, tr.AbortedWrites+tr.CompletedWrites)
		m["memory.bank_accesses_per_slot"] = ratio(acc, slots)
		m["memory.bank_conflicts_per_access"] = ratio(conf, acc)
		m["flight.events_per_slot"] = ratio(int64(rec.Len())+int64(rec.Dropped()), slots)
		m["flight.dropped"] = float64(rec.Dropped())
		if o.tr == nil {
			return
		}
		// Time the sampling and attribution calls directly: a throwaway
		// sampler over the same registry samples every slot.
		events := rec.Events()
		o.tr.serial.begin(o.tr.name("flight.attribute"))
		_ = cfm.AttributeFlight(events)
		o.tr.serial.end()
		m["flight.events_attributed"] = float64(len(events))
		s, nSample := cfm.NewSampler(reg, 1), o.tr.name("metrics.sample")
		for i := 0; i < 256; i++ {
			o.tr.serial.begin(nSample)
			s.Tick(cfm.Slot(i), cfm.PhaseUpdate)
			o.tr.serial.end()
		}
	}
	return f
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
