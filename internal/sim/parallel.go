package sim

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the parallel cycle engine. The CFM is a fully
// synchronous machine: within one time slot every bank, switch column,
// and cache frontend is combinational and mutually independent, so the
// hardware evaluates them simultaneously (dissertation §3.1.1). The
// serial Clock linearizes that simultaneity into an arbitrary but fixed
// order; ParallelClock recovers the hardware's concurrency while
// guaranteeing the exact same observable simulation, bit for bit.
//
// The guarantee rests on three rules:
//
//  1. Phases are global barriers: every component finishes phase k of a
//     slot before any component starts phase k+1, exactly as on Clock.
//  2. Priority order is honored across shards: tickers are grouped into
//     priority bands (equal RegisterPrio priority), and band k fully
//     precedes band k+1 within each phase. Components that do not opt
//     in to sharding run single-threaded, in registration order.
//  3. Within one priority band, a component opts in by implementing
//     Shardable: it partitions its per-phase work into shards and
//     promises the shards are conflict-free — against each other AND
//     against the shards of any other Shardable in the same band. The
//     engine may then run shards concurrently in any order. Work that
//     is inherently ordered (statistics folding, trace emission,
//     completion callbacks) goes into FinishShards, which the engine
//     runs single-threaded after all of the band's shards.
//
// Under those rules any shard interleaving — including the fully serial
// one — yields the same machine state, so Clock and ParallelClock are
// interchangeable. The top-level differential suite
// (engine_equiv_test.go) proves it for every configuration of the
// dissertation's evaluation.
//
// Execution model: a pool of persistent workers is spawned lazily at
// the first parallel run and parked on the pool gate between runs — a
// run costs no goroutine creation. Every worker walks the same SPMD
// episode loop (body): an episode is a slot range [from, to) ticked
// through every phase, followed by a settle crossing, worker 0's
// single-threaded bookkeeping, and a control-word crossing that
// launches the next episode. All synchronization is one central
// sense-reversing barrier: waiters spin briefly on a generation word
// and then block on a condition variable, so an idle engine consumes
// no CPU. Inside an unbatched (one-slot) episode, barriers are inserted
// by the compiler only where the schedule actually needs them: before
// parallel shard work (so it cannot overtake preceding work) and before
// serial work that follows parallel work. A schedule whose slot is one
// sharded segment plus its finalizer costs two crossings per slot.
//
// Epoch batching amortizes even those. When the compiled plan consists
// exclusively of shard work by components that declare global shard
// closure (EpochSafe) and whose finalizers can reconstruct the serial
// fold order over a slot range (EpochFinisher), an episode spans up to
// K slots: each worker ticks its shard range through every phase of
// every slot with no in-episode synchronization at all, then the fleet
// settles once and worker 0 folds the whole episode's finalization —
// two crossings per K slots instead of per slot. Skip-ahead jumps and
// Stop resolve at episode edges; a Run budget truncates the final
// episode, so engine state between runs is always at an episode
// boundary (which is why Checkpoint — legal only between runs — never
// observes a half-finished episode; see state.go).
//
// One worker (workers == 1, a plan with no shard work, or Step) runs
// the very same loop inline on a one-worker barrier, with no goroutines
// and no crossings counted.

// Shardable is the optional interface by which a composite Ticker
// declares conflict-free shard affinity. Shards returns the number of
// independent units; TickShard performs unit `shard`'s portion of
// Tick(t, ph). The contract:
//
//   - For every slot and phase, running TickShard for all shards (in
//     any order, possibly concurrently) followed by FinishShards (if
//     implemented) must leave the component — and every component it
//     touches — in exactly the state Tick(t, ph) would.
//   - Distinct shards must not write state read or written by another
//     shard of this component during the same phase, nor state touched
//     by any shard of another Shardable registered in the same
//     priority band.
//
// Components typically implement Tick by delegating to SerialTick so
// the serial and parallel engines execute identical code paths.
type Shardable interface {
	Ticker
	Shards() int
	TickShard(t Slot, ph Phase, shard int)
}

// ShardFinalizer is implemented by Shardables that need a
// single-threaded epilogue per (slot, phase): folding per-shard
// statistics into public counters, flushing staged trace events in
// deterministic order, and running completion callbacks. The engine
// calls it exactly once after every shard of the phase has finished.
type ShardFinalizer interface {
	FinishShards(t Slot, ph Phase)
}

// EpochSafeTicker is the opt-in contract for epoch batching, a strictly
// stronger promise than Shardable's per-phase independence. A component
// whose EpochSafe() reports true guarantees *global shard closure*:
// TickShard(t, ph, s) reads and writes only state owned by shard s —
// across every phase and every slot, not just within one (slot, phase).
// Under that promise the engine may run shard s through ALL phases of
// slots [from, from+k) before shard s' has started slot `from` at all:
// no result of shard s' work in any phase of any episode slot is ever
// visible to shard s before the episode settles. Parking state (Idler)
// must only change at episode edges — in FinishEpoch or between runs —
// never from inside TickShard. Components whose phases communicate
// across shards (a network moving flits between columns, a directory
// invalidating remote frontends) must report false.
type EpochSafeTicker interface {
	Shardable
	EpochSafe() bool
}

// EpochFinisher is the episode counterpart of ShardFinalizer: the
// engine calls FinishEpoch exactly once per component per episode,
// single-threaded, after every shard of every slot in [from, to) has
// ticked. The component must leave itself — and every sink it feeds
// (metrics, traces, flight recorders) — byte-identical to the serial
// engine having called FinishShards for each (slot, phase) of the
// episode in order: slot-major, phase within slot, ascending shard
// within phase. Commutative folds (counters, histogram bins) need no
// care; ordered sinks (event streams) must be merged slot-major from
// the per-shard staging, which is always possible under EpochSafe
// because each shard's staged stream is slot-nondecreasing.
//
// Restriction: two components registered on one engine must not feed
// order-sensitive records into a SHARED sink if both batch, because
// each reconstructs only its own serial order — the engine refuses
// nothing here, but the equivalence suite pins every shipped pairing.
type EpochFinisher interface {
	FinishEpoch(from, to Slot)
}

// SerialTick executes a Shardable exactly as the engines do: every
// shard in ascending order, then the finalizer. Components delegate
// their Tick to it so both engines share one code path.
func SerialTick(s Shardable, t Slot, ph Phase) {
	for i, n := 0, s.Shards(); i < n; i++ {
		s.TickShard(t, ph, i)
	}
	if f, ok := s.(ShardFinalizer); ok {
		f.FinishShards(t, ph)
	}
}

// WorkersAuto, passed to NewParallelClock, selects the worker count
// automatically: the engine inspects the compiled schedule and runs
// serially unless some parallel segment is at least autoSerialShards
// wide — small configurations never pay the coordination tax. Measured
// on a 2-CPU Xeon (Go 1.24, epoch-batched core.Partial at r=0.03, 16-word
// blocks): the Fig. 3.14 shape (n=64, 8 shards) runs about even with
// serial at 2 workers and about 1.6x slower at 4, while the same
// clusters scaled to n=4096 (512 modules) run about 1.9x faster than
// serial at 2 workers. Plans that epoch-batch amortize that tax over
// whole episodes, so for them the bar drops to autoEpochSerialShards.
const WorkersAuto = 0

// autoSerialShards is the WorkersAuto threshold: the widest parallel
// segment must have at least this many shards before auto mode turns on
// worker goroutines at all.
const autoSerialShards = 32

// autoEpochSerialShards is the WorkersAuto threshold for batchable
// plans. Epoch batching amortizes the per-slot barrier crossings over
// epochAutoK slots, so the coordination tax that makes narrow plans run
// better serially is an order of magnitude smaller — auto mode turns on
// workers for much narrower shard counts when every scheduled component
// batches.
const autoEpochSerialShards = 8

// EpochAuto, passed to SetEpochBatch, selects the episode length
// automatically (currently epochAutoK when the plan is batchable). It
// is the default: a batchable plan batches unless explicitly disabled
// with SetEpochBatch(1).
const EpochAuto = 0

// epochAutoK is the EpochAuto episode length: long enough that the two
// per-episode crossings vanish against the shard work, short enough
// that Stop and skip-ahead stay responsive.
const epochAutoK = 16

// parUnit is one Shardable inside a merged parallel segment.
type parUnit struct {
	s      Shardable
	fin    ShardFinalizer // nil when the component has no finalizer
	id     *Idler         // nil when the component never parks
	shards int
	offset int // first global shard index of this unit in the segment
}

// epochFin is one component of the compiled episode-finalizer list.
type epochFin struct {
	f  EpochFinisher
	id *Idler
}

// segment is one compiled step of a phase schedule: either a run of
// single-threaded tickers or a merged group of Shardables from one
// priority band.
type segment struct {
	serial []planEntry // non-nil: worker 0 runs these in order
	units  []parUnit   // non-nil: shards distributed across workers
	total  int         // total shards across units
	anyFin bool
	// barBefore makes every worker sync before this segment's work —
	// set by the compiler only where ordering demands it.
	barBefore bool
}

// ParallelClock drives the same Ticker population as Clock but executes
// each phase with a pool of persistent workers and barrier
// synchronization. It implements Engine; see the file comment for the
// equivalence guarantee. The zero value is not usable — construct with
// NewParallelClock.
//
// Registration, Run, Step, and Close must all happen on one goroutine;
// Stop alone is safe to call from inside a Tick on any worker.
type ParallelClock struct {
	now     Slot
	tickers []tickerEntry
	// cfgWorkers is the constructor argument (WorkersAuto = resolve per
	// plan); workers is the resolved count for the current plan (1 when
	// the plan has no shard work).
	cfgWorkers int
	workers    int
	plan       [numPhases][]segment
	// ctrlBar makes workers sync before worker 0's end-of-slot
	// bookkeeping (needed when the slot's last work was parallel).
	ctrlBar bool
	planned bool
	stopped atomic.Bool
	// Epoch batching: epochK is the SetEpochBatch argument (EpochAuto =
	// auto); batchable is the compiled predicate; epochFins the compiled
	// finalizer list; slotCrossings the crossings one unbatched slot
	// costs (for the crossings counter).
	epochK        int
	batchable     bool
	epochFins     []epochFin
	slotCrossings int
	// Per-run state, written by the owner before the pool gate and by
	// worker 0 between the settle and control-word crossings; read by
	// every worker after them.
	runN     int64
	runDone  int64
	runPred  func() bool
	batched  bool // this run's episodes span up to epochCap slots
	from, to Slot // the episode being launched
	cont     bool // another episode follows
	// Panic collection.
	panicMu  sync.Mutex
	panicVal any
	// solo is the one-worker barrier of inline runs; pool holds the
	// persistent workers (nil until the first pooled run). spins, when
	// nonzero, overrides barrierSpins for the next pool (tests only).
	solo   barrier
	pool   *workerPool
	sense0 uint64 // worker 0's barrier sense, persists across runs
	spins  int
	// skipAhead enables the event-horizon clock; hplan is the compiled
	// horizon-fold list. Only worker 0 reads them, in the between-episode
	// bookkeeping; a jump reaches the other workers as the next
	// episode's from.
	skipAhead bool
	hplan     []horizonEntry
	// extras are the harness-attached Staters snapshotted alongside the
	// registered components (see AttachState).
	extras []extraState
	// Stats. crossings and epochs count this engine's lifetime barrier
	// episodes during pooled runs (the pool gate is not counted); they
	// are observability counters, not simulation state, so — like
	// nothing else would fit the frozen snapshot format — they are NOT
	// checkpointed and restart at zero on a restored engine.
	slotsRun   int64
	slotsFired int64
	jumps      int64
	crossings  int64
	epochs     int64
}

// workerPool holds the persistent worker goroutines of one resolved
// worker count. Workers park on bar between runs; the owner releases
// them by arriving at the same barrier.
type workerPool struct {
	bar  barrier
	stop bool // written by the owner before the release that retires the pool
	wg   sync.WaitGroup
}

// NewParallelClock returns a parallel engine at slot 0. workers > 0
// fixes the worker count; WorkersAuto (0) sizes it from the compiled
// schedule (serial below the autoSerialShards threshold, else
// GOMAXPROCS); workers < 0 selects GOMAXPROCS unconditionally.
// workers == 1 executes the parallel schedule inline with no goroutines
// (useful as the differential baseline).
func NewParallelClock(workers int) *ParallelClock {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pc := &ParallelClock{cfgWorkers: workers}
	pc.solo.init(1, 0)
	return pc
}

// Workers returns the configured worker count (WorkersAuto when the
// engine sizes itself).
func (pc *ParallelClock) Workers() int { return pc.cfgWorkers }

// Now returns the current slot (the first slot of the episode being
// executed during a tick).
func (pc *ParallelClock) Now() Slot { return pc.now }

// SlotsRun reports how many complete slots have been executed, skipped
// quiescent slots included.
func (pc *ParallelClock) SlotsRun() int64 { return pc.slotsRun }

// SlotsFired reports how many slots actually executed their phase plan.
// Without skip-ahead it equals SlotsRun.
func (pc *ParallelClock) SlotsFired() int64 { return pc.slotsFired }

// Jumps reports how many skip-ahead jumps actually advanced the clock;
// see Clock.Jumps. Read from the owner goroutine, between runs.
func (pc *ParallelClock) Jumps() int64 { return pc.jumps }

// BarrierCrossings reports how many barrier crossings the full worker
// complement has paid during pooled runs over this engine's lifetime
// (inline one-worker runs cost none; the pool gate is not counted).
// Read from the owner goroutine, between runs. Not checkpointed.
func (pc *ParallelClock) BarrierCrossings() int64 { return pc.crossings }

// Epochs reports how many barrier episodes (batched multi-slot episodes
// AND unbatched single-slot ones) pooled runs have executed. The
// batching win is visible as Epochs << SlotsFired. Read from the owner
// goroutine, between runs. Not checkpointed.
func (pc *ParallelClock) Epochs() int64 { return pc.epochs }

// SetSkipAhead enables or disables the event-horizon clock. Call between
// runs, from the owner goroutine. The per-component horizons are folded
// single-threaded by worker 0 between episodes; workers observe a jump
// as the next episode's first slot, so the phase schedule itself is
// untouched and the simulated observables are bit-identical to dense
// ticking. Under epoch batching, horizons are folded at episode edges
// only.
func (pc *ParallelClock) SetSkipAhead(on bool) { pc.skipAhead = on }

// SetEpochBatch bounds the episode length of epoch batching: EpochAuto
// (0, the default) batches a batchable plan with the automatic length;
// 1 disables batching; k > 1 fixes the cap at k slots. Call between
// runs, from the owner goroutine. Batching changes nothing observable —
// the simulation stays bit-identical — except that Stop and skip-ahead
// jumps resolve at episode edges rather than every slot, and RunUntil
// always runs slot-at-a-time (its predicate is checked between slots).
func (pc *ParallelClock) SetEpochBatch(k int) {
	if k < 0 {
		k = 1
	}
	pc.epochK = k
}

// Register adds a component at priority 0.
func (pc *ParallelClock) Register(t Ticker) { pc.RegisterPrio(t, 0) }

// RegisterPrio adds a component with an explicit priority; semantics
// match Clock.RegisterPrio.
func (pc *ParallelClock) RegisterPrio(t Ticker, prio int) {
	pc.tickers = append(pc.tickers, tickerEntry{prio: prio, seq: len(pc.tickers), t: t})
	pc.planned = false
}

// Stop requests that Run return at the end of the current slot — or,
// under epoch batching, at the end of the current episode (at most the
// episode cap further slots). Safe to call from any worker (i.e. from
// inside a TickShard).
func (pc *ParallelClock) Stop() { pc.stopped.Store(true) }

// AttachState adds a named harness-owned Stater to the snapshot (see
// Engine.AttachState). Call from the owner goroutine, between runs.
func (pc *ParallelClock) AttachState(name string, s Stater) {
	pc.extras = attachExtra(pc.extras, name, s)
}

// Checkpoint writes a snapshot of full engine state to w. Both engines
// compile the same canonical (prio, seq) component order, so the
// snapshot restores into a serial Clock just as well. Call from the
// owner goroutine, between runs (never from inside a Tick) — which,
// because episodes never span a Run budget, is always an episode
// boundary: a mid-episode cut is structurally impossible rather than
// runtime-rejected.
func (pc *ParallelClock) Checkpoint(w io.Writer) error {
	if !pc.planned {
		pc.compile()
	}
	return writeCheckpoint(w, pc.now, pc.slotsRun, pc.slotsFired, pc.jumps, pc.tickers, pc.extras)
}

// Restore loads a snapshot written by Checkpoint (on either engine kind)
// into this engine; semantics match Clock.Restore. Call from the owner
// goroutine, between runs.
func (pc *ParallelClock) Restore(r io.Reader) error {
	if !pc.planned {
		pc.compile()
	}
	snap, err := readCheckpoint(r, pc.tickers, pc.extras)
	if err != nil {
		return err
	}
	pc.now = snap.now
	pc.slotsRun = snap.slotsRun
	pc.slotsFired = snap.slotsFired
	pc.jumps = snap.jumps
	pc.stopped.Store(false)
	return nil
}

// compile builds the per-phase schedule: tickers sorted into priority
// bands, consecutive Shardables of one band merged into parallel
// segments, everything else into single-threaded segments; then barrier
// placement, the batchability predicate, and the auto worker count are
// derived from the shape.
func (pc *ParallelClock) compile() {
	sortTickers(pc.tickers)
	for ph := Phase(0); ph < numPhases; ph++ {
		pc.plan[ph] = nil
	}
	// lastBand[ph] is the priority of the last segment appended to
	// phase ph's schedule; parallel merging never crosses bands.
	var lastBand [numPhases]int
	maxShards := 0
	for i := range pc.tickers {
		e := &pc.tickers[i]
		id := bindIdler(e)
		sh, shardable := e.t.(Shardable)
		if shardable && sh.Shards() < 1 {
			shardable = false
		}
		m := maskOf(e.t)
		for ph := Phase(0); ph < numPhases; ph++ {
			if !m.Has(ph) {
				continue
			}
			segs := pc.plan[ph]
			if shardable {
				fin, _ := e.t.(ShardFinalizer)
				u := parUnit{s: sh, fin: fin, id: id, shards: sh.Shards()}
				if n := len(segs); n > 0 && segs[n-1].units != nil && lastBand[ph] == e.prio {
					last := &segs[n-1]
					u.offset = last.total
					last.units = append(last.units, u)
					last.total += u.shards
					last.anyFin = last.anyFin || fin != nil
				} else {
					segs = append(segs, segment{units: []parUnit{u}, total: u.shards, anyFin: fin != nil})
				}
				if t := segs[len(segs)-1].total; t > maxShards {
					maxShards = t
				}
			} else {
				pe := planEntry{t: e.t, id: id}
				if n := len(segs); n > 0 && segs[n-1].serial != nil {
					segs[n-1].serial = append(segs[n-1].serial, pe)
				} else {
					segs = append(segs, segment{serial: []planEntry{pe}})
				}
			}
			pc.plan[ph] = segs
			lastBand[ph] = e.prio
		}
	}
	// Barrier placement. Walking the slot's segments in execution
	// order, a barrier is needed before parallel work whenever ANY work
	// happened since the last sync (it must not overtake), and before
	// serial work only when PARALLEL work happened since the last sync
	// (worker 0's own serial work is already ordered). A segment's
	// finalizer counts as serial work behind the segment's internal
	// post-shard barrier.
	pendingSerial, pendingPar := false, false
	sync := func() { pendingSerial, pendingPar = false, false }
	crossings := 1 // the control-word barrier every unbatched slot ends with
	for ph := Phase(0); ph < numPhases; ph++ {
		for i := range pc.plan[ph] {
			seg := &pc.plan[ph][i]
			if seg.units != nil {
				seg.barBefore = pendingSerial || pendingPar
				if seg.barBefore {
					crossings++
					sync()
				}
				pendingPar = true
				if seg.anyFin {
					crossings++
					sync() // the internal post-shard barrier
					pendingSerial = true
				}
			} else {
				seg.barBefore = pendingPar
				if seg.barBefore {
					crossings++
					sync()
				}
				pendingSerial = true
			}
		}
	}
	pc.ctrlBar = pendingPar
	if pc.ctrlBar {
		crossings++
	}
	pc.slotCrossings = crossings
	pc.hplan = buildHorizons(pc.hplan, pc.tickers)
	pc.compileEpochs(maxShards)

	pc.workers = pc.cfgWorkers
	if pc.cfgWorkers == WorkersAuto {
		// A batchable plan pays the barrier tax once per episode rather
		// than once per slot, so it profits from workers at much
		// narrower shard counts.
		threshold := autoSerialShards
		if pc.batchable && pc.epochCap() > 1 {
			threshold = autoEpochSerialShards
		}
		if maxShards >= threshold {
			pc.workers = runtime.GOMAXPROCS(0)
		} else {
			pc.workers = 1
		}
	}
	if maxShards == 0 {
		pc.workers = 1 // nothing to share out: run inline
	}
	pc.planned = true
}

// compileEpochs derives the batchability predicate and the episode
// finalizer list from the compiled plan. A plan batches when every
// scheduled step is shard work (no serial segments in any phase) by
// components declaring global shard closure (EpochSafeTicker reporting
// true) whose finalizers, if any, can reconstruct the serial fold over
// a slot range (EpochFinisher).
func (pc *ParallelClock) compileEpochs(maxShards int) {
	pc.epochFins = pc.epochFins[:0]
	pc.batchable = false
	if maxShards == 0 {
		return // nothing parallel to batch
	}
	for ph := Phase(0); ph < numPhases; ph++ {
		for i := range pc.plan[ph] {
			if pc.plan[ph][i].serial != nil {
				return
			}
		}
	}
	// No serial segments anywhere, so every scheduled ticker is one of
	// the plan's parUnits; vet each once (not once per phase).
	for i := range pc.tickers {
		e := &pc.tickers[i]
		if maskOf(e.t) == 0 {
			continue // never scheduled
		}
		es, ok := e.t.(EpochSafeTicker)
		if !ok || !es.EpochSafe() {
			return
		}
		if fin, hasFin := e.t.(ShardFinalizer); hasFin {
			ef, canEpoch := fin.(EpochFinisher)
			if !canEpoch {
				return
			}
			pc.epochFins = append(pc.epochFins, epochFin{f: ef, id: e.id})
		}
	}
	pc.batchable = true
}

// epochCap resolves the configured episode length bound.
func (pc *ParallelClock) epochCap() int64 {
	switch {
	case pc.epochK == EpochAuto:
		return epochAutoK
	case pc.epochK < 2:
		return 1
	default:
		return int64(pc.epochK)
	}
}

// runShards executes the global shard range [lo, hi) of a merged
// parallel segment, skipping parked units.
func (seg *segment) runShards(t Slot, ph Phase, lo, hi int) {
	for _, u := range seg.units {
		if lo >= u.offset+u.shards || hi <= u.offset {
			continue
		}
		if u.id.Parked() {
			continue
		}
		s, e := lo-u.offset, hi-u.offset
		if s < 0 {
			s = 0
		}
		if e > u.shards {
			e = u.shards
		}
		for i := s; i < e; i++ {
			u.s.TickShard(t, ph, i)
		}
	}
}

// finish runs the live units' finalizers in registration order.
func (seg *segment) finish(t Slot, ph Phase) {
	for _, u := range seg.units {
		if u.fin != nil && !u.id.Parked() {
			u.fin.FinishShards(t, ph)
		}
	}
}

// jump advances the clock over the quiescent stretch ending at the
// global next-event slot, bounded by budget, returning the slots
// skipped. Must run single-threaded between fully settled episodes.
func (pc *ParallelClock) jump(budget int64) int64 {
	h := foldHorizons(pc.hplan, pc.now)
	if h <= pc.now {
		return 0
	}
	n := int64(h - pc.now)
	if h == HorizonNone || n > budget || n < 0 {
		n = budget
	}
	pc.now += Slot(n)
	pc.slotsRun += n
	pc.jumps++
	return n
}

// Step executes exactly one slot: a one-slot unbatched episode run
// inline, with no skip-ahead jump and no Stop check — identical
// semantics to a one-slot Run by the equivalence guarantee.
func (pc *ParallelClock) Step() {
	if !pc.planned {
		pc.compile()
	}
	pc.runN, pc.runDone, pc.runPred, pc.batched = 1, 0, nil, false
	pc.from, pc.to = pc.now, pc.now+1
	var sense uint64
	pc.body(0, &pc.solo, &sense)
}

// Run executes up to n slots, stopping early if Stop is called. It
// returns the number of slots actually executed.
func (pc *ParallelClock) Run(n int64) int64 {
	pc.stopped.Store(false)
	return pc.run(n, nil)
}

// RunUntil executes slots until pred returns true (checked between
// slots, single-threaded) or the budget is exhausted. The per-slot
// predicate check forces slot-at-a-time execution: epoch batching is
// bypassed for the duration of the call.
func (pc *ParallelClock) RunUntil(pred func() bool, budget int64) (int64, bool) {
	return pc.run(budget, pred), pred()
}

func (pc *ParallelClock) run(n int64, pred func() bool) int64 {
	if !pc.planned {
		pc.compile()
	}
	pc.runN, pc.runDone, pc.runPred = n, 0, pred
	pc.batched = pc.batchable && pred == nil && pc.epochCap() > 1
	if pc.launch() {
		if pc.workers == 1 {
			var sense uint64
			pc.body(0, &pc.solo, &sense)
		} else {
			pc.runWorkers()
		}
	}
	pc.runPred = nil
	return pc.runDone
}

// launch is the between-episode half of worker 0's bookkeeping (also
// run by the owner before the first episode): it resolves the budget,
// the RunUntil predicate or Stop, and any skip-ahead jump, then sizes
// the next episode — one slot unbatched, else the episode cap truncated
// to the remaining budget so episodes never span a Run call. It reports
// whether another episode runs.
func (pc *ParallelClock) launch() bool {
	if pc.runDone >= pc.runN {
		return false
	}
	if pc.runPred != nil {
		if pc.runPred() {
			return false
		}
	} else if pc.stopped.Load() {
		return false
	}
	if pc.skipAhead {
		if pc.runDone += pc.jump(pc.runN - pc.runDone); pc.runDone >= pc.runN {
			return false
		}
	}
	k := int64(1)
	if pc.batched {
		k = min(pc.epochCap(), pc.runN-pc.runDone)
	}
	pc.from, pc.to = pc.now, pc.now+Slot(k)
	return true
}

// endEpisode is worker 0's single-threaded bookkeeping once an episode
// has settled everywhere: the episode finalizers of a batched run, the
// clock and counters, then launch.
func (pc *ParallelClock) endEpisode(pooled bool) bool {
	if pc.batched {
		for _, f := range pc.epochFins {
			if !f.id.Parked() {
				f.f.FinishEpoch(pc.from, pc.to)
			}
		}
	}
	k := int64(pc.to - pc.from)
	pc.now = pc.to
	pc.slotsRun += k
	pc.slotsFired += k
	pc.runDone += k
	if pooled {
		pc.epochs++
		if pc.batched {
			pc.crossings += 2
		} else {
			pc.crossings += int64(pc.slotCrossings)
		}
	}
	return pc.launch()
}

// body is the SPMD episode loop every worker executes, worker 0 on the
// owner's goroutine. Each worker ticks its share of every parallel
// segment through every phase of every slot in [from, to); worker 0
// alone runs serial segments, finalizers, and the bookkeeping. An
// unbatched episode is one slot and honors the compiled in-slot
// barriers; a batched one has none, because the plan is all EpochSafe
// shard work and nothing a worker computes is visible to another
// worker's shards until the episode settles. Every episode ends with a
// settle crossing (when work may still be in flight elsewhere) and a
// control-word crossing that publishes the next episode.
func (pc *ParallelClock) body(w int, bar *barrier, sense *uint64) {
	inSlot := !pc.batched
	for {
		// to is read once: worker 0 republishes it in endEpisode while
		// the others may still be leaving the episode.
		for t, to := pc.from, pc.to; t < to; t++ {
			for ph := Phase(0); ph < numPhases; ph++ {
				for i := range pc.plan[ph] {
					seg := &pc.plan[ph][i]
					if inSlot && seg.barBefore {
						bar.await(sense)
					}
					if seg.serial != nil {
						if w == 0 {
							for _, e := range seg.serial {
								if !e.id.Parked() {
									e.t.Tick(t, ph)
								}
							}
						}
						continue
					}
					seg.runShards(t, ph, w*seg.total/bar.n, (w+1)*seg.total/bar.n)
					if inSlot && seg.anyFin {
						bar.await(sense)
						if w == 0 {
							seg.finish(t, ph)
						}
					}
				}
			}
		}
		if pc.ctrlBar || !inSlot {
			bar.await(sense) // settle: the episode's shard work is done everywhere
		}
		if w == 0 {
			pc.cont = pc.endEpisode(bar.n > 1)
		}
		bar.await(sense) // control word and next episode published
		if !pc.cont {
			return
		}
	}
}

// Close retires the persistent worker pool. It is optional — an
// abandoned clock's workers stay blocked on a condition variable and
// cost no CPU — but lets tests and benchmarks keep the goroutine count
// flat. The clock remains usable; the next pooled run respawns the
// pool.
func (pc *ParallelClock) Close() {
	p := pc.pool
	if p == nil {
		return
	}
	pc.pool = nil
	p.stop = true
	p.bar.await(&pc.sense0) // release the gate so workers observe stop
	p.wg.Wait()
}

// ensurePool returns a worker pool sized for the current plan, retiring
// a stale one first.
func (pc *ParallelClock) ensurePool() *workerPool {
	if p := pc.pool; p != nil && p.bar.n == pc.workers {
		return p
	}
	pc.Close()
	p := &workerPool{}
	p.bar.init(pc.workers, pc.spins)
	pc.sense0 = 0
	pc.pool = p
	p.wg.Add(pc.workers - 1)
	for w := 1; w < pc.workers; w++ {
		go pc.workerLoop(p, w)
	}
	return p
}

// poisonedBarrier is the sentinel panic a worker raises when it
// observes that another worker has already panicked; the original
// panic value is re-raised on the caller's goroutine.
type poisonedBarrier struct{}

// recordPanic keeps the first real panic value; sentinel re-panics from
// poisoned barriers are discarded.
func (pc *ParallelClock) recordPanic(r any) {
	if _, sentinel := r.(poisonedBarrier); sentinel {
		return
	}
	pc.panicMu.Lock()
	if pc.panicVal == nil {
		pc.panicVal = r
	}
	pc.panicMu.Unlock()
}

// workerLoop is the persistent worker body: park on the pool gate, run
// the episode loop, repeat — until the pool is retired or poisoned.
// p.stop may only be read right after the gate barrier (the owner
// writes it before arriving there): checking it anywhere else races
// with Close — a worker still waking from a run's final barrier could
// observe the flag and exit without its gate arrival, deadlocking the
// owner's wait.
func (pc *ParallelClock) workerLoop(p *workerPool, w int) {
	defer p.wg.Done()
	var sense uint64
	for {
		stop, broken := func() (stop, broken bool) {
			defer func() {
				if r := recover(); r != nil {
					pc.recordPanic(r)
					p.bar.poisonAndWake()
					broken = true
				}
			}()
			p.bar.await(&sense) // gate: owner arrives to start a run
			if p.stop {
				return true, false
			}
			pc.body(w, &p.bar, &sense)
			return false, false
		}()
		if stop || broken {
			return
		}
	}
}

// runWorkers executes a run on the persistent pool: the caller becomes
// worker 0, releases the gate, and walks the same episode loop as the
// workers. On a panic anywhere the barrier is poisoned, every worker
// unwinds, the pool is discarded, and the original panic value is
// re-raised on the caller.
func (pc *ParallelClock) runWorkers() {
	p := pc.ensurePool()
	pc.panicVal = nil
	func() {
		defer func() {
			if r := recover(); r != nil {
				pc.recordPanic(r)
				p.bar.poisonAndWake()
			}
		}()
		p.bar.await(&pc.sense0) // release the gate
		pc.body(0, &p.bar, &pc.sense0)
	}()
	if p.bar.poison.Load() {
		p.wg.Wait()
		pc.pool = nil
		panic(fmt.Sprintf("sim: worker panic during parallel run at slot %d: %v", pc.now, pc.panicVal))
	}
}

// barrierSpins bounds the spin phase of a barrier wait before the
// waiter blocks on the condition variable.
const barrierSpins = 2048

// barrier is a central sense-reversing barrier over n workers. Rounds
// are generation-numbered: each worker keeps its own sense (the last
// round it crossed), the last arrival of round g resets the arrival
// count and publishes gen = g, and waiters wait for gen >= g — so a
// fast worker re-arriving for round g+1 can never be confused with a
// straggler of round g. The wait spins for a bounded number of rounds
// and then blocks on cond, so an idle pool costs no CPU. The releaser
// broadcasts only when sleepers says someone is actually blocked: the
// store-gen-then-load-sleepers / increment-sleepers-then-recheck-gen
// pair is sequentially consistent under sync/atomic, so the wakeup
// cannot be lost. Panics propagate by poisoning: every spin and every
// block recheck the poison flag.
type barrier struct {
	n        int
	spins    int
	arrived  atomic.Int64
	gen      atomic.Uint64
	poison   atomic.Bool
	sleepers atomic.Int32 // waiters blocked on cond (not spinning)
	mu       sync.Mutex
	cond     sync.Cond
}

func (b *barrier) init(n, spins int) {
	if spins < 1 {
		spins = barrierSpins
	}
	b.n, b.spins = n, spins
	b.cond.L = &b.mu
}

// await blocks until all n workers have arrived at round *sense+1, then
// advances *sense. Every worker must call await the same number of
// times.
func (b *barrier) await(sense *uint64) {
	g := *sense + 1
	*sense = g
	if b.arrived.Add(1) == int64(b.n) {
		b.arrived.Store(0)
		b.gen.Store(g)
		if b.sleepers.Load() > 0 {
			b.wake()
		}
		return
	}
	for i := 0; i < b.spins; i++ {
		if b.gen.Load() >= g {
			return
		}
		if b.poison.Load() {
			panic(poisonedBarrier{})
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	b.sleepers.Add(1)
	for b.gen.Load() < g && !b.poison.Load() {
		b.cond.Wait()
	}
	b.sleepers.Add(-1)
	b.mu.Unlock()
	if b.gen.Load() < g {
		panic(poisonedBarrier{}) // released by poison, not by the round
	}
}

// wake broadcasts to blocked waiters. The empty critical section orders
// the preceding store ahead of the broadcast for a waiter between its
// final recheck and cond.Wait.
func (b *barrier) wake() {
	b.mu.Lock()
	b.mu.Unlock() //nolint:staticcheck // empty critical section orders the store before the broadcast
	b.cond.Broadcast()
}

// poisonAndWake marks the barrier poisoned and wakes every blocked
// waiter so a worker panic propagates instead of deadlocking the pool.
func (b *barrier) poisonAndWake() {
	b.poison.Store(true)
	b.wake()
}
