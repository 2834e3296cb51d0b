package main

//cfm:wallclock-ok the benchmark measures host time; no clock reading reaches simulation state

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"cfm"
)

// The traced run measures each layer from outside: every component a
// workload registers is wrapped in a forwarder that records a span
// around each engine call into it, and the harness records spans around
// its own calls (driver issue calls, checkpoint/restore, exports).
//
// A span is (id, parent, name, start, end). Spans are appended when they
// close, into a buffer owned by exactly one execution context: one
// serial buffer for everything the engines run single-threaded (Run
// itself, serial Ticks, shard finalizers, driver calls) and one buffer
// per (component, shard) for TickShard. The parallel engine never runs
// two calls that share a buffer at once, so the tick path takes no
// locks. A full buffer is folded into its own (name, parent name)
// aggregate table, and every buffer is folded once more when the run
// ends; self time is then a name's total minus the totals of the spans
// whose parent it is.

const (
	spanBufCap = 4096
	maxNames   = 32
	noParent   = 0 // name index reserved for "no parent"
)

type span struct {
	id, parent  uint64
	name, pname int32
	start, end  int64 // ns since the tracer's epoch
}

type openSpan struct {
	id    uint64
	name  int32
	start int64
}

type aggStat struct{ count, ns int64 }

type spanBuf struct {
	tr    *tracer
	base  uint64 // buffer number << 40; span IDs are base | sequence
	seq   uint64
	spans []span
	stack []openSpan
	agg   [maxNames * maxNames]aggStat // [name*maxNames + parent name]
}

type tracer struct {
	epoch  time.Time
	names  []string
	bufs   []*spanBuf
	serial *spanBuf
	// root is the open engine-run span; TickShard spans on the shard
	// buffers name it as their parent. Written only between runs.
	root openSpan
	// err records a component the forwarders could not mirror exactly.
	err error

	nRun, nCkpt, nRestore   int32
	ckptBytes, restoreBytes int64
	lastCkptBytes           int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), names: []string{"-"}}
	t.serial = t.newBuf()
	t.nRun = t.name("sim.run")
	t.nCkpt = t.name("sim.checkpoint")
	t.nRestore = t.name("sim.restore")
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset drops every span and byte count recorded so far (the warm-up's),
// keeping the names and buffers.
func (t *tracer) reset() {
	for _, b := range t.bufs {
		b.spans = b.spans[:0]
		b.agg = [maxNames * maxNames]aggStat{}
	}
	t.ckptBytes, t.restoreBytes, t.lastCkptBytes = 0, 0, 0
}

// name interns a span name (set-up time only).
func (t *tracer) name(s string) int32 {
	for i, n := range t.names {
		if n == s {
			return int32(i)
		}
	}
	if len(t.names) == maxNames {
		panic("perfbench: too many span names")
	}
	t.names = append(t.names, s)
	return int32(len(t.names) - 1)
}

func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{tr: t, base: uint64(len(t.bufs)+1) << 40, spans: make([]span, 0, spanBufCap)}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span on b; its parent is the innermost open span of b,
// or the engine-run span for a buffer with none open.
func (b *spanBuf) begin(name int32) {
	b.seq++
	b.stack = append(b.stack, openSpan{id: b.base | b.seq, name: name, start: b.tr.now()})
}

// end closes the innermost open span of b.
func (b *spanBuf) end() {
	end := b.tr.now()
	o := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	p := b.tr.root
	if n := len(b.stack); n > 0 {
		p = b.stack[n-1]
	}
	if len(b.spans) == cap(b.spans) {
		b.fold()
	}
	b.spans = append(b.spans, span{id: o.id, parent: p.id, name: o.name, pname: p.name, start: o.start, end: end})
}

func (b *spanBuf) fold() {
	for _, s := range b.spans {
		a := &b.agg[int(s.name)*maxNames+int(s.pname)]
		a.count++
		a.ns += s.end - s.start
	}
	b.spans = b.spans[:0]
}

// profile is the folded span table of a finished traced run.
type profile struct {
	count, total, childNs map[string]int64
}

func (t *tracer) profile() profile {
	p := profile{count: map[string]int64{}, total: map[string]int64{}, childNs: map[string]int64{}}
	for _, b := range t.bufs {
		b.fold()
		for i, a := range b.agg {
			if a.count == 0 {
				continue
			}
			name, parent := t.names[i/maxNames], t.names[i%maxNames]
			p.count[name] += a.count
			p.total[name] += a.ns
			if i%maxNames != noParent {
				p.childNs[parent] += a.ns
			}
		}
	}
	return p
}

// tracedEngine wraps every component registered through it and records
// engine-run, checkpoint and restore spans.
type tracedEngine struct {
	cfm.Engine
	tr *tracer
}

func (e *tracedEngine) Register(t cfm.Ticker) { e.RegisterPrio(t, 0) }

func (e *tracedEngine) RegisterPrio(t cfm.Ticker, prio int) {
	w, err := e.tr.wrap(t)
	if err != nil {
		if e.tr.err == nil {
			e.tr.err = err
		}
		w = t
	}
	e.Engine.RegisterPrio(w, prio)
}

func (e *tracedEngine) Run(n int64) int64 {
	s := e.tr.serial
	s.begin(e.tr.nRun)
	e.tr.root = s.stack[len(s.stack)-1]
	done := e.Engine.Run(n)
	e.tr.root = openSpan{}
	s.end()
	return done
}

func (e *tracedEngine) RunUntil(pred func() bool, budget int64) (int64, bool) {
	s := e.tr.serial
	s.begin(e.tr.nRun)
	e.tr.root = s.stack[len(s.stack)-1]
	done, ok := e.Engine.RunUntil(pred, budget)
	e.tr.root = openSpan{}
	s.end()
	return done, ok
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (e *tracedEngine) Checkpoint(w io.Writer) error {
	cw := &countingWriter{w: w}
	e.tr.serial.begin(e.tr.nCkpt)
	err := e.Engine.Checkpoint(cw)
	e.tr.serial.end()
	e.tr.ckptBytes += cw.n
	e.tr.lastCkptBytes = cw.n
	return err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (e *tracedEngine) Restore(r io.Reader) error {
	cr := &countingReader{r: r}
	e.tr.serial.begin(e.tr.nRestore)
	err := e.Engine.Restore(cr)
	e.tr.serial.end()
	e.tr.restoreBytes += cr.n
	return err
}

// Optional engine interfaces a component may implement, mirrored here
// because the facade re-exports only some of them.
type (
	phaseMasker   interface{ PhaseMask() cfm.PhaseMask }
	phaseAware    interface{ ActivePhases() []cfm.Phase }
	shardFinisher interface {
		FinishShards(t cfm.Slot, ph cfm.Phase)
	}
	epochSafe     interface{ EpochSafe() bool }
	epochFinisher interface{ FinishEpoch(from, to cfm.Slot) }
)

// Capability bits: which optional engine interfaces a ticker implements.
// The engines compile their plans from exactly these, so a forwarder
// must implement the same set as the component it wraps.
type caps uint16

const (
	capMask caps = 1 << iota
	capPhases
	capHorizon
	capPark
	capShard
	capFinish
	capEpochSafe
	capEpochFinish
	capState
)

func capsOf(t cfm.Ticker) caps {
	var c caps
	set := func(ok bool, bit caps) {
		if ok {
			c |= bit
		}
	}
	_, ok := t.(phaseMasker)
	set(ok, capMask)
	_, ok = t.(phaseAware)
	set(ok, capPhases)
	_, ok = t.(cfm.Horizoner)
	set(ok, capHorizon)
	_, ok = reflect.TypeOf(t).MethodByName("BindIdler")
	set(ok, capPark)
	_, ok = t.(cfm.Shardable)
	set(ok, capShard)
	_, ok = t.(shardFinisher)
	set(ok, capFinish)
	_, ok = t.(epochSafe)
	set(ok, capEpochSafe)
	_, ok = t.(epochFinisher)
	set(ok, capEpochFinish)
	_, ok = t.(cfm.Stater)
	set(ok, capState)
	return c
}

// layerOf names the layer a registered component belongs to; span names
// are "<layer>.tick", "<layer>.tick_shard", and so on.
func layerOf(t cfm.Ticker) string {
	switch t.(type) {
	case *cfm.Partial:
		return "core"
	case *cfm.CacheProtocol:
		return "cache"
	case *cfm.Tracked:
		return "att"
	case *cfm.Sampler:
		return "metrics.sampler"
	case *cfm.FuncTicker:
		return "driver"
	}
	return "other"
}

// fwd is the common part of every forwarder: Tick with a span.
//
//cfm:no-stater holds only span buffers; the shapes embedding it forward the component's Stater
type fwd struct {
	inner                       cfm.Ticker
	serial                      *spanBuf
	shards                      []*spanBuf
	nTick, nShard, nFin, nEpoch int32
}

func (f *fwd) Tick(t cfm.Slot, ph cfm.Phase) {
	f.serial.begin(f.nTick)
	f.inner.Tick(t, ph)
	f.serial.end()
}

type masked struct{ m phaseMasker }

func (x masked) PhaseMask() cfm.PhaseMask { return x.m.PhaseMask() }

type phased struct{ a phaseAware }

func (x phased) ActivePhases() []cfm.Phase { return x.a.ActivePhases() }

type horizoned struct{ h cfm.Horizoner }

func (x horizoned) Horizon(now cfm.Slot) cfm.Slot { return x.h.Horizon(now) }

type stated struct{ s cfm.Stater }

func (x stated) SaveState(enc *cfm.StateEncoder) { x.s.SaveState(enc) }
func (x stated) LoadState(dec *cfm.StateDecoder) { x.s.LoadState(dec) }

type parked[I any] struct{ p interface{ BindIdler(I) } }

func (x parked[I]) BindIdler(id I) { x.p.BindIdler(id) }

type sharded struct {
	f *fwd
	s cfm.Shardable
}

func (x sharded) Shards() int { return x.s.Shards() }

func (x sharded) TickShard(t cfm.Slot, ph cfm.Phase, shard int) {
	b := x.f.shards[shard]
	b.begin(x.f.nShard)
	x.s.TickShard(t, ph, shard)
	b.end()
}

type finished struct {
	f   *fwd
	fin shardFinisher
}

func (x finished) FinishShards(t cfm.Slot, ph cfm.Phase) {
	x.f.serial.begin(x.f.nFin)
	x.fin.FinishShards(t, ph)
	x.f.serial.end()
}

type epochSafed struct{ e epochSafe }

func (x epochSafed) EpochSafe() bool { return x.e.EpochSafe() }

type epochFinished struct {
	f  *fwd
	ef epochFinisher
}

func (x epochFinished) FinishEpoch(from, to cfm.Slot) {
	x.f.serial.begin(x.f.nEpoch)
	x.ef.FinishEpoch(from, to)
	x.f.serial.end()
}

// The forwarder shapes: one type per capability set the workloads
// register. wrap refuses any other set rather than forward a wrong one.
type (
	// core.Partial
	shardEpochFwd struct {
		*fwd
		masked
		horizoned
		sharded
		finished
		epochSafed
		epochFinished
		stated
	}
	// cache.Protocol
	parkFwd[I any] struct {
		*fwd
		masked
		horizoned
		parked[I]
		stated
	}
	// att.Tracked and FuncTicker drivers
	serialFwd struct {
		*fwd
		masked
		horizoned
		stated
	}
	// metrics.Sampler
	phasedFwd struct {
		*fwd
		phased
		horizoned
		stated
	}
)

const (
	capsShardEpoch = capMask | capHorizon | capShard | capFinish | capEpochSafe | capEpochFinish | capState
	capsPark       = capMask | capHorizon | capPark | capState
	capsSerial     = capMask | capHorizon | capState
	capsPhased     = capPhases | capHorizon | capState
)

// newParkFwd instantiates the parking forwarder for the engine's idler
// type, which the facade does not export: it is inferred from a
// component method that takes it.
func newParkFwd[I any](_ func(*cfm.CacheProtocol, I), f *fwd, t cfm.Ticker) cfm.Ticker {
	p, ok := t.(interface{ BindIdler(I) })
	if !ok {
		return nil
	}
	return &parkFwd[I]{fwd: f, masked: masked{t.(phaseMasker)}, horizoned: horizoned{t.(cfm.Horizoner)},
		parked: parked[I]{p}, stated: stated{t.(cfm.Stater)}}
}

// wrap returns a forwarder implementing exactly the optional interfaces
// t implements, recording spans under t's layer name.
func (tr *tracer) wrap(t cfm.Ticker) (cfm.Ticker, error) {
	layer := layerOf(t)
	f := &fwd{inner: t, serial: tr.serial,
		nTick: tr.name(layer + ".tick"), nShard: tr.name(layer + ".tick_shard"),
		nFin: tr.name(layer + ".finish_shards"), nEpoch: tr.name(layer + ".finish_epoch")}
	if s, ok := t.(cfm.Shardable); ok {
		for i := 0; i < s.Shards(); i++ {
			f.shards = append(f.shards, tr.newBuf())
		}
	}
	want := capsOf(t)
	var w cfm.Ticker
	switch want {
	case capsShardEpoch:
		w = &shardEpochFwd{fwd: f, masked: masked{t.(phaseMasker)}, horizoned: horizoned{t.(cfm.Horizoner)},
			sharded: sharded{f, t.(cfm.Shardable)}, finished: finished{f, t.(shardFinisher)},
			epochSafed: epochSafed{t.(epochSafe)}, epochFinished: epochFinished{f, t.(epochFinisher)},
			stated: stated{t.(cfm.Stater)}}
	case capsPark:
		w = newParkFwd((*cfm.CacheProtocol).BindIdler, f, t)
	case capsSerial:
		w = &serialFwd{fwd: f, masked: masked{t.(phaseMasker)}, horizoned: horizoned{t.(cfm.Horizoner)},
			stated: stated{t.(cfm.Stater)}}
	case capsPhased:
		w = &phasedFwd{fwd: f, phased: phased{t.(phaseAware)}, horizoned: horizoned{t.(cfm.Horizoner)},
			stated: stated{t.(cfm.Stater)}}
	}
	if w == nil {
		return nil, fmt.Errorf("no forwarder mirrors the interfaces (%#x) of %T", want, t)
	}
	if got := capsOf(w); got != want {
		return nil, fmt.Errorf("forwarder for %T implements %#x, component %#x", t, got, want)
	}
	return w, nil
}
