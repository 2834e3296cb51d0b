// Command cfmbench is the repository's benchmark: it runs one named
// workload through the cfm facade, measures host time for a fixed wall
// window, checks the simulated results against a serial-Clock oracle and
// the workload's own invariants, and prints every metric by name and
// unit, then one JSON result line.
//
//	cfmbench --workload partial_fig314 --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 additionally runs a
// traced copy of the fleet over the same chunk schedule and prints the
// per-layer metrics. perfbench/README.md records why each workload and
// metric was chosen.
package main

//cfm:wallclock-ok the benchmark measures host time; no clock reading reaches simulation state

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	w      *workload
	seed   uint64
	window time.Duration
	trace  bool
	// setups is how many times the fleet is set up; setup_s is the
	// median and the last fleet is the one timed.
	setups int
	// warmupScale shrinks warm-up (and so set-up) for smoke tests.
	warmupScale float64
	// corruptOracle flips the oracle digest: a seeded defect the
	// correctness check must count as a failed operation.
	corruptOracle bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1: also run the traced fleet and print per-layer metrics")
		root    = flag.String("root", ".", "root of the cfm source tree (for the host stamp)")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "cfmbench: need --workload {%s}, --seconds >= 1, --trace 0|1\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	stamp, err := json.Marshal(hostStamp(*root, *name, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfmbench:", err)
		os.Exit(1)
	}
	fmt.Printf("host %s\n", stamp)
	res, err := run(config{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, setups: 5, warmupScale: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfmbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "cfmbench:", err)
		os.Exit(1)
	}
}

func printResult(out io.Writer, res result) error {
	bw := bufio.NewWriter(out)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// hostStamp identifies the host and the code a result came from. The
// checkout may not be a git repository, so "commit" is a digest of the
// tree's Go sources and module files.
func hostStamp(root, workload string, seed uint64) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     treeDigest(root),
		"workload":   workload,
		"seed":       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func treeDigest(root string) string {
	h := fnv.New64a()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-%016x", h.Sum64())
}

// window is one timed run of a fleet: a sequence of fixed-size chunks.
type window struct {
	chunks   int
	slots    int64
	ops      int64
	rates    []float64 // slots per host second, per chunk
	nsPerOp  []float64 // host ns per completed operation, per chunk
	mid      int       // chunk after which the saturation guard sampled (-1: none)
	midBytes int64
	endBytes int64
}

const minChunks = 8

// runWindow runs chunks until dur has elapsed (fixed == 0) or exactly
// fixed chunks, sampling checkpoint size after chunk mid and at the end
// when guard is set (outside the timing).
func runWindow(f *fleet, w *workload, dur time.Duration, fixed, mid int, guard bool) (window, error) {
	// Preallocated so the loop itself does not allocate inside the
	// allocation count.
	win := window{mid: -1, rates: make([]float64, 0, 1<<14), nsPerOp: make([]float64, 0, 1<<14)}
	start := time.Now()
	for i := 0; ; i++ {
		if fixed > 0 {
			if i == fixed {
				break
			}
		} else if i >= minChunks && time.Since(start) >= dur {
			break
		}
		ops0 := f.ops()
		t0 := time.Now()
		if f.beforeChunk != nil {
			f.beforeChunk(i)
		}
		f.eng.Run(w.chunk)
		if f.afterChunk != nil {
			f.afterChunk(i)
		}
		dt := time.Since(t0)
		ops := f.ops() - ops0
		win.chunks++
		win.slots += w.chunk
		win.ops += ops
		win.rates = append(win.rates, float64(w.chunk)/dt.Seconds())
		if ops > 0 {
			win.nsPerOp = append(win.nsPerOp, float64(dt.Nanoseconds())/float64(ops))
		}
		if guard && win.mid < 0 && ((fixed > 0 && i == mid) || (fixed == 0 && time.Since(start) >= dur/2)) {
			n, err := checkpointSize(f)
			if err != nil {
				return win, err
			}
			win.mid, win.midBytes = i, n
		}
	}
	if guard {
		n, err := checkpointSize(f)
		if err != nil {
			return win, err
		}
		win.endBytes = n
	}
	return win, nil
}

func checkpointSize(f *fleet) (int64, error) {
	cw := &countingWriter{w: io.Discard}
	err := f.eng.Checkpoint(cw)
	return cw.n, err
}

// checks counts correctness checks; every failure is also an entry of
// the failures list printed to stderr.
type checks struct {
	attempted, failed int64
	failures          []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) noErr(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.failures = append(c.failures, err.Error())
	}
}

// setUp builds and warms the fleet cfg.setups times, returning the last
// fleet and the median set-up time.
func setUp(cfg config, o buildOpts) (*fleet, float64) {
	var times []float64
	var f *fleet
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		f = cfg.w.buildFleet(o)
		f.eng.Run(cfg.warmup())
		times = append(times, time.Since(t0).Seconds())
	}
	return f, median(times)
}

func (cfg config) warmup() int64 {
	n := int64(float64(cfg.w.warmup) * cfg.warmupScale)
	if n < 1 {
		n = 1
	}
	return n
}

func run(cfg config) (result, error) {
	var ck checks
	m := map[string]float64{}
	base := buildOpts{seed: cfg.seed}
	guard := cfg.w.openLoop

	runtime.GC()
	f, setup := setUp(cfg, base)
	defer f.close()
	m["setup_s"] = setup

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	win, err := runWindow(f, cfg.w, cfg.window, 0, 0, guard)
	if err != nil {
		return result{}, fmt.Errorf("%s: timed window: %w", cfg.w.name, err)
	}
	runtime.ReadMemStats(&ms1)
	m["slots_per_s"] = median(win.rates)
	m["ns_per_access"] = median(win.nsPerOp)
	m["ns_per_access_p90"] = quantile(win.nsPerOp, 0.9)
	m["window.chunks"] = float64(win.chunks)
	m["allocs_per_slot"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(win.slots)
	win.rates, win.nsPerOp = nil, nil // the heap figure is the fleet's, not the harness's
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m["heap_mb"] = float64(ms1.HeapAlloc) / (1 << 20)
	ck.expect(win.ops > 0, "%s: no operation completed in the timed window", cfg.w.name)

	// Saturation guard: a bounded backlog keeps the snapshot size flat.
	if guard {
		ck.expect(win.endBytes <= win.midBytes+win.midBytes/10+1024,
			"%s: backlog grew across the window: checkpoint %d bytes at chunk %d, %d at the end",
			cfg.w.name, win.midBytes, win.mid, win.endBytes)
	}
	digest := f.digest()
	crossings := f.crossings()
	total := cfg.warmup() + win.slots

	// Oracle: the same workload and seed on the serial Clock, untimed.
	oracle := cfg.w.buildFleet(buildOpts{seed: cfg.seed, oracle: true})
	oracle.eng.Run(total)
	want := oracle.digest()
	if cfg.corruptOracle {
		want ^= 1
	}
	ck.expect(digest == want, "%s: digest %016x differs from the serial oracle's %016x", cfg.w.name, digest, want)

	if f.modelErr != nil {
		e := f.modelErr()
		m["model_err"] = e
		ck.expect(e <= modelErrBand, "%s: model error %.4f outside the band %.2f", cfg.w.name, e, modelErrBand)
	}
	restoreCheck(&ck, cfg, f, base, total, digest)

	if cfg.trace {
		if err := traced(&ck, cfg, m, win, digest, crossings); err != nil {
			return result{}, err
		}
	}

	// Closed loops: drain, then check the workload's invariants.
	var overdue int64
	if f.overdue != nil {
		overdue = f.overdue()
	}
	if f.settle != nil {
		ck.noErr(f.settle())
		ck.noErr(f.check())
	}

	attempted := win.ops + ck.attempted
	failed := overdue + ck.failed
	m["ops_failed_frac"] = ratio(failed, attempted)
	for _, s := range ck.failures {
		fmt.Fprintln(os.Stderr, "cfmbench: FAIL", s)
	}
	if overdue > 0 {
		fmt.Fprintf(os.Stderr, "cfmbench: FAIL %s: %d operations outstanding past %d slots\n", cfg.w.name, overdue, opBudgetSlots)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return res, nil
}

// restoreCheck restores the fleet's last periodic checkpoint into a
// freshly built fleet, runs it to the end of the window, and compares
// digests with the uninterrupted run.
func restoreCheck(ck *checks, cfg config, f *fleet, o buildOpts, total int64, digest uint64) {
	if f.lastCkpt == nil {
		return
	}
	g := cfg.w.buildFleet(o)
	defer g.close()
	if err := g.eng.Restore(bytes.NewReader(f.lastCkpt)); err != nil {
		ck.noErr(fmt.Errorf("%s: restore: %w", cfg.w.name, err))
		return
	}
	g.eng.Run(total - int64(f.lastCkptSlot))
	got := g.digest()
	ck.expect(got == digest, "%s: restored continuation digest %016x differs from the uninterrupted run's %016x",
		cfg.w.name, got, digest)
}

// traced builds a traced copy of the fleet, replays the untraced
// window's chunk schedule on it, checks that it simulated exactly the
// same thing, and derives the per-layer metrics from its spans.
func traced(ck *checks, cfg config, m map[string]float64, win window, digest uint64, crossings int64) error {
	tr := newTracer()
	o := buildOpts{seed: cfg.seed, tr: tr}
	f := cfg.w.buildFleet(o)
	defer f.close()
	ck.noErr(tr.err) // a component no forwarder mirrors exactly
	f.eng.Run(cfg.warmup())
	tr.reset()
	cross0 := f.crossings()
	runtime.GC()
	twin, err := runWindow(f, cfg.w, 0, win.chunks, win.mid, win.mid >= 0)
	if err != nil {
		return fmt.Errorf("%s: traced window: %w", cfg.w.name, err)
	}
	tdigest := f.digest()
	ck.expect(tdigest == digest, "%s: traced digest %016x differs from the untraced run's %016x", cfg.w.name, tdigest, digest)
	tcross := f.crossings()
	ck.expect(tcross == crossings, "%s: traced run crossed %d barriers, untraced %d", cfg.w.name, tcross, crossings)
	if f.layer != nil {
		f.layer(m)
	}
	p := tr.profile()
	restoreCheck(ck, cfg, f, o, cfg.warmup()+twin.slots, tdigest)
	restoreNs := tr.profile().total["sim.restore"]
	slots := float64(twin.slots)
	m["trace.slots_per_s"] = median(twin.rates)
	if u := m["slots_per_s"]; u > 0 {
		m["trace.overhead_frac"] = 1 - m["trace.slots_per_s"]/u
	}
	m["sim.barrier_crossings_per_slot"] = float64(tcross-cross0) / slots
	// Engine self time per worker: the run's wall time on each engine
	// thread minus the component spans inside it, averaged over threads.
	workers := 1.0
	if tcross > 0 {
		workers = float64(runtime.GOMAXPROCS(0))
	}
	run := float64(p.total["sim.run"])
	self := (workers*run - float64(p.childNs["sim.run"])) / workers
	m["sim.self_ns_per_slot"] = self / slots
	m["sim.self_share"] = safeDiv(self, run)
	core := p.total["core.tick"] + p.total["core.tick_shard"] + p.total["core.finish_shards"] + p.total["core.finish_epoch"]
	m["core.tick_ns_per_slot"] = float64(core) / slots
	m["core.fold_share"] = safeDiv(float64(p.total["core.finish_shards"]+p.total["core.finish_epoch"]), float64(core))
	m["cache.tick_ns_per_slot"] = float64(p.total["cache.tick"]) / slots
	m["cache.issue_ns_per_op"] = perCall(p, "cache.issue")
	m["att.tick_ns_per_slot"] = float64(p.total["att.tick"]) / slots
	m["att.issue_ns_per_op"] = perCall(p, "att.issue")
	m["workload.next_ns_per_call"] = perCall(p, "workload.next")
	m["metrics.sampler_ns_per_sample"] = perCall(p, "metrics.sample")
	m["metrics.export_ns"] = perCall(p, "metrics.export")
	m["flight.attribute_ns_per_event"] = safeDiv(float64(p.total["flight.attribute"]), m["flight.events_attributed"])
	m["sim.checkpoint_mb_per_s"] = safeDiv(float64(tr.ckptBytes)/(1<<20), float64(p.total["sim.checkpoint"])/1e9)
	m["sim.restore_mb_per_s"] = safeDiv(float64(tr.restoreBytes)/(1<<20), float64(restoreNs)/1e9)
	m["sim.checkpoint_bytes"] = float64(tr.lastCkptBytes)
	return nil
}

func perCall(p profile, name string) float64 {
	return safeDiv(float64(p.total[name]), float64(p.count[name]))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
