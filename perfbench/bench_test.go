package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"cfm"
)

func smokeConfig(w *workload, trace bool) config {
	return config{w: w, seed: 7, window: 150 * time.Millisecond, trace: trace, setups: 1, warmupScale: 0.05}
}

// TestSmokeEveryWorkload runs every workload briefly, untraced and
// traced, and checks that it is correct and prints every named metric
// with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(smokeConfig(w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.name, err)
			}
			for _, d := range defs {
				mv, ok := last.Metrics[d.name]
				if !ok || mv.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w.name, trace, d.name, mv.Unit, d.unit)
				}
				if !strings.Contains(out.String(), "metric "+d.name+" ") {
					t.Errorf("%s trace=%v: metric %s not printed by name", w.name, trace, d.name)
				}
				if !trace && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, mv.Value)
				}
			}
		}
	}
}

// TestSeededSlowdownIsFlagged injects a benchmark-side delay ticker that
// slows the fleet by 20% and checks that the host-time metrics report it
// as worse than their bound, while the simulation stays the same. The
// two fleets run alternate chunks, so host noise hits both alike.
func TestSeededSlowdownIsFlagged(t *testing.T) {
	w, _ := workloadByName("coherence_mix")
	base := w.buildFleet(buildOpts{seed: 3})
	slow := w.buildFleet(buildOpts{seed: 3, slowdown: 0.2})
	fleets := []*fleet{base, slow}
	var rates, nsPerOp [2][]float64
	for _, f := range fleets {
		f.eng.Run(w.warmup / 10)
	}
	for i := 0; i < 60; i++ {
		for k, f := range fleets {
			ops0 := f.ops()
			t0 := time.Now()
			f.eng.Run(w.chunk)
			dt := time.Since(t0)
			rates[k] = append(rates[k], float64(w.chunk)/dt.Seconds())
			nsPerOp[k] = append(nsPerOp[k], float64(dt.Nanoseconds())/float64(f.ops()-ops0))
		}
	}
	if base.digest() != slow.digest() {
		t.Fatal("the delay ticker changed the simulation")
	}
	for _, d := range endToEnd {
		var got float64
		switch d.name {
		case "slots_per_s":
			got = worseBy(d, median(rates[0]), median(rates[1]))
		case "ns_per_access":
			got = worseBy(d, median(nsPerOp[0]), median(nsPerOp[1]))
		default:
			continue
		}
		t.Logf("%s: seeded 20%% slowdown reads %.3f worse (bound %.2f)", d.name, got, d.bound)
		if got <= d.bound {
			t.Errorf("%s: seeded 20%% slowdown reads %.3f worse, not beyond the bound %.2f", d.name, got, d.bound)
		}
	}
}

// TestCorruptedOracleCountsAsFailure flips the oracle digest and checks
// that the run reports a failed operation.
func TestCorruptedOracleCountsAsFailure(t *testing.T) {
	w, _ := workloadByName("partial_fig314")
	cfg := smokeConfig(w, true)
	cfg.corruptOracle = true
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Metrics["ops_failed_frac"].Value <= 0 {
		t.Fatalf("corrupted oracle: correct=%v failed=%d ops_failed_frac=%v, want one failure",
			res.Correct, res.Failed, res.Metrics["ops_failed_frac"].Value)
	}
}

// TestForwardersMirrorInterfaces checks that the traced run's forwarder
// for every registered component type implements exactly the optional
// engine interfaces of the component, and that an unknown interface set
// is refused rather than forwarded wrongly.
func TestForwardersMirrorInterfaces(t *testing.T) {
	tr := newTracer()
	reg := cfm.NewRegistry()
	for _, c := range []cfm.Ticker{
		cfm.NewPartial(cfm.PartialConfig{Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
			Locality: 0.9, AccessRate: 0.03, RetryMean: 4, Seed: 1}),
		cfm.NewCacheProtocol(cfm.CacheConfig{Processors: 4, Lines: 2, RetryDelay: 1}, nil),
		cfm.NewTracked(4, cfm.EarliestWins, nil),
		cfm.NewSampler(reg, 8),
		&cfm.FuncTicker{},
	} {
		f, err := tr.wrap(c)
		if err != nil {
			t.Fatalf("%T: %v", c, err)
		}
		if capsOf(f) != capsOf(c) {
			t.Errorf("%T: forwarder caps %#x, component %#x", c, capsOf(f), capsOf(c))
		}
	}
	mem := cfm.NewMemory(cfm.Config{Processors: 4, BankCycle: 2, WordWidth: 16}, nil)
	if _, err := tr.wrap(mem); err == nil {
		t.Errorf("%T: wrap accepted an interface set it has no forwarder for", mem)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the workload and metric tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, benchmark %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the benchmark %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}
