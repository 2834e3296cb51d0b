package core

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"cfm/internal/flight"
	"cfm/internal/sim"
)

// TestPartialSlotBijection pins the shard-major index maps on the edge
// shapes: slotOf and procOf are inverse bijections on [0, n), slot j
// lies in its processor's contention-set block [s·m, (s+1)·m) at the
// cluster offset, and the same map sends a module-major wire port
// index to its shard-major storage index set·m + module.
func TestPartialSlotBijection(t *testing.T) {
	for _, cfg := range []PartialConfig{
		{Processors: 4, Modules: 1, BlockWords: 8, BankCycle: 2},       // Modules=1
		{Processors: 8, Modules: 8, BlockWords: 2, BankCycle: 2},       // ClusterSize=1
		{Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2},     // Fig. 3.14
		{Processors: 128, Modules: 16, BlockWords: 16, BankCycle: 2},   // Fig. 3.15
		{Processors: 4096, Modules: 512, BlockWords: 16, BankCycle: 2}, // n4096/m512
	} {
		t.Run(fmt.Sprintf("n%d_m%d", cfg.Processors, cfg.Modules), func(t *testing.T) {
			cfg.Locality, cfg.RetryMean = 1, 1
			p := NewPartial(cfg)
			n, m, cs := cfg.Processors, cfg.Modules, cfg.ClusterSize()
			seen := make([]bool, n)
			for i := 0; i < n; i++ {
				j := p.slotOf(i)
				if j < 0 || j >= n || seen[j] {
					t.Fatalf("slotOf(%d) = %d: out of range or not injective", i, j)
				}
				seen[j] = true
				if got := p.procOf(j); got != i {
					t.Fatalf("procOf(slotOf(%d)) = %d", i, got)
				}
				if want := cfg.ContentionSet(i)*m + cfg.Cluster(i); j != want {
					t.Fatalf("slotOf(%d) = %d, want set %d block offset %d = %d",
						i, j, cfg.ContentionSet(i), cfg.Cluster(i), want)
				}
			}
			for j := 0; j < n; j++ {
				if got := p.slotOf(p.procOf(j)); got != j {
					t.Fatalf("slotOf(procOf(%d)) = %d", j, got)
				}
			}
			if len(p.ports) != n {
				t.Fatalf("%d ports, want m·cs = %d", len(p.ports), n)
			}
			for mod := 0; mod < m; mod++ {
				for set := 0; set < cs; set++ {
					if got, want := p.slotOf(mod*cs+set), set*m+mod; got != want {
						t.Fatalf("wire port (%d,%d) stored at %d, want %d", mod, set, got, want)
					}
				}
			}
		})
	}
}

// TestPartialStagePadding pins the shard stage's cache-line layout: a
// field edit that leaves the size off a 64-byte multiple fails here.
func TestPartialStagePadding(t *testing.T) {
	if sz := unsafe.Sizeof(partialStage{}); sz%64 != 0 || sz == 0 {
		t.Fatalf("partialStage is %d bytes; want a nonzero multiple of the 64-byte cache line", sz)
	}
}

// idleHomesRun drives the §7.2 allocation study's overflow placement —
// a third of the jobs outside their home cluster, a quarter of the
// processors idle (home −1) — on eng with a flight recorder attached,
// and returns the recorder's digest, the counters, and the snapshot.
func idleHomesRun(t *testing.T, eng sim.Engine) (uint64, string, []byte) {
	t.Helper()
	cfg := allocConfig()
	cfg.AccessRate = 0.1
	pl, err := AllocateAffine(cfg, skewedJobs())
	if err != nil {
		t.Fatal(err)
	}
	idle := 0
	for _, h := range pl {
		if h < 0 {
			idle++
		}
	}
	if idle == 0 {
		t.Fatal("placement leaves no processor idle: the idle-slot path is untested")
	}
	cfg.Homes = pl
	p := NewPartial(cfg)
	rec := flight.NewRecorder(0)
	p.RecordFlight(rec)
	eng.Register(p)
	eng.Run(1500)
	eng.Run(1333) // a budget that is not a multiple of any episode length
	if p.Retries == 0 {
		t.Fatal("no port conflicts: the shared-port path is untested")
	}
	enc := sim.NewStateEncoder()
	p.SaveState(enc)
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	return rec.Digest(), fmt.Sprint(p.Completed, p.Retries, p.TotalLatency, p.LocalAcc, p.RemoteAcc),
		enc.Bytes()
}

// TestEquivPartialIdleHomes pins serial Clock ≡ ParallelClock on a
// placement with idle processors: flight digest, counters, and snapshot
// bytes, per slot and epoch-batched, at 1, 2 and 4 workers.
func TestEquivPartialIdleHomes(t *testing.T) {
	wantDigest, wantCounters, wantSnap := idleHomesRun(t, sim.NewClock())
	if wantDigest == flight.NewRecorder(0).Digest() {
		t.Fatal("no flight events recorded: the comparison is vacuous")
	}
	for _, w := range []int{1, 2, 4} {
		for _, k := range []int{1, sim.EpochAuto} {
			pc := sim.NewParallelClock(w)
			pc.SetEpochBatch(k)
			d, c, snap := idleHomesRun(t, pc)
			pc.Close()
			if k == sim.EpochAuto && pc.Epochs() >= pc.SlotsFired() {
				t.Fatalf("workers=%d: plan never batched (%d epochs over %d slots)", w, pc.Epochs(), pc.SlotsFired())
			}
			if d != wantDigest || c != wantCounters || !bytes.Equal(snap, wantSnap) {
				t.Fatalf("workers=%d K=%d diverged from serial:\nflight %x vs %x\ncounters %s vs %s\nsnapshot equal: %v",
					w, k, d, wantDigest, c, wantCounters, bytes.Equal(snap, wantSnap))
			}
		}
	}
}
