// Golden pin for att.Tracked's checkpoint bytes. The in-memory layout of
// the ATTs and the in-flight operations is free to change; the snapshot
// bytes are not — a layout change must pass this pin without
// regenerating it. Regenerate only after an INTENTIONAL format change
// (which also bumps sim.CheckpointVersion):
//
//	go test ./internal/att/ -run TestATTGoldenSnapshot -update-golden
package att

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"cfm/internal/flight"
	"cfm/internal/memory"
	"cfm/internal/metrics"
	"cfm/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/att_golden.cfm from the current snapshot bytes")

const (
	attGoldenPath = "testdata/att_golden.cfm"
	attGoldenM    = 8
	// attGoldenEarlyCut lands before the tables have shifted m−1 times,
	// so every bank's ATT is still partly filled.
	attGoldenEarlyCut = 5
	// attGoldenMidCut lands mid-run with a read, a plain write past its
	// first bank, and swaps in both phases all in flight.
	attGoldenMidCut = 137
	// The driver stops issuing at attGoldenIssueUntil; the run then
	// drains to attGoldenEnd.
	attGoldenIssueUntil = 300
	attGoldenEnd        = 400
)

// attGoldenRun is one seeded read/write/swap mix on an EarliestWins
// tracked memory with a trace, a registry and a (wrapping) flight
// recorder attached, so the snapshot also pins their sections.
type attGoldenRun struct {
	eng   sim.Engine
	tr    *Tracked
	trace *sim.Trace
	reg   *metrics.Registry
	rec   *flight.Recorder
	sum   uint64 // FNV-1a fold of every delivered Result
}

// goldenModify is the swap body for (proc, offset): deterministic, so the
// rebinder rebuilds it exactly.
func goldenModify(proc, offset int) func(memory.Block) memory.Block {
	return func(b memory.Block) memory.Block {
		b[0]++
		b[1+proc%(len(b)-1)] += memory.Word(offset + 1)
		return b
	}
}

func (g *attGoldenRun) fold(v uint64) {
	for i := 0; i < 8; i++ {
		g.sum ^= v & 0xff
		g.sum *= 1099511628211
		v >>= 8
	}
}

// done returns the completion callback for one operation; the rebinder
// rebuilds it from the same identity.
func (g *attGoldenRun) done(proc int, kind OpKind, offset int, issued sim.Slot) func(Result) {
	return func(r Result) {
		g.fold(uint64(proc))
		g.fold(uint64(kind))
		g.fold(uint64(offset))
		g.fold(uint64(issued))
		g.fold(uint64(r.Outcome))
		g.fold(uint64(r.Restarts))
		g.fold(uint64(r.At))
		g.fold(uint64(len(r.Block)))
		for _, w := range r.Block {
			g.fold(uint64(w))
		}
	}
}

func buildATTGolden(eng sim.Engine) *attGoldenRun {
	g := &attGoldenRun{eng: eng, trace: sim.NewTrace(), reg: metrics.New(),
		rec: flight.NewRecorder(64), sum: 14695981039346656037}
	g.tr = NewTracked(attGoldenM, EarliestWins, g.trace)
	g.tr.Instrument(g.reg)
	g.tr.RecordFlight(g.rec)
	g.tr.SetDoneRebinder(g.done)
	g.tr.SetModifyRebinder(goldenModify)
	rng := sim.NewRNG(1414)
	eng.Register(&sim.FuncTicker{
		Phases: sim.MaskOf(sim.PhaseIssue),
		OnTick: func(t sim.Slot, _ sim.Phase) {
			if t >= attGoldenIssueUntil {
				return
			}
			for p := 0; p < attGoldenM; p++ {
				if g.tr.Busy(p) || !rng.Bernoulli(0.6) {
					continue
				}
				k, off := rng.Intn(10), rng.Intn(3)
				switch {
				case k < 4:
					g.tr.StartRead(t, p, off, g.done(p, OpRead, off, t))
				case k < 7:
					blk := make(memory.Block, attGoldenM)
					for i := range blk {
						blk[i] = memory.Word(int(t)*16 + p)
					}
					g.tr.StartWrite(t, p, off, blk, g.done(p, OpWrite, off, t))
				default:
					g.tr.StartSwap(t, p, off, goldenModify(p, off), g.done(p, OpSwap, off, t))
				}
			}
		},
		Save: func(enc *sim.StateEncoder) {
			enc.RNG(rng)
			enc.U64(g.sum)
		},
		Load: func(dec *sim.StateDecoder) {
			dec.RNG(rng)
			g.sum = dec.U64()
		},
	})
	eng.Register(g.tr)
	eng.AttachState("trace", g.trace)
	eng.AttachState("metrics", g.reg)
	eng.AttachState("flight", g.rec)
	return g
}

// digest summarizes every observable of the run.
func (g *attGoldenRun) digest() string {
	s := fmt.Sprintf("now=%d sum=%016x w=%d a=%d r=%d s=%d re=%d trace=%016x reg=%016x flt=%016x",
		g.eng.Now(), g.sum, g.tr.CompletedWrites, g.tr.AbortedWrites, g.tr.CompletedReads,
		g.tr.CompletedSwaps, g.tr.Restarts, g.trace.Digest(), g.reg.Snapshot().Digest(), g.rec.Digest())
	for off := 0; off < 3; off++ {
		s += fmt.Sprint(" ", g.tr.PeekBlock(off))
	}
	return s
}

func (g *attGoldenRun) checkpoint(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.eng.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint at slot %d: %v", g.eng.Now(), err)
	}
	return buf.Bytes()
}

// requireMidCutInFlight checks that the mid-run cut exercises what it
// claims to: a read, a plain write that has inserted its ATT entry, and
// swaps in their read and write phases, all in flight.
func requireMidCutInFlight(t *testing.T, tr *Tracked) {
	t.Helper()
	var read, write, swapRead, swapWrite bool
	for _, o := range tr.ops {
		switch {
		case o == nil:
		case o.kind == OpRead:
			read = true
		case o.kind == OpWrite && o.n > 0:
			write = true
		case o.kind == OpSwap && o.phase == phaseWrite:
			swapWrite = true
		case o.kind == OpSwap:
			swapRead = true
		}
	}
	if !read || !write || !swapRead || !swapWrite {
		t.Fatalf("slot %d: in flight read=%v write=%v swap-read=%v swap-write=%v; the mid-run cut no longer covers them all",
			attGoldenMidCut, read, write, swapRead, swapWrite)
	}
}

// TestATTGoldenSnapshot pins the snapshot bytes at a partly-filled cut
// and at a mid-run cut (the golden file is the two snapshots back to
// back), and restores each into a fresh engine whose completed run
// matches the uninterrupted one.
func TestATTGoldenSnapshot(t *testing.T) {
	oracle := buildATTGolden(sim.NewClock())
	oracle.eng.Run(attGoldenEnd)
	want := oracle.digest()
	if oracle.tr.CompletedSwaps == 0 || oracle.tr.AbortedWrites == 0 || oracle.tr.Restarts == 0 {
		t.Fatalf("mix exercised too little: %s", want)
	}

	src := buildATTGolden(sim.NewClock())
	src.eng.Run(attGoldenEarlyCut)
	early := src.checkpoint(t)
	src.eng.Run(attGoldenMidCut - attGoldenEarlyCut)
	requireMidCutInFlight(t, src.tr)
	mid := src.checkpoint(t)
	src.eng.Run(attGoldenEnd - attGoldenMidCut)
	if got := src.digest(); got != want {
		t.Fatalf("checkpointing perturbed the run:\noracle %s\ngot    %s", want, got)
	}

	got := append(append([]byte(nil), early...), mid...)
	if *updateGolden {
		if err := os.WriteFile(attGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", attGoldenPath, len(got))
	} else {
		golden, err := os.ReadFile(attGoldenPath)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatalf("bytes drifted from %s (%d vs %d bytes): Tracked's wire format changed",
				attGoldenPath, len(got), len(golden))
		}
	}

	for _, c := range []struct {
		cut  sim.Slot
		ckpt []byte
	}{{attGoldenEarlyCut, early}, {attGoldenMidCut, mid}} {
		var g *attGoldenRun
		eng, err := sim.Restore(bytes.NewReader(c.ckpt), func() sim.Engine {
			g = buildATTGolden(sim.NewClock())
			return g.eng
		})
		if err != nil {
			t.Fatalf("restore at slot %d: %v", c.cut, err)
		}
		if eng.Now() != c.cut {
			t.Fatalf("restored at slot %d, cut at %d", eng.Now(), c.cut)
		}
		eng.Run(attGoldenEnd - int64(c.cut))
		if got := g.digest(); got != want {
			t.Fatalf("resumed run (cut at slot %d) diverged:\noracle  %s\nresumed %s", c.cut, want, got)
		}
	}
}
