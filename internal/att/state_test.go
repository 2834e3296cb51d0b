package att

import (
	"fmt"
	"strings"
	"testing"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

func identity(int, int) func(memory.Block) memory.Block {
	return func(b memory.Block) memory.Block { return b }
}

// inFlightTracked returns an m=4 EarliestWins memory two slots into a
// read (P0), a plain write (P1) and a swap (P2) on the same block.
func inFlightTracked() *Tracked {
	tr := NewTracked(4, EarliestWins, nil)
	tr.SetModifyRebinder(identity)
	tr.StartRead(0, 0, 3, nil)
	tr.StartWrite(0, 1, 3, uniform(4, 7), nil)
	tr.StartSwap(0, 2, 3, identity(2, 3), nil)
	for t := sim.Slot(0); t < 2; t++ {
		tr.Tick(t, sim.PhaseTransfer)
		tr.Tick(t, sim.PhaseUpdate)
	}
	return tr
}

// loadCorrupt saves src, loads the bytes into a fresh memory, and then
// ticks it for a full operation length when the load succeeds. Any panic
// is returned as an error.
func loadCorrupt(src *Tracked) (loadErr, panicErr error) {
	enc := sim.NewStateEncoder()
	src.SaveState(enc)
	if err := enc.Err(); err != nil {
		return err, nil
	}
	dst := NewTracked(src.m, src.pri, nil)
	dst.SetModifyRebinder(identity)
	defer func() {
		if r := recover(); r != nil {
			panicErr = fmt.Errorf("panic: %v", r)
		}
	}()
	dec := sim.NewStateDecoder(enc.Bytes())
	dst.LoadState(dec)
	if err := dec.Err(); err != nil {
		return err, nil
	}
	for t := sim.Slot(2); t < sim.Slot(4*src.m); t++ {
		dst.Tick(t, sim.PhaseTransfer)
		dst.Tick(t, sim.PhaseUpdate)
	}
	return nil, nil
}

// TestLoadStateRejectsCorruptOps feeds LoadState snapshots whose
// in-flight operations or tables break the tick path's invariants: each
// must fail with a decode error, never load and panic later.
func TestLoadStateRejectsCorruptOps(t *testing.T) {
	if loadErr, panicErr := loadCorrupt(inFlightTracked()); loadErr != nil || panicErr != nil {
		t.Fatalf("uncorrupted snapshot: load %v, run %v", loadErr, panicErr)
	}
	cases := []struct {
		name    string
		corrupt func(tr *Tracked)
		want    string
	}{
		{"read buffer of one word", func(tr *Tracked) { tr.ops[0].buf = tr.ops[0].buf[:1] }, "read buffer"},
		{"read buffer missing", func(tr *Tracked) { tr.ops[0].buf = nil }, "read buffer"},
		{"read carries a write buffer", func(tr *Tracked) { tr.ops[0].writeBuf = uniform(4, 1) }, "write buffer"},
		{"read in the write phase", func(tr *Tracked) { tr.ops[0].phase = phaseWrite }, "phase"},
		{"write buffer short", func(tr *Tracked) { tr.ops[1].writeBuf = tr.ops[1].writeBuf[:3] }, "write buffer"},
		{"write carries a read buffer", func(tr *Tracked) { tr.ops[1].buf = uniform(4, 1) }, "read buffer"},
		{"write in the read phase", func(tr *Tracked) { tr.ops[1].phase = phaseRead }, "phase"},
		{"swap write phase without a write buffer", func(tr *Tracked) {
			tr.ops[2].phase, tr.ops[2].writeBuf = phaseWrite, nil
		}, "write buffer"},
		{"swap write buffer too long", func(tr *Tracked) { tr.ops[2].writeBuf = uniform(5, 1) }, "write buffer"},
		{"swap without a modify body", func(tr *Tracked) { tr.ops[2].modify = nil }, "modify"},
		{"bank count m", func(tr *Tracked) { tr.ops[0].n = 4 }, "banks done"},
		{"bank count negative", func(tr *Tracked) { tr.ops[1].n = -1 }, "banks done"},
		{"negative offset", func(tr *Tracked) { tr.ops[0].offset = -2 }, "negative offset"},
		{"ATT longer than the table", func(tr *Tracked) { tr.fill[1] = 4 }, "rows"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := inFlightTracked()
			c.corrupt(src)
			loadErr, panicErr := loadCorrupt(src)
			if panicErr != nil {
				t.Fatalf("corrupt snapshot panicked: %v", panicErr)
			}
			if loadErr == nil {
				t.Fatal("corrupt snapshot loaded without error")
			}
			if !strings.Contains(loadErr.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", loadErr, c.want)
			}
		})
	}
}
