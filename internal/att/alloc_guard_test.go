package att

import (
	"testing"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// TestTrackedAllocFree guards the zero-allocation steady state of the
// tracked memory: ring-buffer ATTs, per-processor operation slots and
// buffers, and trace formatting behind Enabled mean a read/write stream
// with no trace and no callbacks runs without touching the heap.
func TestTrackedAllocFree(t *testing.T) {
	const m = 8
	tr := NewTracked(m, LatestWins, nil)
	clk := sim.NewClock()
	data := make(memory.Block, m)
	var issued int
	clk.Register(&sim.FuncTicker{
		Phases: sim.MaskOf(sim.PhaseIssue),
		OnTick: func(t sim.Slot, _ sim.Phase) {
			for p := 0; p < m; p++ {
				if tr.Busy(p) {
					continue
				}
				issued++
				if issued%2 == 0 {
					data[0] = memory.Word(issued)
					tr.StartWrite(t, p, issued%3, data, nil)
				} else {
					tr.StartRead(t, p, issued%3, nil)
				}
			}
		},
	})
	clk.Register(tr)
	finished := func() int64 { return tr.CompletedReads + tr.CompletedWrites + tr.AbortedWrites }
	clk.Run(400) // warm-up: touch every bank page the stream uses
	before := finished()
	if avg := testing.AllocsPerRun(20, func() { clk.Run(200) }); avg != 0 {
		t.Fatalf("tracked memory allocates %v times per 200-slot burst, want 0", avg)
	}
	if finished()-before < 100 {
		t.Fatalf("only %d operations finished during the bursts: guard is vacuous", finished()-before)
	}
	if tr.Restarts == 0 || tr.AbortedWrites == 0 {
		t.Fatalf("stream never conflicted (restarts %d, aborts %d): the ATT compare path is unexercised",
			tr.Restarts, tr.AbortedWrites)
	}
}
