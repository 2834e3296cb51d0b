package att

import (
	"fmt"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// SetDoneRebinder installs the hook used by LoadState to reconstruct the
// completion callbacks of in-flight operations. Callbacks are code, not
// data: a checkpoint records only that an operation had one, and the
// harness that owns the callbacks must rebuild them from the operation's
// identity. Restoring an operation whose snapshot says it had a done
// callback fails loudly when no rebinder is installed.
func (tr *Tracked) SetDoneRebinder(f func(proc int, kind OpKind, offset int, issued sim.Slot) func(Result)) {
	tr.doneRebind = f
}

// SetModifyRebinder installs the matching hook for the modify body of an
// in-flight swap.
func (tr *Tracked) SetModifyRebinder(f func(proc, offset int) func(memory.Block) memory.Block) {
	tr.modifyRebind = f
}

func saveEntry(enc *sim.StateEncoder, e entry) {
	enc.Bool(e.valid)
	enc.Int(e.offset)
	enc.Bool(e.swap)
}

func loadEntry(dec *sim.StateDecoder) entry {
	return entry{valid: dec.Bool(), offset: dec.Int(), swap: dec.Bool()}
}

// SaveState implements sim.Stater for the tracked memory: every bank,
// every ATT row (youngest first), this slot's pending insertions, the
// in-flight operations, and the statistics with their registry-flush
// watermarks.
func (tr *Tracked) SaveState(enc *sim.StateEncoder) {
	for _, bk := range tr.banks {
		bk.SaveState(enc)
	}
	l := tr.m - 1
	for b := 0; b < tr.m; b++ {
		q := tr.rows[b*l : (b+1)*l]
		enc.Int(tr.fill[b])
		for i := 0; i < tr.fill[b]; i++ {
			saveEntry(enc, q[(tr.head+i)%l])
		}
	}
	for b := range tr.pending {
		saveEntry(enc, tr.pending[b])
	}
	for p, o := range tr.ops {
		enc.Bool(o != nil)
		if o == nil {
			continue
		}
		if o.done != nil && tr.doneRebind == nil {
			enc.Failf("att: P%d's in-flight %v carries a completion callback but no rebinder is installed (SetDoneRebinder)", p, o.kind)
			return
		}
		if o.modify != nil && tr.modifyRebind == nil {
			enc.Failf("att: P%d's in-flight swap carries a modify body but no rebinder is installed (SetModifyRebinder)", p)
			return
		}
		enc.Int(int(o.kind))
		enc.Int(o.offset)
		enc.Slot(o.started)
		enc.Slot(o.issued)
		enc.Int(int(o.phase))
		enc.Int(o.n)
		enc.Bool(o.passed0)
		memory.SaveBlock(enc, o.buf)
		memory.SaveBlock(enc, o.writeBuf)
		enc.Int(o.restarts)
		enc.Bool(o.modify != nil)
		enc.Bool(o.done != nil)
	}
	enc.I64(tr.CompletedWrites)
	enc.I64(tr.AbortedWrites)
	enc.I64(tr.CompletedReads)
	enc.I64(tr.CompletedSwaps)
	enc.I64(tr.Restarts)
	enc.I64(tr.mWrites)
	enc.I64(tr.mAborts)
	enc.I64(tr.mReads)
	enc.I64(tr.mSwaps)
	enc.I64(tr.mRestarts)
}

// LoadState implements sim.Stater. Each ATT is laid out youngest first
// from ring index 0 (head 0), and the live counts are rebuilt from the
// rows. In-flight operations are validated against the shapes the tick
// path relies on, so a corrupt snapshot fails here instead of panicking
// later.
func (tr *Tracked) LoadState(dec *sim.StateDecoder) {
	for _, bk := range tr.banks {
		bk.LoadState(dec)
		if dec.Err() != nil {
			return
		}
	}
	l := tr.m - 1
	tr.head = 0
	for b := 0; b < tr.m; b++ {
		n := dec.Count()
		if dec.Err() != nil {
			return
		}
		if n > l {
			dec.Failf("att: snapshot ATT %d has %d rows, table holds %d", b, n, l)
			return
		}
		q := tr.rows[b*l : (b+1)*l]
		clear(q)
		tr.fill[b], tr.live[b] = n, 0
		for i := 0; i < n; i++ {
			q[i] = loadEntry(dec)
			if q[i].valid {
				tr.live[b]++
			}
		}
	}
	for b := range tr.pending {
		tr.pending[b] = loadEntry(dec)
	}
	for p := range tr.ops {
		tr.ops[p] = nil
		if !dec.Bool() {
			continue
		}
		o := &tr.slab[p]
		*o = op{proc: p}
		k := dec.Int()
		if dec.Err() != nil {
			return
		}
		if k < int(OpWrite) || k > int(OpSwap) {
			dec.Failf("att: invalid operation kind %d", k)
			return
		}
		o.kind = OpKind(k)
		o.offset = dec.Int()
		o.started = dec.Slot()
		o.issued = dec.Slot()
		ph := dec.Int()
		if dec.Err() != nil {
			return
		}
		if ph < int(phaseWrite) || ph > int(phaseRead) {
			dec.Failf("att: invalid operation phase %d", ph)
			return
		}
		o.phase = opPhase(ph)
		o.n = dec.Int()
		o.passed0 = dec.Bool()
		o.buf = memory.LoadBlock(dec)
		o.writeBuf = memory.LoadBlock(dec)
		o.restarts = dec.Int()
		hasModify := dec.Bool()
		hasDone := dec.Bool()
		if dec.Err() != nil {
			return
		}
		if err := tr.checkOp(o, hasModify); err != nil {
			dec.Failf("att: P%d's snapshot %v: %v", p, o.kind, err)
			return
		}
		if hasModify {
			if tr.modifyRebind == nil {
				dec.Failf("att: P%d's snapshot swap needs a modify rebinder (SetModifyRebinder)", p)
				return
			}
			o.modify = tr.modifyRebind(p, o.offset)
			if o.modify == nil {
				dec.Failf("att: modify rebinder returned nil for P%d", p)
				return
			}
		}
		if hasDone {
			if tr.doneRebind == nil {
				dec.Failf("att: P%d's snapshot %v needs a done rebinder (SetDoneRebinder)", p, o.kind)
				return
			}
			o.done = tr.doneRebind(p, o.kind, o.offset, o.issued)
			if o.done == nil {
				dec.Failf("att: done rebinder returned nil for P%d", p)
				return
			}
		}
		tr.ops[p] = o
	}
	tr.CompletedWrites = dec.I64()
	tr.AbortedWrites = dec.I64()
	tr.CompletedReads = dec.I64()
	tr.CompletedSwaps = dec.I64()
	tr.Restarts = dec.I64()
	tr.mWrites = dec.I64()
	tr.mAborts = dec.I64()
	tr.mReads = dec.I64()
	tr.mSwaps = dec.I64()
	tr.mRestarts = dec.I64()
}

// checkOp checks a restored in-flight operation against the invariants
// the tick path indexes by: a read or swap carries an m-word read buffer
// and a write none; a write, and a swap in its write phase, carry an
// m-word write buffer; a read carries none, and a swap back in its read
// phase may still hold the previous attempt's. A write never reads, a
// read never writes, and only a swap has a modify body. The bank count
// n lies in [0, m) and the offset is a word offset (non-negative).
func (tr *Tracked) checkOp(o *op, hasModify bool) error {
	m := tr.m
	wantBuf := m
	if o.kind == OpWrite {
		wantBuf = 0
	}
	switch {
	case o.offset < 0:
		return fmt.Errorf("negative offset %d", o.offset)
	case o.n < 0 || o.n >= m:
		return fmt.Errorf("%d banks done, want [0, %d)", o.n, m)
	case o.kind == OpRead && o.phase != phaseRead, o.kind == OpWrite && o.phase != phaseWrite:
		return fmt.Errorf("in phase %d", o.phase)
	case hasModify != (o.kind == OpSwap):
		return fmt.Errorf("modify body present %v", hasModify)
	case len(o.buf) != wantBuf:
		return fmt.Errorf("read buffer of %d words, want %d", len(o.buf), wantBuf)
	}
	switch l := len(o.writeBuf); {
	case o.phase == phaseWrite && l != m:
		return fmt.Errorf("write buffer of %d words, want %d", l, m)
	case o.kind == OpRead && l != 0:
		return fmt.Errorf("write buffer of %d words, want none", l)
	case o.kind == OpSwap && l != 0 && l != m:
		return fmt.Errorf("write buffer of %d words, want 0 or %d", l, m)
	}
	return nil
}
