package att

import (
	"fmt"

	"cfm/internal/memory"
	"cfm/internal/sim"
)

// Lock values stored in word 0 of a lock block.
const (
	lockFree   memory.Word = 0
	lockLocked memory.Word = 1
)

// lockState is one processor's position in the §4.2.2 busy-waiting
// protocol:
//
//	lock(int *s) { while (swap(1, s)) while (*s); }
//	unlock(int *s) { *s = 0; }
type lockState int

const (
	lockIdle     lockState = iota // no interest in the lock
	lockSwapping                  // atomic swap in flight
	lockSpinning                  // waiting to issue the next spin read
	lockReading                   // a spin read is in flight
	lockHolding                   // lock held
	lockUnlock                    // release requested or release write in flight
)

// Locker coordinates spin locks over a Tracked memory (which must be in
// EarliestWins mode, as atomic swap requires). Because the CFM is
// conflict-free, the busy-waiting loop creates no memory or network
// contention and no hot spot: spinning processors read their AT-space
// divisions without delaying the holder's release (§4.2.2).
// It implements sim.Ticker; register it on the same clock as the Tracked
// memory, BEFORE it, so requests issued in PhaseIssue are served in the
// same slot's PhaseTransfer.
//
//cfm:no-stater spin automata re-issue from scratch each slot; quiesce (no holders or waiters) before checkpointing
type Locker struct {
	tr     *Tracked
	offset int // block holding the lock variable
	state  []lockState
	want   []bool
	// Per-processor completion callbacks and the all-free release block,
	// built once so issuing allocates nothing.
	swapDone, spinDone, unlockDone []func(Result)
	free                           memory.Block
	// OnAcquire, if set, is invoked when a processor obtains the lock.
	OnAcquire func(p int, t sim.Slot)

	// Acquisitions counts successful lock grants.
	Acquisitions int64
	// SwapAttempts counts protocol-level swap attempts (not ATT restarts).
	SwapAttempts int64
}

// NewLocker builds a lock manager for the lock block at offset.
func NewLocker(tr *Tracked, offset int) *Locker {
	if tr.Priority() != EarliestWins {
		panic("att: Locker requires EarliestWins mode")
	}
	n := tr.Banks()
	l := &Locker{
		tr:         tr,
		offset:     offset,
		state:      make([]lockState, n),
		want:       make([]bool, n),
		swapDone:   make([]func(Result), n),
		spinDone:   make([]func(Result), n),
		unlockDone: make([]func(Result), n),
		free:       make(memory.Block, n),
	}
	for p := 0; p < n; p++ {
		l.swapDone[p] = func(r Result) { l.swapped(p, r) }
		l.spinDone[p] = func(r Result) { l.spun(p, r) }
		l.unlockDone[p] = func(r Result) { l.unlocked(p, r) }
	}
	return l
}

// Request registers processor p's desire for the lock. The acquisition
// happens asynchronously as the simulation runs.
func (l *Locker) Request(p int) { l.want[p] = true }

// Holding reports whether p currently holds the lock.
func (l *Locker) Holding(p int) bool { return l.state[p] == lockHolding }

// Release starts the unlock write for processor p, which must hold the
// lock. The lock is observable as free once the write completes.
func (l *Locker) Release(p int) {
	if l.state[p] != lockHolding {
		panic(fmt.Sprintf("att: P%d released a lock it does not hold", p))
	}
	l.state[p] = lockUnlock
}

// Tick implements sim.Ticker, advancing each processor's protocol
// automaton during PhaseIssue.
func (l *Locker) Tick(t sim.Slot, ph sim.Phase) {
	if ph != sim.PhaseIssue {
		return
	}
	for p := range l.state {
		if l.tr.Busy(p) {
			continue
		}
		switch l.state[p] {
		case lockIdle:
			if l.want[p] {
				l.startSwap(t, p)
			}
		case lockSpinning:
			l.startSpinRead(t, p)
		case lockUnlock:
			l.startUnlock(t, p)
		}
	}
}

// PhaseMask implements sim.PhaseMasker.
func (l *Locker) PhaseMask() sim.PhaseMask { return sim.MaskOf(sim.PhaseIssue) }

// startSwap issues swap(LOCKED, s): store the locked value, observe the
// old one.
func (l *Locker) startSwap(t sim.Slot, p int) {
	l.state[p] = lockSwapping
	l.SwapAttempts++
	l.tr.StartSwap(t, p, l.offset, lockBlock, l.swapDone[p])
}

// lockBlock is the swap's modify body: the block with LOCKED stored.
func lockBlock(old memory.Block) memory.Block {
	old[0] = lockLocked
	return old
}

// swapped completes p's swap.
func (l *Locker) swapped(p int, r Result) {
	if r.Block[0] == lockFree {
		// The swap observed a free lock and stored LOCKED: acquired.
		l.state[p] = lockHolding
		l.want[p] = false
		l.Acquisitions++
		if l.OnAcquire != nil {
			l.OnAcquire(p, r.At)
		}
		return
	}
	// Someone holds it: spin-read until it reads free (while(*s);).
	l.state[p] = lockSpinning
}

// startSpinRead issues one read of the lock block; observing a free lock
// sends the processor back to retry the swap.
func (l *Locker) startSpinRead(t sim.Slot, p int) {
	l.state[p] = lockReading
	l.tr.StartRead(t, p, l.offset, l.spinDone[p])
}

// spun completes p's spin read.
func (l *Locker) spun(p int, r Result) {
	if r.Block[0] == lockFree {
		l.state[p] = lockIdle // retry the swap next tick
	} else {
		l.state[p] = lockSpinning // keep spinning
	}
}

// startUnlock performs the release: a plain write of a free lock block.
// The write has priority over the spinning reads, so the release is not
// delayed by the busy-waiting processors (§4.2.2). State stays lockUnlock
// while the write is in flight (Busy gates re-issue); an aborted release
// (possible only if the application writes the lock block directly)
// leaves the state at lockUnlock so the next tick retries.
func (l *Locker) startUnlock(t sim.Slot, p int) {
	l.tr.StartWrite(t, p, l.offset, l.free, l.unlockDone[p])
}

// unlocked completes p's release write.
func (l *Locker) unlocked(p int, r Result) {
	if r.Outcome == Completed {
		l.state[p] = lockIdle
	}
}
