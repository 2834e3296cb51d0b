package flight

import (
	"cfm/internal/sim"
	"cfm/internal/stats"
)

// Latency attribution: assemble raw stage events into per-access spans
// and decompose each span's end-to-end latency into the paper's three
// terms — queueing, service, and network transit. The paper's central
// claim is about the first term: a conflict-free memory eliminates
// bank-conflict queueing, so its accesses should decompose into
// network + fixed service with a zero queue component, while the
// conventional design's queue term grows without bound as the access
// rate approaches saturation (§3.4, Figs. 3.13–3.15).

// Span is one access's events, in stream (and therefore slot) order.
type Span struct {
	ID     uint64
	Events []Event
}

// Spans groups an event stream by access ID, preserving first-seen
// order — deterministic for a deterministic stream, no map iteration.
func Spans(events []Event) []Span {
	index := make(map[uint64]int, len(events))
	var spans []Span
	for _, ev := range events {
		i, ok := index[ev.ID]
		if !ok {
			i = len(spans)
			index[ev.ID] = i
			spans = append(spans, Span{ID: ev.ID})
		}
		spans[i].Events = append(spans[i].Events, ev)
	}
	return spans
}

// Breakdown is one span's latency decomposition.
type Breakdown struct {
	ID     uint64
	Issue  sim.Slot // slot of the opening stage (issue or net-inject)
	Retire sim.Slot // slot of the closing retire
	// Total = Retire − Issue. Queue = Total − Service − Network: the
	// slots spent neither in transit nor being served — module busy
	// waits, retry backoffs, ATT defers, cache retries.
	Total, Queue, Service, Network int64
	Retries                        int64 // bank-enqueue + ATT defer/retry + cache-miss repeats
	Complete                       bool  // span has both an opening stage and a retire
}

// Decompose attributes one span's latency. Attribution rules:
//
//   - network: one slot per hop and per inject (transit is one column
//     per slot in every modeled network);
//   - service: the Arg of each bank-service stage when positive (the
//     component knows its service time), else one slot per visit;
//   - queue: the remainder — everything the access spent waiting.
//
// Spans without an opening stage or a retire (truncated by the ring,
// or still in flight) report Complete=false and only count structure.
func Decompose(sp Span) Breakdown {
	bd := Breakdown{ID: sp.ID}
	opened, retired := false, false
	for _, ev := range sp.Events {
		switch ev.Stage {
		case StageIssue, StageNetInject:
			if !opened {
				bd.Issue = ev.Slot
				opened = true
			}
		case StageHop:
			bd.Network++
		case StageBankService:
			if ev.Arg > 0 {
				bd.Service += ev.Arg
			} else {
				bd.Service++
			}
		case StageBankEnqueue, StageATTDefer, StageATTRetry, StageCacheMiss:
			bd.Retries++
		case StageRetire:
			bd.Retire = ev.Slot
			retired = true
		}
	}
	if opened && retired && bd.Retire >= bd.Issue {
		bd.Complete = true
		bd.Total = int64(bd.Retire - bd.Issue)
		bd.Queue = bd.Total - bd.Service - bd.Network
		if bd.Queue < 0 {
			bd.Queue = 0
		}
	}
	return bd
}

// DecomposeAll assembles spans and decomposes the complete ones.
func DecomposeAll(events []Event) []Breakdown {
	var out []Breakdown
	for _, sp := range Spans(events) {
		if bd := Decompose(sp); bd.Complete {
			out = append(out, bd)
		}
	}
	return out
}

// TermSummary summarizes one latency term across spans.
type TermSummary struct {
	N             int64
	Mean          float64
	P50, P95, P99 int64
}

// summarizeTerm builds a histogram of one term and reads its quantiles
// via stats.Percentile.
func summarizeTerm(bds []Breakdown, term func(Breakdown) int64) TermSummary {
	h := stats.NewHistogram(1)
	sum := int64(0)
	for _, bd := range bds {
		v := term(bd)
		h.Add(int(v))
		sum += v
	}
	ts := TermSummary{N: h.Total()}
	if ts.N == 0 {
		return ts
	}
	ts.Mean = float64(sum) / float64(ts.N)
	ts.P50 = int64(stats.Percentile(h, 50))
	ts.P95 = int64(stats.Percentile(h, 95))
	ts.P99 = int64(stats.Percentile(h, 99))
	return ts
}

// Attribution is the per-design decomposition summary behind the
// `cfmsim efficiency` queueing-delay table.
type Attribution struct {
	Spans                          int64
	Queue, Service, Network, Total TermSummary
}

// Attribute summarizes the decomposition of every complete span.
func Attribute(events []Event) Attribution {
	bds := DecomposeAll(events)
	return Attribution{
		Spans:   int64(len(bds)),
		Queue:   summarizeTerm(bds, func(b Breakdown) int64 { return b.Queue }),
		Service: summarizeTerm(bds, func(b Breakdown) int64 { return b.Service }),
		Network: summarizeTerm(bds, func(b Breakdown) int64 { return b.Network }),
		Total:   summarizeTerm(bds, func(b Breakdown) int64 { return b.Total }),
	}
}
