//cfm:concurrency-ok the debug HTTP listener serves observers on a host thread; it only reads atomic snapshots
package metrics

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
)

// ServeStatus starts a live observability endpoint on addr (e.g. ":8080"):
//
//	/metrics       Prometheus text exposition of reg's current state
//	/healthz       liveness probe ("ok")
//	/statusz       engine progress JSON (slot, fired/skipped, workers)
//	/debug/vars    expvar JSON
//	/debug/pprof/  CPU/heap/goroutine profiles (net/http/pprof)
//
// It listens immediately (so a ":0" addr gets its real port resolved in
// the returned server's Addr) and serves in a background goroutine, so
// long simulations can be profiled while running. Callers should
// srv.Close() when done. The handlers snapshot the registry per request;
// concurrent simulation writes are safe (atomics / mutexes).
//
// sv is the engine status source and may be nil. When it is non-nil,
// /statusz reports its readings and /metrics appends the
// engine_slots_skipped_total, engine_jumps_total,
// engine_barrier_crossings_total and engine_epochs_total counters at
// scrape time (they are stamped into the exposition, never into reg, so
// the registry digest stays independent of the skip-ahead schedule and
// of the engine's synchronization strategy).
func ServeStatus(addr string, reg *Registry, sv *StatusVar) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler(reg, sv)}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}

// Handler returns the observability endpoint's HTTP handler (exposed
// separately from ServeStatus so tests can drive it without a listener).
func Handler(reg *Registry, sv *StatusVar) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		snap := reg.Snapshot()
		if sv != nil {
			st := sv.Status()
			snap.Counters = append(snap.Counters,
				NameValue{Name: "engine_barrier_crossings_total", Value: st.BarrierCrossings},
				NameValue{Name: "engine_epochs_total", Value: st.Epochs},
				NameValue{Name: "engine_jumps_total", Value: st.Jumps},
				NameValue{Name: "engine_slots_skipped_total", Value: st.SlotsSkipped})
			sort.Slice(snap.Counters, func(i, j int) bool {
				return snap.Counters[i].Name < snap.Counters[j].Name
			})
		}
		_ = WritePrometheus(w, snap)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var st Status
		if sv != nil {
			st = sv.Status()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
