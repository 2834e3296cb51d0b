// Golden pins for core.Partial's externally visible byte streams: the
// checkpoint bytes of the Fig. 3.14 partial CFM at a fixed cut, and the
// flight-recorder digest of the same shape. Partial's in-memory layout
// is free to change; these bytes are not — a layout change must pass
// both pins without regenerating them. Regenerate only after an
// INTENTIONAL format change (which also bumps cfm.CheckpointVersion):
//
//	go test -run TestPartialGolden -update-golden .
package cfm_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"cfm"
)

const (
	partialGoldenPath       = "testdata/partial_golden.cfm"
	partialFlightGoldenPath = "testdata/partial_flight_golden.txt"
	// partialGoldenCut lands mid-run, with accesses in flight, waiting on
	// a busy port, and queued in backlogs.
	partialGoldenCut = 777
)

// partialGoldenCase returns the PartialFig314 resume scenario (metrics
// registry attached, so the snapshot also pins the staged-delta folds).
func partialGoldenCase(t *testing.T) resumeCase {
	t.Helper()
	for _, rc := range resumeCases() {
		if rc.name == "PartialFig314" {
			return rc
		}
	}
	t.Fatal("PartialFig314 scenario missing from resumeCases")
	return resumeCase{}
}

// writeOrCompareGolden rewrites path under -update-golden, else reports
// whether got matches the committed bytes.
func writeOrCompareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes drifted from %s (%d vs %d bytes): Partial's wire or event order changed",
			path, len(got), len(want))
	}
}

// TestPartialGoldenSnapshot pins the snapshot bytes from both engines,
// and restores the golden into a working engine whose completed run
// matches the uninterrupted oracle.
func TestPartialGoldenSnapshot(t *testing.T) {
	rc := partialGoldenCase(t)
	got := checkpointAt(t, rc, func() cfm.Engine { return cfm.NewClock() }, partialGoldenCut)
	writeOrCompareGolden(t, partialGoldenPath, got)
	par := checkpointAt(t, rc, func() cfm.Engine { return cfm.NewParallelClock(2) }, partialGoldenCut)
	if !bytes.Equal(par, got) {
		t.Fatalf("parallel-engine snapshot differs from serial (%d vs %d bytes)", len(par), len(got))
	}
	want, _ := resumeOracle(rc)
	restoreAndFinish(t, rc, func() cfm.Engine { return cfm.NewClock() }, got, partialGoldenCut, want)
}

// partialFlightDigest runs the Fig. 3.14 shape with the flight recorder
// on and returns "<events> <digest>".
func partialFlightDigest(eng cfm.Engine) string {
	p := cfm.NewPartial(cfm.PartialConfig{
		Processors: 64, Modules: 8, BlockWords: 16, BankCycle: 2,
		Locality: 0.9, AccessRate: 0.1, RetryMean: 4, Seed: 314})
	rec := cfm.NewFlightRecorder(0)
	p.RecordFlight(rec)
	eng.Register(p)
	eng.Run(1500)
	return fmt.Sprintf("%d %016x\n", len(rec.Events()), rec.Digest())
}

// TestPartialGoldenFlight pins the flight-event order (processor IDs,
// stages, slot-major shard order) from the serial and the epoch-batched
// parallel engine.
func TestPartialGoldenFlight(t *testing.T) {
	got := partialFlightDigest(cfm.NewClock())
	if strings.HasPrefix(got, "0 ") {
		t.Fatal("scenario recorded no flight events; the pin is vacuous")
	}
	writeOrCompareGolden(t, partialFlightGoldenPath, []byte(got))
	pc := cfm.NewParallelClock(2)
	defer pc.Close()
	if par := partialFlightDigest(pc); par != got {
		t.Fatalf("parallel flight digest %q, serial %q", par, got)
	}
}
