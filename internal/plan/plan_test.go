package plan

import (
	"testing"

	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/linalg"
)

func testDevice(t testing.TB) *device.Device {
	t.Helper()
	p := device.TestParams(12, 3, 2)
	p.NE = 12
	p.Nomega = 3
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// testCal is a synthetic steady-state calibration with a deliberately
// expensive reduction: the latency the pipelined schedule exists to
// hide. Deterministic, so the model assertions below are exact.
func testCal() Calibration {
	return Calibration{
		BCColdNs: 500, BCWarmNs: 10, ElNs: 100,
		PhBCColdNs: 300, PhBCWarmNs: 10, PhNs: 60,
		TileNs: 400, MiscNs: 50, ReduceNs: 800,
		// Cheap transport: the bottleneck is the reduction latency, not
		// exchange bandwidth, so the window has something to hide.
		CopyNsPerByte: 1e-4,
	}
}

// TestPredictOrdering pins the structural claims of the cost model on a
// multi-worker candidate set: overlapping within an iteration beats the
// serial phases baseline, and pipelining across iterations beats
// overlap by hiding the reduction tail behind the next window's solves.
func TestPredictOrdering(t *testing.T) {
	p := testDevice(t).P
	cal := testCal()
	phases := Predict(p, 4, cal, Candidate{Schedule: dist.SchedulePhases, Workers: 1})
	overlap := Predict(p, 4, cal, Candidate{Schedule: dist.ScheduleOverlap, Workers: 4})
	pipe := Predict(p, 4, cal, Candidate{Schedule: dist.SchedulePipeline, Workers: 4, PipelineDepth: 3})
	if !(phases > overlap) {
		t.Errorf("phases %.0f should exceed overlap %.0f", phases, overlap)
	}
	if !(overlap > pipe) {
		t.Errorf("overlap %.0f should exceed pipeline %.0f", overlap, pipe)
	}
	// A depth-1 window is the overlapped graph plus a fence — identical
	// model, identical prediction.
	pipe1 := Predict(p, 4, cal, Candidate{Schedule: dist.SchedulePipeline, Workers: 4, PipelineDepth: 1})
	if pipe1 != overlap {
		t.Errorf("depth-1 pipeline %.0f != overlap %.0f", pipe1, overlap)
	}
	// More workers never hurt in virtual time.
	o1 := Predict(p, 4, cal, Candidate{Schedule: dist.ScheduleOverlap, Workers: 1})
	if o1 < overlap {
		t.Errorf("1 worker %.0f predicted faster than 4 workers %.0f", o1, overlap)
	}
}

func TestCandidates(t *testing.T) {
	o, err := Options{Ranks: 4}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cands := Candidates(o)
	// phases + 3 worker counts for overlap + 3×2 for pipeline.
	if len(cands) != 1+3+6 {
		t.Fatalf("got %d candidates: %+v", len(cands), cands)
	}
	if cands[0].Schedule != dist.SchedulePhases {
		t.Errorf("first candidate should be the phases baseline, got %+v", cands[0])
	}
	if _, err := (Options{}).normalize(); err == nil {
		t.Error("Ranks 0 must be rejected")
	}
}

// TestChooseArgmin runs the full selection against the synthetic
// calibration (no probe) and checks the pick is the true argmin of the
// enumerated predictions — the acceptance property of the autotuner.
func TestChooseArgmin(t *testing.T) {
	dev := testDevice(t)
	o, err := Options{Ranks: 4}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cal := testCal()
	got, err := chooseWith(dev, o, cal)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for i, c := range Candidates(o) {
		if ns := Predict(dev.P, o.Ranks, cal, c); i == 0 || ns < best {
			best = ns
		}
	}
	if got.PredictedNs > best*1.01 {
		t.Errorf("chose %.0f ns (%+v), argmin is %.0f ns", got.PredictedNs, got.Candidate, best)
	}
	if got.Schedule != dist.SchedulePipeline {
		t.Errorf("the reduce-heavy calibration should pick the pipeline, got %v", got.Schedule)
	}
	if got.Blocking == (linalg.BlockSizes{}) {
		t.Error("no blocking chosen")
	}
}

// TestChooseTieBreak: with a free reduction and free communication the
// schedules tie per-iteration at 1 worker, and the tie must resolve to
// the simplest candidate — the phases baseline.
func TestChooseTieBreak(t *testing.T) {
	dev := testDevice(t)
	o, err := Options{Ranks: 1, Workers: []int{1}, Depths: []int{2}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibration{BCWarmNs: 10, ElNs: 100, PhBCWarmNs: 10, PhNs: 60, TileNs: 400}
	got, err := chooseWith(dev, o, cal)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schedule != dist.SchedulePhases {
		t.Errorf("tie should keep the phases baseline, got %v", got.Schedule)
	}
}

// TestCalibrate runs the real probe on the test device and sanity-checks
// the measured calibration: every steady-state cost positive, the cold
// boundary solve at least as expensive as the warm lookup.
func TestCalibrate(t *testing.T) {
	cal, err := Calibrate(testDevice(t))
	if err != nil {
		t.Fatal(err)
	}
	if cal.ElNs <= 0 || cal.PhNs <= 0 || cal.TileNs <= 0 || cal.ReduceNs <= 0 {
		t.Fatalf("incomplete calibration: %+v", cal)
	}
	if cal.BCColdNs < cal.BCWarmNs {
		t.Errorf("cold BC %.0f ns cheaper than warm %.0f ns", cal.BCColdNs, cal.BCWarmNs)
	}
	if cal.CopyNsPerByte <= 0 {
		t.Errorf("no copy bandwidth measured")
	}
	if cal.ProbeNs <= 0 {
		t.Errorf("no probe wall time")
	}
}

func TestChooseBlocking(t *testing.T) {
	dev := testDevice(t)
	defer linalg.ResetBlocking()
	bl, err := ChooseBlocking(dev, []linalg.BlockSizes{linalg.DefaultBlocking(), {MC: 64, KC: 64, NC: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if err := linalg.SetBlocking(bl); err != nil {
		t.Fatalf("chosen blocking %+v is not admissible: %v", bl, err)
	}
	if _, err := ChooseBlocking(dev, []linalg.BlockSizes{{MC: 1, KC: 0, NC: 0}}); err == nil {
		t.Error("inadmissible candidate must surface an error")
	}
}

// TestChooseBlockingDirectRouteKeepsDefault: on a device whose blocks
// multiply on the direct kernel the blocking has nothing to tune, so
// ChooseBlocking returns the default even when it is not among the
// candidates, rather than the winner of a noise-level timing.
func TestChooseBlockingDirectRouteKeepsDefault(t *testing.T) {
	dev := testDevice(t)
	n := 0
	for _, s := range dev.Hamiltonian(0).Sizes {
		n = max(n, s)
	}
	if !linalg.DirectRoute(n, n, n) {
		t.Skipf("%d×%d blocks do not take the direct kernel on this CPU", n, n)
	}
	defer linalg.ResetBlocking()
	bl, err := ChooseBlocking(dev, []linalg.BlockSizes{{MC: 2, KC: 1, NC: 8}, {MC: 64, KC: 64, NC: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if bl != linalg.DefaultBlocking() {
		t.Errorf("blocking %+v chosen for %d×%d direct-route blocks, want the default %+v", bl, n, n, linalg.DefaultBlocking())
	}
}
