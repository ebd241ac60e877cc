package negf

import (
	"testing"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/obs"
)

// TestPrepareBCMatchesInSolvePath warms the boundary cache through the
// standalone prepare methods and checks the point solves (a) hit the
// cache instead of recomputing and (b) produce bitwise the results of the
// unwarmed path.
func TestPrepareBCMatchesInSolvePath(t *testing.T) {
	p := device.TestParams(9, 3, 2)
	p.NE = 4
	p.Nomega = 2
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}

	cold := NewPointSolver(dev, bc.CacheBC)
	warm := NewPointSolver(dev, bc.CacheBC)
	h := dev.Hamiltonian(0)
	phi := dev.Dynamical(0)

	if err := warm.PrepareElectronBC(h, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := warm.PreparePhononBC(phi, 0, 1); err != nil {
		t.Fatal(err)
	}
	if hits, misses := warm.BC.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("after prepare: hits=%d misses=%d, want 0/4", hits, misses)
	}

	rw, err := warm.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := warm.BC.Stats(); hits != 2 {
		t.Fatalf("electron solve should hit both warmed contacts, hits=%d", hits)
	}
	if rw.CurrentL != rc.CurrentL || rw.CurrentR != rc.CurrentR {
		t.Fatalf("warmed electron solve differs: %v vs %v", rw.CurrentL, rc.CurrentL)
	}

	pw, err := warm.SolvePhononPoint(phi, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := cold.SolvePhononPoint(phi, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := warm.BC.Stats(); hits != 4 {
		t.Fatalf("phonon solve should hit both warmed contacts, hits=%d", hits)
	}
	if pw.EnergyContactL != pc.EnergyContactL {
		t.Fatalf("warmed phonon solve differs: %v vs %v", pw.EnergyContactL, pc.EnergyContactL)
	}
}

// TestPrepareBCTracesColdSpan checks that a traced prepare records the
// decimation as the point's first bc span, ahead of the solve's cache hit:
// a trace reader keying cold/warm on first occurrence (plan.Calibrate)
// then sees the boundary computed, not looked up.
func TestPrepareBCTracesColdSpan(t *testing.T) {
	p := device.TestParams(9, 3, 2)
	p.NE = 4
	p.Nomega = 2
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPointSolver(dev, bc.CacheBC)
	ps.Trace = obs.NewTracer()
	h, phi := dev.Hamiltonian(0), dev.Dynamical(0)
	spans := func(name string) []obs.Span {
		var out []obs.Span
		for _, sp := range ps.Trace.Trace().Spans {
			if sp.Cat == "bc" && sp.Name == name && sp.I == 0 && sp.J == 1 {
				out = append(out, sp)
			}
		}
		return out
	}

	if err := ps.PrepareElectronBC(h, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := ps.PreparePhononBC(phi, 0, 1); err != nil {
		t.Fatal(err)
	}
	if n, m := len(spans("bc/el")), len(spans("bc/ph")); n != 1 || m != 1 {
		t.Fatalf("prepare recorded %d bc/el and %d bc/ph spans, want 1 each", n, m)
	}
	if _, err := ps.SolveElectronPoint(h, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SolvePhononPoint(phi, 0, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bc/el", "bc/ph"} {
		sp := spans(name)
		if len(sp) != 2 {
			t.Fatalf("%s: %d spans after prepare and solve, want 2", name, len(sp))
		}
		if sp[0].Start+sp[0].Dur > sp[1].Start {
			t.Errorf("%s: the prepare span does not come first: %+v then %+v", name, sp[0], sp[1])
		}
	}
	if hits, misses := ps.BC.Stats(); hits != 4 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want the prepares to miss and the solves to hit (4/4)", hits, misses)
	}
}
