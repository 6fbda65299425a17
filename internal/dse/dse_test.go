package dse

import (
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// fig15Spec is the Fig 15 workload: the SOR kernel over a ~14.4M-point
// NDRange. KM = 96096 = 2^5·3·7·11·13 planes, so every lane count in
// 1..16 divides the global size and all sweep variants are reshape-legal.
func fig15Spec(lanes int) kernels.SORSpec {
	return kernels.SORSpec{IM: 15, JM: 10, KM: 96096, Lanes: lanes}
}

var (
	fixOnce sync.Once
	fixMdl  *costmodel.Model
	fixBW   *membw.Model
	fixErr  error
)

func fixtures(t testing.TB) (*costmodel.Model, *membw.Model) {
	t.Helper()
	fixOnce.Do(func() {
		tgt := device.GSD8Edu()
		fixMdl, fixErr = costmodel.Calibrate(tgt)
		if fixErr != nil {
			return
		}
		fixBW, fixErr = membw.Build(tgt)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixMdl, fixBW
}

func sorBuilder(lanes int) (*tir.Module, error) { return fig15Spec(lanes).Module() }

// testEvaluator builds the production evaluator over a one-entry shelf
// holding mdl's target, settled in cfg.Models (a fresh ModelCache when
// nil) with the given models, so nothing is calibrated again. Tests
// that need a seam (estimateFn, the measurer's exec or inputs) set it
// on the result before the first point is evaluated.
func testEvaluator(t testing.TB, mdl *costmodel.Model, bw *membw.Model, cfg EvalConfig) *evaluator {
	t.Helper()
	cfg.Shelf = []*device.Target{mdl.Target}
	if cfg.Models == nil {
		cfg.Models = NewModelCache()
	}
	if err := cfg.Models.Add(mdl.Target, mdl, bw); err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// testEval is testEvaluator with no seam set, as NewEvaluator returns it.
func testEval(t testing.TB, mdl *costmodel.Model, bw *membw.Model, cfg EvalConfig) Evaluator {
	t.Helper()
	return testEvaluator(t, mdl, bw, cfg).eval
}

// sorEval is the evaluator most engine tests share: the Fig 15 SOR
// family at NKI=10 under form B, scored by the model on the fixtures
// target.
func sorEval(t testing.TB) Evaluator {
	t.Helper()
	mdl, bw := fixtures(t)
	return testEval(t, mdl, bw, EvalConfig{Build: sorBuilder, Workload: perf.Workload{NKI: 10}, Form: perf.FormB})
}

// sweepLanes is the one-axis exhaustive lanes exploration through the
// engine, converted to the Sweep shape the frozen legacy
// implementation returns.
func sweepLanes(t testing.TB, mdl *costmodel.Model, bw *membw.Model, build VariantBuilder,
	lanes []int, w perf.Workload, form perf.Form) (*Sweep, error) {
	t.Helper()
	space, err := NewSpace(LanesAxis(lanes))
	if err != nil {
		return nil, err
	}
	ev := testEval(t, mdl, bw, EvalConfig{Build: build, Workload: w, Form: form})
	res, err := NewEngine(space, ev, 0).Run(Exhaustive{})
	if err != nil {
		return nil, err
	}
	return res.Sweep(form)
}

func sweep(t *testing.T, form perf.Form) *Sweep {
	t.Helper()
	mdl, bw := fixtures(t)
	sw, err := sweepLanes(t, mdl, bw, sorBuilder, LaneCounts(16), perf.Workload{NKI: 10}, form)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestFig15Walls(t *testing.T) {
	// The Fig 15 narrative: in form A the host-communication wall is hit
	// around 4 lanes; in form B it moves out and the DRAM wall appears
	// around 16; the computation wall (out of LUTs) is at ~6 lanes.
	a := sweep(t, perf.FormA)
	b := sweep(t, perf.FormB)

	if a.HostWall < 3 || a.HostWall > 5 {
		t.Errorf("form A host wall at %d lanes, paper reports ~4", a.HostWall)
	}
	if a.ComputeWall < 5 || a.ComputeWall > 7 {
		t.Errorf("compute wall at %d lanes, paper reports 6", a.ComputeWall)
	}
	if b.HostWall != 0 && b.HostWall <= 8 {
		t.Errorf("form B host wall at %d lanes, should move out past the form A wall", b.HostWall)
	}
	if b.DRAMWall < 12 || b.DRAMWall > 17 {
		if b.DRAMWall == 0 {
			t.Error("form B never hits the DRAM wall within 16 lanes; paper reports ~16")
		} else {
			t.Errorf("form B DRAM wall at %d lanes, paper reports ~16", b.DRAMWall)
		}
	}
	// The limiting resource at the compute wall is LUTs, as in the paper.
	p := a.Points[a.ComputeWall-1]
	if _, name := p.Est.Used.MaxUtilisation(p.Est.Target.Capacity); name != "ALUTs" {
		t.Errorf("compute wall limited by %s, paper reports LUTs", name)
	}
}

func TestFig15ThroughputShape(t *testing.T) {
	// EKIT grows with lanes while compute-bound, then saturates once a
	// bandwidth wall is hit.
	b := sweep(t, perf.FormB)
	if b.Points[1].EKIT <= b.Points[0].EKIT {
		t.Error("EKIT did not grow from 1 to 2 lanes")
	}
	if b.Points[3].EKIT <= b.Points[1].EKIT {
		t.Error("EKIT did not grow from 2 to 4 lanes")
	}
	last, prev := b.Points[15], b.Points[14]
	if gain := last.EKIT / prev.EKIT; gain > 1.2 {
		t.Errorf("EKIT still scaling %.2fx at the 16-lane wall", gain)
	}
}

func TestFig15UtilisationGrowth(t *testing.T) {
	b := sweep(t, perf.FormB)
	for i := 1; i < len(b.Points); i++ {
		if b.Points[i].UtilALUT <= b.Points[i-1].UtilALUT {
			t.Errorf("ALUT utilisation not increasing at %d lanes", b.Points[i].Lanes)
		}
		if b.Points[i].UtilGMemBW <= b.Points[i-1].UtilGMemBW {
			t.Errorf("DRAM-BW utilisation not increasing at %d lanes", b.Points[i].Lanes)
		}
	}
	// Some resources stay underutilised at the wall — the paper's
	// resource-balancing observation.
	wallPoint := b.Points[5]
	if wallPoint.UtilDSP > 0.5 || wallPoint.UtilBRAM > 0.5 {
		t.Errorf("DSP (%.2f) and BRAM (%.2f) should be underutilised at the compute wall",
			wallPoint.UtilDSP, wallPoint.UtilBRAM)
	}
}

func TestBestVariantSelection(t *testing.T) {
	// The selected variant must fit and carry the highest EKIT among
	// fitting points — for form A that is at or before the host wall.
	a := sweep(t, perf.FormA)
	if a.Best == nil {
		t.Fatal("no best variant selected")
	}
	if !a.Best.Fits {
		t.Error("best variant does not fit the device")
	}
	for _, p := range a.Points {
		if p.Fits && p.EKIT > a.Best.EKIT {
			t.Errorf("point at %d lanes beats the selected best", p.Lanes)
		}
	}
	if a.Best.Lanes > 6 {
		t.Errorf("form A best at %d lanes; should not pay for lanes past the walls", a.Best.Lanes)
	}
}

func TestSweepErrors(t *testing.T) {
	mdl, bw := fixtures(t)
	if _, err := sweepLanes(t, mdl, bw, sorBuilder, nil, perf.Workload{NKI: 10}, perf.FormA); err == nil {
		t.Error("empty lane list accepted")
	}
	bad := func(lanes int) (*tir.Module, error) {
		return kernels.SORSpec{IM: 0, JM: 0, KM: 0, Lanes: lanes}.Module()
	}
	if _, err := sweepLanes(t, mdl, bw, bad, []int{1}, perf.Workload{NKI: 10}, perf.FormA); err == nil {
		t.Error("broken builder accepted")
	}
}

func TestLaneCountHelpers(t *testing.T) {
	if got := LaneCounts(4); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("LaneCounts(4) = %v", got)
	}
	if got := DivisorLaneCounts(12, 8); len(got) != 5 { // 1 2 3 4 6
		t.Errorf("DivisorLaneCounts(12, 8) = %v", got)
	}
}
