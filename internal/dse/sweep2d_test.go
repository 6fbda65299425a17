package dse

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/membw"
	"repro/internal/perf"
)

// sweepGrid is the lanes × DV grid of the Fig 5 design space: thread
// parallelism (lanes, the C1/C2 region) against medium-grained
// vectorisation per lane (DV, the C3 region). It is the shape the
// frozen legacySweepLanesDV returns; sweepLanesDV builds it from an
// engine result.
type sweepGrid struct {
	Form perf.Form
	// Points[i][j] is the variant with Lanes[i] lanes at DVs[j] ways.
	Lanes  []int
	DVs    []int
	Points [][]Point
	// Best is the highest-EKIT fitting point, or nil.
	Best *Point
}

// sweepLanesDV evaluates every (lanes, dv) combination through the
// engine and converts the result to the legacy grid. Unlike the
// legacy serial implementation, every point also carries its
// bandwidth utilisation fractions.
func sweepLanesDV(t testing.TB, mdl *costmodel.Model, bw *membw.Model, build VariantBuilder,
	lanes, dvs []int, w perf.Workload, form perf.Form) (*sweepGrid, error) {
	t.Helper()
	space, err := NewSpace(LanesAxis(lanes), DVAxis(dvs))
	if err != nil {
		return nil, err
	}
	ev := testEval(t, mdl, bw, EvalConfig{Build: build, Workload: w, Form: form})
	res, err := NewEngine(space, ev, 0).Run(Exhaustive{})
	if err != nil {
		return nil, err
	}
	return resultGrid(res, form)
}

// resultGrid converts a result over lanes×dv axes into the grid,
// rows in lanes-axis order and columns in dv-axis order. Every other
// axis must be single-valued (Slice first otherwise).
func resultGrid(r *Result, form perf.Form) (*sweepGrid, error) {
	li, ok := r.Space.AxisIndex(AxisLanes)
	if !ok {
		return nil, fmt.Errorf("dse: result has no lanes axis")
	}
	di, ok := r.Space.AxisIndex(AxisDV)
	if !ok {
		return nil, fmt.Errorf("dse: result has no dv axis")
	}
	if err := r.singleValuedExcept(li, di); err != nil {
		return nil, err
	}
	lanesAxis, dvAxis := r.Space.Axes()[li], r.Space.Axes()[di]
	sw := &sweepGrid{Form: form, Lanes: lanesAxis.Values, DVs: dvAxis.Values}
	grid := make(map[[2]int]*Point, len(r.Points))
	for i, v := range r.Variants {
		grid[[2]int{v[li], v[di]}] = r.Points[i]
	}
	for vi := range lanesAxis.Values {
		row := make([]Point, 0, len(dvAxis.Values))
		for dj := range dvAxis.Values {
			p := grid[[2]int{vi, dj}]
			if p == nil {
				return nil, fmt.Errorf("dse: point lanes=%d dv=%d not evaluated",
					lanesAxis.Values[vi], dvAxis.Values[dj])
			}
			row = append(row, *p)
			if p.Fits && (sw.Best == nil || p.EKIT > sw.Best.EKIT) {
				best := *p
				sw.Best = &best
			}
		}
		sw.Points = append(sw.Points, row)
	}
	return sw, nil
}

func sweep2d(t *testing.T, form perf.Form) *sweepGrid {
	t.Helper()
	mdl, bw := fixtures(t)
	sw, err := sweepLanesDV(t, mdl, bw, sorBuilder, []int{1, 2, 4}, []int{1, 2, 4},
		perf.Workload{NKI: 10}, form)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestVectorisationSharesControl(t *testing.T) {
	// At the same work-items/cycle, (1 lane, DV=4) must cost less logic
	// than (4 lanes, DV=1): the vectorised lane shares stream control
	// and offset windows.
	sw := sweep2d(t, perf.FormC)
	lane1dv4 := sw.Points[0][2]
	lane4dv1 := sw.Points[2][0]
	if lane1dv4.Est.Used.ALUTs >= lane4dv1.Est.Used.ALUTs {
		t.Errorf("DV=4 (%d ALUTs) should undercut 4 lanes (%d ALUTs)",
			lane1dv4.Est.Used.ALUTs, lane4dv1.Est.Used.ALUTs)
	}
	// BRAM gap is starker: one window instead of four.
	if lane1dv4.Est.Used.BRAM >= lane4dv1.Est.Used.BRAM {
		t.Errorf("DV=4 BRAM %d should undercut 4-lane BRAM %d",
			lane1dv4.Est.Used.BRAM, lane4dv1.Est.Used.BRAM)
	}
}

func TestVectorisationSameThroughputWhileComputeBound(t *testing.T) {
	// While compute-bound, (1,4) and (4,1) deliver the same EKIT: both
	// complete 4 work-items per cycle.
	sw := sweep2d(t, perf.FormC)
	e14 := sw.Points[0][2].EKIT
	e41 := sw.Points[2][0].EKIT
	ratio := e14 / e41
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("EKIT(1,4)/EKIT(4,1) = %.3f, want ~1", ratio)
	}
}

func TestVectorisationMonotoneCostAndSpeed(t *testing.T) {
	sw := sweep2d(t, perf.FormC)
	for i := range sw.Lanes {
		for j := 1; j < len(sw.DVs); j++ {
			if sw.Points[i][j].Est.Used.ALUTs <= sw.Points[i][j-1].Est.Used.ALUTs {
				t.Errorf("(%d lanes) ALUTs not increasing with DV", sw.Lanes[i])
			}
			if sw.Points[i][j].EKIT < sw.Points[i][j-1].EKIT {
				t.Errorf("(%d lanes) EKIT decreasing with DV while compute-bound", sw.Lanes[i])
			}
		}
	}
}

func TestSweep2DBestFits(t *testing.T) {
	sw := sweep2d(t, perf.FormB)
	if sw.Best == nil {
		t.Fatal("no best point")
	}
	if !sw.Best.Fits {
		t.Error("best point does not fit")
	}
	for i := range sw.Points {
		for _, p := range sw.Points[i] {
			if p.Fits && p.EKIT > sw.Best.EKIT {
				t.Errorf("(%d lanes, DV=%d) beats the selected best", p.Lanes, p.Est.DV)
			}
		}
	}
}

func TestSweep2DErrors(t *testing.T) {
	mdl, bw := fixtures(t)
	w := perf.Workload{NKI: 1}
	if _, err := sweepLanesDV(t, mdl, bw, sorBuilder, nil, []int{1}, w, perf.FormA); err == nil {
		t.Error("empty lanes accepted")
	}
	if _, err := sweepLanesDV(t, mdl, bw, sorBuilder, []int{1}, nil, w, perf.FormA); err == nil {
		t.Error("empty DVs accepted")
	}
}

func TestEstimateVectorisedRejectsBadDV(t *testing.T) {
	mdl, _ := fixtures(t)
	m, err := sorBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdl.EstimateVectorised(m, 0); err == nil {
		t.Error("DV=0 accepted")
	}
}

func TestExtractUsesEstimateDV(t *testing.T) {
	mdl, bw := fixtures(t)
	m, err := sorBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := mdl.EstimateVectorised(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := perf.Extract(est, bw, perf.Workload{NKI: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.DV != 4 {
		t.Errorf("extracted DV = %d, want 4", p.DV)
	}
	if _, err := perf.Extract(est, bw, perf.Workload{NKI: 10, DV: 2}); err == nil {
		t.Error("contradictory workload DV accepted")
	}
}
