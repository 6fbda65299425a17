package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/evalstore"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/tir"
)

// The fixed exploration settings every workload shares, as the
// tytradse defaults spell them: form B, NKI 10, exhaustive strategy.
const (
	form = perf.FormB
	nki  = 10
)

// workload is one benchmark workload: a tytradse exploration.
type workload struct {
	name     string
	kernel   string // sor | hotspot
	mode     dse.EvalMode
	maxLanes int
	// devices is the target shelf; a single entry is a single-target
	// run (core.New + Compiler.ExploreSpaceMode), several entries a
	// lanes×device run through a shared dse.ModelCache.
	devices []string
	// store runs the exploration cold into a fresh evaluation store and
	// then warm against it, each in its own process.
	store bool
	// sample lists lane counts whose model CPKI a model-only workload
	// cross-checks against the simulator after its timed run, so that
	// cpki_err_max exists on every workload.
	sample []int
}

var workloads = []workload{
	{name: "model-wide", kernel: "sor", mode: dse.EvalModel, maxLanes: 1024,
		devices: []string{"stratix-v-gsd8-edu"}, sample: []int{64, 1008}},
	{name: "hybrid-fig15", kernel: "sor", mode: dse.EvalHybrid, maxLanes: 16,
		devices: []string{"stratix-v-gsd8-edu"}},
	{name: "shelf-cache", kernel: "hotspot", mode: dse.EvalHybrid, maxLanes: 1024,
		devices: []string{"stratix-v-gsd8", "virtex-7-690t", "stratix-v-gsd8-edu"}, store: true},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

// workers is the engine parallelism: one worker per CPU.
func workers() int { return runtime.NumCPU() }

// variantFamily returns the lane-parameterised builder of a kernel and
// the NDRange size that picks its reshape-legal lane counts, exactly as
// tytradse builds them.
func variantFamily(kernel string) (dse.VariantBuilder, int64, error) {
	switch kernel {
	case "sor":
		spec := experiments.Fig15Spec(1)
		return func(lanes int) (*tir.Module, error) {
			s := spec
			s.Lanes = lanes
			return s.Module()
		}, spec.GlobalSize(), nil
	case "hotspot":
		spec := kernels.HotspotSpec{Rows: 384, Cols: 682, Lanes: 1}
		return func(lanes int) (*tir.Module, error) {
			s := spec
			s.Lanes = lanes
			return s.Module()
		}, spec.GlobalSize(), nil
	}
	return nil, 0, fmt.Errorf("unknown kernel %q", kernel)
}

// space is the workload's design space: lanes, and the device axis
// for a shelf.
func (w workload) space(shelf []*device.Target, lanes []int) (*dse.Space, error) {
	if len(shelf) > 1 {
		return dse.NewSpace(dse.LanesAxis(lanes), dse.DeviceAxis(shelf...))
	}
	return dse.NewSpace(dse.LanesAxis(lanes))
}

// runResult is what one untraced run reports to the orchestrator.
type runResult struct {
	SetupS   float64 `json:"setup_s"`
	ExploreS float64 `json:"explore_s"`
	TotalS   float64 `json:"total_s"`
	AllocMB  float64 `json:"alloc_mb"`
	// Points is the number of evaluated variants; Evals and Coverage
	// are the search provenance of the Result.
	Points   int     `json:"points"`
	Evals    int     `json:"evals"`
	Coverage float64 `json:"coverage"`
	// CPKIErrMax is max |model CPKI / simulated cycles - 1| over the
	// simulated points (hybrid) or over the sample (model-only, and
	// only when the sample was requested).
	CPKIErrMax float64 `json:"cpki_err_max"`
	// Digest covers every point, the walls and the best variant;
	// PointsDigest the points alone, which the traced replay must
	// reproduce; SampleDigest the simulator sample.
	Digest       string `json:"digest"`
	PointsDigest string `json:"points_digest"`
	SampleDigest string `json:"sample_digest,omitempty"`
	Workers      int    `json:"workers"`

	// Tables are the report tables tytradse prints for the run.
	Tables []string `json:"-"`
}

// runWorkload performs one untraced exploration the way tytradse does
// and times its phases: setup (calibrated models for every target, or
// a store load when warm), the engine search, and result assembly
// (Result.Sweep/Slice and the report tables). store is nil for a
// storeless run. With sample set, a model-only workload afterwards
// cross-checks its sample lane counts against the simulator, outside
// the timed phases.
func runWorkload(w workload, seed int64, store *evalstore.Store, sample bool) (*runResult, error) {
	shelf, err := device.Shelf(w.devices...)
	if err != nil {
		return nil, err
	}
	build, ngs, err := variantFamily(w.kernel)
	if err != nil {
		return nil, err
	}
	space, err := w.space(shelf, dse.DivisorLaneCounts(ngs, w.maxLanes))
	if err != nil {
		return nil, err
	}
	sim := dse.SimConfig{Seed: seed}
	wl := perf.Workload{NKI: nki}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	var res *dse.Result
	var c *core.Compiler
	var setupDone time.Time
	if len(shelf) == 1 {
		if c, err = core.NewStore(shelf[0], store); err != nil {
			return nil, err
		}
		setupDone = time.Now()
		res, err = c.ExploreSpaceMode(w.mode, build, space, wl, form, dse.Exhaustive{},
			workers(), sim, dse.SearchOptions{})
	} else {
		// Calibrate every target up front, one after another, so that
		// setup is timed apart from the search.
		cache := dse.NewModelCacheStore(store)
		for _, t := range shelf {
			if _, _, err := cache.Models(t); err != nil {
				return nil, err
			}
		}
		setupDone = time.Now()
		var eval dse.Evaluator
		eval, err = dse.NewDeviceModeEvaluatorCache(w.mode, shelf, build, wl, form, sim, cache)
		if err == nil {
			res, err = dse.NewEngine(space, eval, workers()).Search(dse.Exhaustive{}, dse.SearchOptions{})
		}
	}
	if err != nil {
		return nil, err
	}
	exploreDone := time.Now()
	tables, err := assemble(w, shelf, res)
	if err != nil {
		return nil, err
	}
	done := time.Now()
	runtime.ReadMemStats(&after)

	out := &runResult{
		SetupS:     setupDone.Sub(t0).Seconds(),
		ExploreS:   exploreDone.Sub(setupDone).Seconds(),
		TotalS:     done.Sub(t0).Seconds(),
		AllocMB:    float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		Points:     len(res.Points),
		Evals:      res.Evals,
		Coverage:   res.Coverage,
		CPKIErrMax: cpkiErrMax(res),
		Tables:     tables,
		Workers:    workers(),
	}
	out.Digest, out.PointsDigest = resultDigests(res)
	if sample && len(w.sample) > 0 {
		out.CPKIErrMax, out.SampleDigest, err = simSample(c, w, build, seed)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// assemble renders the report tables tytradse prints for the result:
// each target's sweep table, the hybrid calibration table and, for a
// shelf, the cross-device summary.
func assemble(w workload, shelf []*device.Target, res *dse.Result) ([]string, error) {
	var tables []string
	sweep := func(target string, r *dse.Result) error {
		sw, err := r.Sweep(form)
		if err != nil {
			return err
		}
		tables = append(tables, report.SweepTable(
			fmt.Sprintf("%s variant sweep on %s (%s, scored by %s; walls: host=%d dram=%d compute=%d)",
				w.kernel, target, form, w.mode, sw.HostWall, sw.DRAMWall, sw.ComputeWall),
			sw).String())
		return nil
	}
	if len(shelf) == 1 {
		if err := sweep(shelf[0].Name, res); err != nil {
			return nil, err
		}
	} else {
		for i, t := range shelf {
			slice, err := res.Slice(dse.AxisDevice, i)
			if err != nil {
				return nil, err
			}
			if err := sweep(t.Name, slice); err != nil {
				return nil, err
			}
		}
	}
	if w.mode == dse.EvalHybrid {
		tables = append(tables, report.CalibrationTable(
			"hybrid calibration: model CPKI vs simulated cycles per variant", res, 0).String())
	}
	if len(shelf) > 1 {
		sum, err := report.DeviceSummaryTable(
			fmt.Sprintf("cross-device summary: %s on %d devices (%s, scored by %s)",
				w.kernel, len(shelf), form, w.mode), res)
		if err != nil {
			return nil, err
		}
		tables = append(tables, sum.String())
	}
	return tables, nil
}

// cpkiErrMax is the largest |model CPKI / simulated cycles - 1| over
// the result's simulated points; 0 when nothing was simulated.
func cpkiErrMax(res *dse.Result) float64 {
	var worst float64
	for _, row := range report.Calibration(res, 0) {
		worst = math.Max(worst, math.Abs(row.Ratio-1))
	}
	return worst
}

// simSample runs the model-only workload's sample lane counts through
// the hybrid evaluator on the same calibrated compiler and returns the
// worst CPKI error and a digest of the sample's points.
func simSample(c *core.Compiler, w workload, build dse.VariantBuilder, seed int64) (float64, string, error) {
	space, err := dse.NewSpace(dse.LanesAxis(w.sample))
	if err != nil {
		return 0, "", err
	}
	res, err := c.ExploreSpaceMode(dse.EvalHybrid, build, space, perf.Workload{NKI: nki}, form,
		dse.Exhaustive{}, workers(), dse.SimConfig{Seed: seed}, dse.SearchOptions{})
	if err != nil {
		return 0, "", err
	}
	_, digest := resultDigests(res)
	return cpkiErrMax(res), digest, nil
}

// pointLine is the digest record of one evaluated point. The traced
// replay renders its points through the same function.
func pointLine(label string, ekit float64, fits bool, cycles, items int64) string {
	return fmt.Sprintf("%s ekit=%016x fits=%t cycles=%d items=%d\n",
		label, math.Float64bits(ekit), fits, cycles, items)
}

// resultDigests hashes the result: the full digest covers every point,
// the walls and the best variant; the points digest the points alone.
func resultDigests(res *dse.Result) (full, points string) {
	var b strings.Builder
	for i, p := range res.Points {
		b.WriteString(pointLine(res.Space.Describe(res.Variants[i]), p.EKIT, p.Fits, p.SimCycles, p.SimItems))
	}
	points = digest(b.String())
	fmt.Fprintf(&b, "walls compute=%d host=%d dram=%d\n", res.Walls.Compute, res.Walls.Host, res.Walls.DRAM)
	if res.Best != nil {
		fmt.Fprintf(&b, "best %s\n", res.Space.Describe(res.BestVariant))
	} else {
		b.WriteString("best none\n")
	}
	return digest(b.String()), points
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
