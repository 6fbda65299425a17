package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/pipesim"
	"repro/internal/tir"
)

// span is one traced call: its layer name, its interval in
// nanoseconds since the trace began, and the index of the enclosing
// span (-1 for a phase root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps the spans of a serial replay in memory.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string) int {
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Start: int64(time.Since(tr.t0)), Parent: parent})
	id := len(tr.spans) - 1
	tr.open = append(tr.open, id)
	return id
}

func (tr *tracer) end(id int) {
	tr.spans[id].End = int64(time.Since(tr.t0))
	tr.open = tr.open[:len(tr.open)-1]
}

// traced runs f inside a span named after its layer.
func traced[T any](tr *tracer, name string, f func() (T, error)) (T, error) {
	id := tr.begin(name)
	defer tr.end(id)
	return f()
}

// tracedDo is traced for calls that return only an error.
func tracedDo(tr *tracer, name string, f func() error) error {
	id := tr.begin(name)
	defer tr.end(id)
	return f()
}

// layerStat aggregates the spans of one name: how many calls, their
// total duration (busy) and that duration less the time covered by
// child spans (self).
type layerStat struct {
	Count int     `json:"count"`
	BusyS float64 `json:"busy_s"`
	SelfS float64 `json:"self_s"`
}

func (tr *tracer) stats() map[string]*layerStat {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range tr.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Count++
		st.BusyS += float64(s.End-s.Start) / 1e9
		st.SelfS += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// busyUnder sums the durations of the direct children of every root
// span with the given name.
func (tr *tracer) busyUnder(root string) float64 {
	var ns int64
	for _, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Name == root && tr.spans[s.Parent].Parent < 0 {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Phase roots of the replay. The cold phases mirror the untraced run's
// timed phases; the warm phases rerun the space against the store the
// cold phases (or, for a storeless workload, the probe) filled.
const (
	phaseSetup       = "setup"
	phaseExplore     = "explore"
	phaseProbe       = "probe"
	phaseWarmSetup   = "warm.setup"
	phaseWarmExplore = "warm.explore"
	phaseSample      = "sample"
	phaseWarmSample  = "warm.sample"
)

// replayResult is what one traced replay reports to the orchestrator.
type replayResult struct {
	Layers map[string]*layerStat `json:"layers"`
	// ColdS and WarmS are the replay's counterparts of the untraced
	// total_s and warm_s: the setup and explore phases of each pass.
	ColdS float64 `json:"cold_s"`
	WarmS float64 `json:"warm_s"`
	// ExploreBusyS is the layer time traced under the cold explore
	// phase.
	ExploreBusyS float64 `json:"explore_busy_s"`
	SimCycles    int64   `json:"sim_cycles"`
	SimInputsMB  float64 `json:"siminputs_mb"`
	// Records is the number of record files the cold pass (or the
	// probe) left in the store; WarmRewrites the files the warm pass
	// added or rewrote; WarmHitRatio the share of the warm pass's
	// lookups the store answered.
	Records      int     `json:"records_written"`
	WarmRewrites int     `json:"warm_rewrites"`
	WarmHitRatio float64 `json:"warm_hit_ratio"`
	CPKIErrMax   float64 `json:"cpki_err_max"`
	Points       int     `json:"points"`
	PointsDigest string  `json:"points_digest"`
	SampleDigest string  `json:"sample_digest,omitempty"`
}

// replayer replays a workload's layer calls serially through the
// layers' public functions, one span per call.
type replayer struct {
	w     workload
	tr    *tracer
	seed  int64
	shelf []*device.Target
	build dse.VariantBuilder
	lanes []int
	space *dse.Space
	wl    perf.Workload

	mdls []*costmodel.Model
	bws  []*membw.Model

	siminAlloc uint64
	cycles     int64
	hits, gets int
}

// replayPoint is one replayed design point.
type replayPoint struct {
	label         string
	lanes         int
	est           *costmodel.Estimate
	ekit          float64
	fits          bool
	modelCPKI     int64
	cycles, items int64
}

// replay runs the traced replay of a workload: a cold pass as the
// untraced run performs it, then a warm pass against the store the
// cold pass filled. A storeless workload has nothing to warm from, so
// a probe first archives the records a -cache run of it would write;
// that way every store layer is measured on the workload's own
// records. The warm pass must reproduce the cold one. storeDir must
// name a fresh directory; the spans are written to traceFile.
func replay(w workload, seed int64, storeDir, traceFile string) (*replayResult, error) {
	shelf, err := device.Shelf(w.devices...)
	if err != nil {
		return nil, err
	}
	build, ngs, err := variantFamily(w.kernel)
	if err != nil {
		return nil, err
	}
	lanes := dse.DivisorLaneCounts(ngs, w.maxLanes)
	space, err := w.space(shelf, lanes)
	if err != nil {
		return nil, err
	}
	store, err := evalstore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1 // as dse.SimConfig reads it
	}
	r := &replayer{w: w, tr: newTracer(), seed: seed, shelf: shelf, build: build,
		lanes: lanes, space: space, wl: perf.Workload{NKI: nki}}

	var coldStore *evalstore.Store
	if w.store {
		coldStore = store
	}
	if err := r.setup(phaseSetup, coldStore); err != nil {
		return nil, err
	}
	cold, err := r.explore(phaseExplore, coldStore)
	if err != nil {
		return nil, err
	}
	coldSample, err := r.sample(phaseSample, nil, cold)
	if err != nil {
		return nil, err
	}
	if !w.store {
		if err := r.probe(store, cold, coldSample); err != nil {
			return nil, err
		}
	}

	before, err := snapshot(storeDir)
	if err != nil {
		return nil, err
	}
	r.hits, r.gets = 0, 0
	if err := r.setup(phaseWarmSetup, store); err != nil {
		return nil, err
	}
	warm, err := r.explore(phaseWarmExplore, store)
	if err != nil {
		return nil, err
	}
	warmSample, err := r.sample(phaseWarmSample, store, cold)
	if err != nil {
		return nil, err
	}
	after, err := snapshot(storeDir)
	if err != nil {
		return nil, err
	}

	out := &replayResult{
		Points:       len(cold),
		PointsDigest: pointsDigest(cold),
		ExploreBusyS: r.tr.busyUnder(phaseExplore),
		SimCycles:    r.cycles,
		SimInputsMB:  float64(r.siminAlloc) / 1e6,
		Records:      len(before),
		WarmRewrites: changed(before, after),
		WarmHitRatio: float64(r.hits) / float64(r.gets),
		CPKIErrMax:   replayCPKIErr(cold),
	}
	if len(w.sample) > 0 {
		out.SampleDigest = pointsDigest(coldSample)
		out.CPKIErrMax = replayCPKIErr(coldSample)
	}
	if d := pointsDigest(warm); d != out.PointsDigest {
		return nil, fmt.Errorf("warm replay points digest %s differs from the cold replay's %s", d, out.PointsDigest)
	}
	if d := pointsDigest(warmSample); len(w.sample) > 0 && d != out.SampleDigest {
		return nil, fmt.Errorf("warm replay sample digest %s differs from the cold replay's %s", d, out.SampleDigest)
	}
	out.Layers = r.tr.stats()
	out.ColdS = out.Layers[phaseSetup].BusyS + out.Layers[phaseExplore].BusyS
	out.WarmS = out.Layers[phaseWarmSetup].BusyS + out.Layers[phaseWarmExplore].BusyS
	return out, r.tr.write(traceFile)
}

// setup produces the calibrated models of every target: from the
// store when it holds them, else by calibration (archived when a store
// is attached), as dse.ModelCache does.
func (r *replayer) setup(phase string, store *evalstore.Store) error {
	root := r.tr.begin(phase)
	defer r.tr.end(root)
	r.mdls = make([]*costmodel.Model, len(r.shelf))
	r.bws = make([]*membw.Model, len(r.shelf))
	for i, t := range r.shelf {
		if store != nil {
			id := r.tr.begin("evalstore.load_models")
			mdl, bw, ok := evalstore.LoadModels(store, t)
			r.tr.end(id)
			r.gets++
			if ok {
				r.hits++
				r.mdls[i], r.bws[i] = mdl, bw
				continue
			}
		}
		mdl, err := traced(r.tr, "costmodel.calibrate", func() (*costmodel.Model, error) { return costmodel.Calibrate(t) })
		if err != nil {
			return err
		}
		bw, err := traced(r.tr, "membw.build", func() (*membw.Model, error) { return membw.Build(t) })
		if err != nil {
			return err
		}
		if store != nil {
			if err := tracedDo(r.tr, "evalstore.save_models", func() error {
				return evalstore.SaveModels(store, t, mdl, bw)
			}); err != nil {
				return err
			}
		}
		r.mdls[i], r.bws[i] = mdl, bw
	}
	return nil
}

// explore evaluates every point of the space serially, in the space's
// enumeration order (lanes slowest, device fastest), which is the
// order of the engine's Result.
func (r *replayer) explore(phase string, store *evalstore.Store) ([]replayPoint, error) {
	root := r.tr.begin(phase)
	defer r.tr.end(root)
	var pts []replayPoint
	for li, l := range r.lanes {
		m, err := traced(r.tr, "tir.build", func() (*tir.Module, error) { return r.build(l) })
		if err != nil {
			return nil, err
		}
		var ir string
		if store != nil {
			ir, _ = traced(r.tr, "tir.string", func() (string, error) { return m.String(), nil })
		}
		first := len(pts)
		for di := range r.shelf {
			est, err := r.estimate(store, ir, m, di)
			if err != nil {
				return nil, err
			}
			par, err := traced(r.tr, "perf.extract", func() (perf.Params, error) { return perf.Extract(est, r.bws[di], r.wl) })
			if err != nil {
				return nil, err
			}
			ekit, err := traced(r.tr, "perf.ekit", func() (float64, error) {
				e, _, err := par.EKIT(form)
				return e, err
			})
			if err != nil {
				return nil, err
			}
			pts = append(pts, replayPoint{
				label: r.space.Describe(r.space.VariantAt(li*len(r.shelf) + di)),
				lanes: l, est: est, ekit: ekit, fits: est.Fits(), modelCPKI: est.CPKI(par.NGS)})
		}
		if r.w.mode == dse.EvalModel {
			continue
		}
		// Simulated cycles depend only on the module, so one measurement
		// serves every device of the lane count.
		cycles, items, err := r.measure(store, ir, m)
		if err != nil {
			return nil, err
		}
		for i := first; i < len(pts); i++ {
			pts[i].cycles, pts[i].items = cycles, items
		}
	}
	return pts, nil
}

// estimate costs one (lane count, device) pair: from the store when it
// holds the estimate, else by compiling the module against the device's
// model and evaluating the flat program at dv=1.
func (r *replayer) estimate(store *evalstore.Store, ir string, m *tir.Module, di int) (*costmodel.Estimate, error) {
	t := r.shelf[di]
	var key string
	if store != nil {
		id := r.tr.begin("evalstore.load_estimate")
		key = evalstore.EstimateKey(ir, 1, t)
		est, ok := evalstore.LoadEstimate(store, key, m, t)
		r.tr.end(id)
		r.gets++
		if ok {
			r.hits++
			return est, nil
		}
	}
	cm, err := traced(r.tr, "costmodel.compile", func() (*costmodel.CompiledModel, error) { return r.mdls[di].Compile(m) })
	if err != nil {
		return nil, err
	}
	est, err := traced(r.tr, "costmodel.estimate", func() (*costmodel.Estimate, error) { return cm.EstimateVectorised(1) })
	if err != nil {
		return nil, err
	}
	if store != nil {
		if err := tracedDo(r.tr, "evalstore.save_estimate", func() error {
			return evalstore.SaveEstimate(store, key, est)
		}); err != nil {
			return nil, err
		}
	}
	return est, nil
}

// cyclesWorkload describes the measurement workload in the cycles key:
// the seed and one measured instance.
func (r *replayer) cyclesWorkload() string {
	return fmt.Sprintf("seed=%d measure=%d", r.seed, 1)
}

// measure simulates one module: from the store when it holds the
// measurement, else compile, generate the seeded inputs, run one
// kernel instance.
func (r *replayer) measure(store *evalstore.Store, ir string, m *tir.Module) (int64, int64, error) {
	var key string
	if store != nil {
		id := r.tr.begin("evalstore.load_cycles")
		key = evalstore.CyclesKey(ir, r.cyclesWorkload())
		cycles, items, ok := evalstore.LoadCycles(store, key)
		r.tr.end(id)
		r.gets++
		if ok {
			r.hits++
			return cycles, items, nil
		}
	}
	res, err := r.simulate(m)
	if err != nil {
		return 0, 0, err
	}
	if store != nil {
		if err := tracedDo(r.tr, "evalstore.save_cycles", func() error {
			return evalstore.SaveCycles(store, key, res.Cycles, res.Items)
		}); err != nil {
			return 0, 0, err
		}
	}
	return res.Cycles, res.Items, nil
}

// simulate compiles the module, generates its seeded inputs and runs
// one kernel instance on a pooled simulator instance.
func (r *replayer) simulate(m *tir.Module) (*pipesim.Result, error) {
	d, err := traced(r.tr, "pipesim.compile", func() (*pipesim.CompiledDesign, error) { return pipesim.Compile(m) })
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mem, err := traced(r.tr, "dse.siminputs", func() (map[string][]int64, error) {
		return dse.SimInputs(d.Module(), r.seed)
	})
	runtime.ReadMemStats(&after)
	r.siminAlloc += after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, err
	}
	inst := d.Acquire()
	defer d.Release(inst)
	res, err := traced(r.tr, "pipesim.run", func() (*pipesim.Result, error) { return inst.Run(mem) })
	if err != nil {
		return nil, err
	}
	r.cycles += res.Cycles
	return res, nil
}

// probe archives the cold pass's records — models, estimates and the
// simulated cycles of the points and of the sample — as a -cache run
// would have.
func (r *replayer) probe(store *evalstore.Store, cold, sample []replayPoint) error {
	root := r.tr.begin(phaseProbe)
	defer r.tr.end(root)
	for i, t := range r.shelf {
		if err := tracedDo(r.tr, "evalstore.save_models", func() error {
			return evalstore.SaveModels(store, t, r.mdls[i], r.bws[i])
		}); err != nil {
			return err
		}
	}
	measured := map[int]replayPoint{}
	for _, p := range append(cold, sample...) {
		if p.cycles > 0 {
			measured[p.lanes] = p
		}
	}
	for li, l := range r.lanes {
		m, err := traced(r.tr, "tir.build", func() (*tir.Module, error) { return r.build(l) })
		if err != nil {
			return err
		}
		ir, _ := traced(r.tr, "tir.string", func() (string, error) { return m.String(), nil })
		for di, t := range r.shelf {
			est := cold[li*len(r.shelf)+di].est
			if err := tracedDo(r.tr, "evalstore.save_estimate", func() error {
				return evalstore.SaveEstimate(store, evalstore.EstimateKey(ir, 1, t), est)
			}); err != nil {
				return err
			}
		}
		if p, ok := measured[l]; ok {
			if err := tracedDo(r.tr, "evalstore.save_cycles", func() error {
				return evalstore.SaveCycles(store, evalstore.CyclesKey(ir, r.cyclesWorkload()), p.cycles, p.items)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// sample replays the simulator cross-check of a model-only workload's
// sample lane counts: simulated when store is nil, looked up in it
// otherwise. The model side comes from the cold points.
func (r *replayer) sample(phase string, store *evalstore.Store, cold []replayPoint) ([]replayPoint, error) {
	if len(r.w.sample) == 0 {
		return nil, nil
	}
	root := r.tr.begin(phase)
	defer r.tr.end(root)
	var pts []replayPoint
	for _, l := range r.w.sample {
		li := sort.SearchInts(r.lanes, l)
		if li == len(r.lanes) || r.lanes[li] != l || len(r.shelf) != 1 {
			return nil, fmt.Errorf("sample lane count %d is not a single-target point of the space", l)
		}
		m, err := traced(r.tr, "tir.build", func() (*tir.Module, error) { return r.build(l) })
		if err != nil {
			return nil, err
		}
		var ir string
		if store != nil {
			ir, _ = traced(r.tr, "tir.string", func() (string, error) { return m.String(), nil })
		}
		p := cold[li]
		if p.cycles, p.items, err = r.measure(store, ir, m); err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

func pointsDigest(pts []replayPoint) string {
	var b strings.Builder
	for _, p := range pts {
		b.WriteString(pointLine(p.label, p.ekit, p.fits, p.cycles, p.items))
	}
	return digest(b.String())
}

// replayCPKIErr is cpkiErrMax over replayed points.
func replayCPKIErr(pts []replayPoint) float64 {
	var worst float64
	for _, p := range pts {
		if p.cycles > 0 {
			worst = math.Max(worst, math.Abs(float64(p.modelCPKI)/float64(p.cycles)-1))
		}
	}
	return worst
}

// fileStamp identifies one version of a store record file.
type fileStamp struct {
	size  int64
	mtime time.Time
}

// snapshot lists every record file under a store directory.
func snapshot(dir string) (map[string]fileStamp, error) {
	out := map[string]fileStamp{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = fileStamp{size: info.Size(), mtime: info.ModTime()}
		return nil
	})
	return out, err
}

// changed counts the record files that are new or rewritten in after.
func changed(before, after map[string]fileStamp) int {
	n := 0
	for path, st := range after {
		if prev, ok := before[path]; !ok || prev != st {
			n++
		}
	}
	return n
}
