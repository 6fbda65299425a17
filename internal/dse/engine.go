package dse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// Evaluator costs one point of a Space. Evaluators must be pure: the
// same variant always yields the same Point (or the same error), which
// is what lets the engine memoise and parallelise freely.
type Evaluator func(s *Space, v Variant) (*Point, error)

// onceCell is a concurrency-safe memo slot: the first caller computes,
// everyone else waits on the Once and reads the settled values.
type onceCell[T any] struct {
	once sync.Once
	val  T
	err  error
}

// moduleCache memoises variant-module builds per lane count. It is its
// own type (rather than a field bundle on modelEval) so evaluators that
// hold several per-device modelEvals — the module of a lane count is
// device-independent — and the simulation measurer can share one build
// per lane count across all of them.
type moduleCache struct {
	build  VariantBuilder
	builds sync.Map // lanes int -> *onceCell[*tir.Module]
	irs    sync.Map // lanes int -> *onceCell[string]
}

func newModuleCache(build VariantBuilder) *moduleCache {
	return &moduleCache{build: build}
}

// module builds the lanes-axis variant once per lane count.
func (mc *moduleCache) module(lanes int) (*tir.Module, error) {
	c, _ := mc.builds.LoadOrStore(lanes, &onceCell[*tir.Module]{})
	cell := c.(*onceCell[*tir.Module])
	cell.once.Do(func() {
		cell.val, cell.err = mc.build(lanes)
		if cell.err != nil {
			cell.err = fmt.Errorf("dse: building %d-lane variant: %w", lanes, cell.err)
		}
	})
	return cell.val, cell.err
}

// moduleIR returns the canonical IR text of a lane count's module —
// the kernel-IR half of every evalstore content key — rendered once
// per lane count (Module.String is linear in the design size, so the
// persistent-cache paths must not pay it per point).
func (mc *moduleCache) moduleIR(lanes int) (string, error) {
	c, _ := mc.irs.LoadOrStore(lanes, &onceCell[string]{})
	cell := c.(*onceCell[string])
	cell.once.Do(func() {
		m, err := mc.module(lanes)
		if err != nil {
			cell.err = err
			return
		}
		cell.val = m.String()
	})
	return cell.val, cell.err
}

// modelEval is the memoised cost-model half of the evaluator for one
// shelf entry: estimates per (lanes, dv) over the shelf-wide module
// cache. Every mode prices through it, so the resource bars, the walls
// and the calibration cross-check see the same model-side point.
type modelEval struct {
	mdl  *costmodel.Model
	bw   *membw.Model
	mods *moduleCache
	w    perf.Workload
	form perf.Form

	// store is the optional persistent tier: estimates are read through
	// it (content-keyed by kernel IR, dv and target) and written back on
	// recompute. nil keeps the evaluator purely in-memory.
	store *evalstore.Store
	// estimateFn is a test seam replacing the estimator: the warm==cold
	// differential tests count recomputations through it, and the
	// compiled-vs-tree differentials route the tree-walk oracle
	// (Model.EstimateVectorised) through it. nil selects the compiled
	// estimate program.
	estimateFn func(mdl *costmodel.Model, m *tir.Module, dv int) (*costmodel.Estimate, error)

	ests     sync.Map // [2]int{lanes, dv} -> *onceCell[*costmodel.Estimate]
	compiled sync.Map // lanes int -> *onceCell[*costmodel.CompiledModel]
}

// compiledModel compiles the lane count's module against the model
// exactly once; every dv of the lane count evaluates the same flat
// program.
func (me *modelEval) compiledModel(lanes int, m *tir.Module) (*costmodel.CompiledModel, error) {
	c, _ := me.compiled.LoadOrStore(lanes, &onceCell[*costmodel.CompiledModel]{})
	cell := c.(*onceCell[*costmodel.CompiledModel])
	cell.once.Do(func() { cell.val, cell.err = me.mdl.Compile(m) })
	return cell.val, cell.err
}

// module builds the lanes-axis variant once per lane count.
func (me *modelEval) module(lanes int) (*tir.Module, error) {
	return me.mods.module(lanes)
}

// estimate costs the (lanes, dv) variant once per process — and, with
// a backing store, once per store lifetime: a warm run rehydrates the
// estimate from its content-addressed record without re-running the
// cost model (a corrupt or version-skewed record degrades to
// recompute-and-rewrite).
func (me *modelEval) estimate(lanes, dv int) (*costmodel.Estimate, error) {
	c, _ := me.ests.LoadOrStore([2]int{lanes, dv}, &onceCell[*costmodel.Estimate]{})
	cell := c.(*onceCell[*costmodel.Estimate])
	cell.once.Do(func() {
		m, err := me.module(lanes)
		if err != nil {
			cell.err = err
			return
		}
		var key string
		if me.store != nil {
			ir, err := me.mods.moduleIR(lanes)
			if err != nil {
				cell.err = err
				return
			}
			key = evalstore.EstimateKey(ir, dv, me.mdl.Target)
			if est, ok := evalstore.LoadEstimate(me.store, key, m, me.mdl.Target); ok {
				cell.val = est
				return
			}
		}
		if me.estimateFn != nil {
			cell.val, cell.err = me.estimateFn(me.mdl, m, dv)
		} else {
			var cm *costmodel.CompiledModel
			if cm, cell.err = me.compiledModel(lanes, m); cell.err == nil {
				cell.val, cell.err = cm.EstimateVectorised(dv)
			}
		}
		if cell.err != nil {
			if dv == 1 {
				cell.err = fmt.Errorf("dse: costing %d-lane variant: %w", lanes, cell.err)
			} else {
				cell.err = fmt.Errorf("dse: costing %d-lane dv=%d variant: %w", lanes, dv, cell.err)
			}
			return
		}
		if me.store != nil {
			// Best-effort write-back: a read-only or full cache directory
			// must not fail the exploration, it just stays cold.
			_ = evalstore.SaveEstimate(me.store, key, cell.val)
		}
	})
	return cell.val, cell.err
}

// point evaluates one variant through the cost stack, honouring the
// lanes, dv, form and fclk axes.
func (me *modelEval) point(s *Space, v Variant) (*Point, error) {
	lanes := s.ValueDefault(v, AxisLanes, 1)
	dv := s.ValueDefault(v, AxisDV, 1)
	f := perf.Form(s.ValueDefault(v, AxisForm, int(me.form)))
	fclkHz, err := fclkOverride(s, v)
	if err != nil {
		return nil, err
	}
	est, err := me.estimate(lanes, dv)
	if err != nil {
		return nil, err
	}
	return evalPoint(est, me.bw, me.w, f, lanes, fclkHz)
}

// fclkOverride resolves the fclk axis (MHz values) to the FD override
// in Hz, or 0 when the space has no fclk axis and the estimate's own
// Fmax applies. A non-positive axis value is rejected loudly: a point
// silently priced at the default Fmax while labelled with the
// requested fclk would poison the sweep.
func fclkOverride(s *Space, v Variant) (float64, error) {
	mhz, ok := s.Value(v, AxisFclk)
	if !ok {
		return 0, nil
	}
	if mhz <= 0 {
		return 0, fmt.Errorf("dse: fclk axis value must be a positive frequency in MHz, got %d", mhz)
	}
	return FclkHz(mhz), nil
}

// evalPoint derives the full Point from a resource estimate: the Table
// I parameter extraction, the EKIT throughput under the form, and the
// Fig 15 utilisation bars. fclkHz > 0 overrides the extracted FD (the
// fclk axis); 0 keeps the estimate's Fmax. Under form C a point fits
// only if its NDRange working set also fits in block RAM beside the
// design (the gate core.Compiler.Cost enforces, §III-5).
func evalPoint(est *costmodel.Estimate, bw *membw.Model, w perf.Workload,
	form perf.Form, lanes int, fclkHz float64) (*Point, error) {
	par, err := perf.Extract(est, bw, w)
	if err != nil {
		return nil, fmt.Errorf("dse: extracting %d-lane parameters: %w", lanes, err)
	}
	if fclkHz > 0 {
		par.FD = fclkHz
	}
	ekit, bd, err := par.EKIT(form)
	if err != nil {
		return nil, fmt.Errorf("dse: evaluating %d-lane variant: %w", lanes, err)
	}
	p := &Point{Lanes: lanes, Est: est, Par: par, EKIT: ekit, ModelEKIT: ekit,
		Breakdown: bd, Fits: est.Fits() && (form != perf.FormC || est.FormCFeasible())}
	p.UtilALUT, p.UtilReg, p.UtilBRAM, p.UtilDSP = est.Utilisation()

	// Full-rate bandwidth demand: every lane consumes one tuple per
	// cycle (the paper's pipelined configurations).
	demand := par.FD * float64(par.KNL) * float64(par.DV) *
		float64(par.NWPT) * float64(par.WordBytes) / par.CyclesPerItem()
	p.UtilGMemBW = demand / (par.GPB * par.RhoG)
	hostDemand := demand
	if form != perf.FormA {
		// Forms B/C move host data once per NKI instances.
		hostDemand /= float64(par.NKI)
	}
	p.UtilHostBW = hostDemand / (par.HPB * par.RhoH)
	return p, nil
}

// Engine evaluates points of a Space through a worker pool with a
// memoised per-variant cache. The evaluation stack is pure, so the
// cache never invalidates and results are deterministic regardless of
// worker count or scheduling. An Engine is safe for concurrent use.
type Engine struct {
	Space *Space
	Eval  Evaluator
	// Workers is the evaluation parallelism (the -j of cmd/tytradse).
	Workers int

	// cells is the per-variant memo: a sharded dense table over the
	// space's Index range, built lazily so the zero-value Engine still
	// works. String keys (Space.Key) are no longer touched per
	// evaluation — they remain the cross-run identity for reports and
	// the evalstore.
	cellsOnce sync.Once
	cells     *cellTable
}

// NewEngine builds an engine; workers <= 0 selects GOMAXPROCS.
func NewEngine(space *Space, eval Evaluator, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{Space: space, Eval: eval, Workers: workers}
}

// table returns the engine's cell table, sized to the space on first
// use.
func (e *Engine) table() *cellTable {
	e.cellsOnce.Do(func() { e.cells = newCellTable(e.Space.Size()) })
	return e.cells
}

// evalOne evaluates a single variant through the memo cache.
func (e *Engine) evalOne(v Variant) (*Point, error) {
	cell := e.table().cell(e.Space.Index(v))
	cell.once.Do(func() { cell.val, cell.err = e.Eval(e.Space, v) })
	return cell.val, cell.err
}

// EvalAll evaluates the variants concurrently and returns their points
// in input order. On failure it returns the error of the
// lowest-indexed failing variant, so errors are deterministic too.
func (e *Engine) EvalAll(vs []Variant) ([]*Point, error) {
	points, errs := e.evalAllKeep(vs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// evalAllKeep is EvalAll without the error short-circuit: it returns
// every point alongside its per-variant error, letting callers that
// prune (WallPruned) consume a wave's successful prefix and discard
// failures past the cut — exactly what a serial sweep would never
// have evaluated.
func (e *Engine) evalAllKeep(vs []Variant) ([]*Point, []error) {
	points := make([]*Point, len(vs))
	errs := make([]error, len(vs))
	workers := e.Workers
	if workers > len(vs) {
		workers = len(vs)
	}
	if workers <= 1 {
		for i, v := range vs {
			points[i], errs[i] = e.evalOne(v)
		}
	} else {
		// Workers claim chunked index ranges off one atomic counter —
		// one contended add per chunk instead of one channel send per
		// variant, which at compiled-model evaluation speeds would
		// otherwise dominate the wall clock. Results land at their input
		// index, so output order is deterministic regardless of which
		// worker claims which chunk.
		chunk := len(vs) / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
		if chunk > 256 {
			chunk = 256
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					hi := int(next.Add(int64(chunk)))
					lo := hi - chunk
					if lo >= len(vs) {
						return
					}
					if hi > len(vs) {
						hi = len(vs)
					}
					for i := lo; i < hi; i++ {
						points[i], errs[i] = e.evalOne(vs[i])
					}
				}
			}()
		}
		wg.Wait()
	}
	return points, errs
}

// Walls are the design-space bounds of Fig 15, as lane counts: the
// smallest evaluated lane count that crossed each limit, or 0.
type Walls struct {
	// Compute is where the device runs out of a resource.
	Compute int
	// Host is where the demanded host-link bandwidth exceeds the
	// sustained rate (meaningful under form A, where every instance
	// re-streams over the link).
	Host int
	// DRAM is where the demanded device-DRAM bandwidth exceeds the
	// sustained rate.
	DRAM int
}

// Result is the outcome of one exploration: the evaluated variants (a
// strategy may evaluate only part of the space), their points in
// deterministic order, the walls, and the selected best.
type Result struct {
	Space    *Space
	Strategy string

	Variants []Variant
	Points   []*Point

	// Best is the highest-EKIT point that fits the device, or nil;
	// BestVariant is its coordinate.
	Best        *Point
	BestVariant Variant

	Walls Walls

	// Frontier holds indices into Points of the EKIT-vs-utilisation
	// Pareto frontier; only the ParetoFrontier strategy fills it.
	Frontier []int

	// Search provenance, filled by Engine.Search: Evals is the number
	// of evaluations charged to the run (distinct variants evaluated —
	// for a pruning strategy this includes speculative wave tails the
	// pool evaluated but the strategy discarded), Coverage is Evals
	// over the space size, Stop records why the run ended, and Seed
	// and Budget echo the options the run was started with.
	Evals    int
	Coverage float64
	Stop     StopReason
	Seed     int64
	Budget   Budget
	// Trajectory is the best-so-far curve, one sample per wave.
	Trajectory []TrajectorySample
}

// bestOf scans points in order and returns the highest-EKIT fitting
// point and its variant (nil if none fit). Earlier points win ties,
// matching the legacy sweep's strict comparison.
func bestOf(vs []Variant, ps []*Point) (*Point, Variant) {
	var best *Point
	var bv Variant
	for i, p := range ps {
		if p == nil || !p.Fits {
			continue
		}
		if best == nil || p.EKIT > best.EKIT {
			best, bv = p, vs[i]
		}
	}
	return best, bv
}

// newResult assembles a Result from evaluated points: walls and best
// are derived here so every strategy reports them consistently.
func newResult(e *Engine, strategy string, vs []Variant, ps []*Point) *Result {
	r := &Result{Space: e.Space, Strategy: strategy, Variants: vs, Points: ps}
	r.Walls = computeWalls(e.Space, vs, ps)
	r.Best, r.BestVariant = bestOf(vs, ps)
	return r
}

// computeWalls scans the evaluated points in ascending lanes-axis
// order and records the smallest lane count crossing each limit —
// independent of evaluation order, so parallel runs agree with serial
// ones.
func computeWalls(s *Space, vs []Variant, ps []*Point) Walls {
	var w Walls
	li, ok := s.AxisIndex(AxisLanes)
	if !ok {
		return w
	}
	lanesAxis := s.Axes()[li]
	for vi := range lanesAxis.Values {
		for i, v := range vs {
			if v[li] != vi || ps[i] == nil {
				continue
			}
			p, lanes := ps[i], lanesAxis.Values[vi]
			if !p.Fits && w.Compute == 0 {
				w.Compute = lanes
			}
			if p.UtilHostBW >= 1 && w.Host == 0 {
				w.Host = lanes
			}
			if p.UtilGMemBW >= 1 && w.DRAM == 0 {
				w.DRAM = lanes
			}
		}
	}
	return w
}

// Slice restricts a result to the variants taking the given value on
// the named axis (e.g. one memory-execution form of a lanes×form
// exploration), recomputing walls, best and — when the source carried
// one — the Pareto frontier over the slice. The value must be one of
// the axis's values; a value the axis carries but the search never
// evaluated (a pruned device, a budgeted search) yields an empty
// slice, not an error.
func (r *Result) Slice(axis string, value int) (*Result, error) {
	ai, ok := r.Space.AxisIndex(axis)
	if !ok {
		return nil, fmt.Errorf("dse: result has no %q axis", axis)
	}
	onAxis := false
	for _, v := range r.Space.Axes()[ai].Values {
		if v == value {
			onAxis = true
			break
		}
	}
	if !onAxis {
		return nil, fmt.Errorf("dse: axis %q has no value %d", axis, value)
	}
	out := &Result{Space: r.Space, Strategy: r.Strategy}
	for i, v := range r.Variants {
		if r.Space.Axes()[ai].Values[v[ai]] != value {
			continue
		}
		out.Variants = append(out.Variants, v)
		out.Points = append(out.Points, r.Points[i])
	}
	out.Walls = computeWalls(r.Space, out.Variants, out.Points)
	out.Best, out.BestVariant = bestOf(out.Variants, out.Points)
	if r.Strategy == (ParetoFrontier{}).Name() {
		out.Frontier = paretoFrontier(out.Points)
	}
	return out, nil
}

// Sweep converts a result over a lanes axis into the legacy Sweep
// shape consumed by the report tables and the advice pass. Every axis
// other than lanes must be single-valued in the result (Slice first
// otherwise). Points appear in lanes-axis order; walls and best are
// recomputed with the exact legacy scan so adapter output is identical
// to the pre-engine implementation.
func (r *Result) Sweep(form perf.Form) (*Sweep, error) {
	li, ok := r.Space.AxisIndex(AxisLanes)
	if !ok {
		return nil, fmt.Errorf("dse: result has no lanes axis")
	}
	if err := r.singleValuedExcept(li); err != nil {
		return nil, err
	}
	w := computeWalls(r.Space, r.Variants, r.Points)
	sw := &Sweep{Form: form, ComputeWall: w.Compute, HostWall: w.Host, DRAMWall: w.DRAM}
	lanesAxis := r.Space.Axes()[li]
	for vi := range lanesAxis.Values {
		for i, v := range r.Variants {
			if v[li] != vi || r.Points[i] == nil {
				continue
			}
			sw.Points = append(sw.Points, *r.Points[i])
		}
	}
	for i := range sw.Points {
		p := &sw.Points[i]
		if !p.Fits {
			continue
		}
		if sw.Best == nil || p.EKIT > sw.Best.EKIT {
			sw.Best = p
		}
	}
	return sw, nil
}

// singleValuedExcept errors when any axis other than the given ones
// takes more than one value across the result's variants — the
// conversions to the legacy sweep shapes need every remaining axis
// pinned (Slice first otherwise).
func (r *Result) singleValuedExcept(keep ...int) error {
	for ai, a := range r.Space.Axes() {
		kept := false
		for _, k := range keep {
			if ai == k {
				kept = true
				break
			}
		}
		if kept {
			continue
		}
		seen := -1
		for _, v := range r.Variants {
			if seen == -1 {
				seen = v[ai]
			} else if v[ai] != seen {
				return fmt.Errorf("dse: axis %q is not single-valued; Slice before Sweep", a.Name)
			}
		}
	}
	return nil
}
