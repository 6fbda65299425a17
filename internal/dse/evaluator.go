package dse

import (
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/evalstore"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/tir"
)

// ModelCache memoises the one-time per-target model construction of
// Fig 2 — the synthesis-probe calibration (costmodel.Calibrate) and
// the STREAM-style bandwidth benchmark (membw.Build) — per device id.
// A cross-device exploration pays that work exactly once per shelf
// entry no matter how many points land on the device or how many
// engine workers race for it. A ModelCache is safe for concurrent use
// and can be shared across engines to amortise calibration between
// explorations of the same shelf.
type ModelCache struct {
	cells sync.Map // device name -> *onceCell[modelPair]

	// store, when non-nil, is the persistent tier: a target's models are
	// answered from their content-addressed record when present (neither
	// constructor runs) and archived after construction otherwise. An
	// evaluator over the cache persists its estimates and measurements
	// there too.
	store *evalstore.Store

	// Test seams: the cache-once differential test wraps these with
	// counters. Nil selects the real constructors.
	calibrate func(*device.Target) (*costmodel.Model, error)
	buildBW   func(*device.Target) (*membw.Model, error)
}

type modelPair struct {
	mdl *costmodel.Model
	bw  *membw.Model
	// desc is the full target description the models were built from.
	// Target is a flat value struct, so comparing it catches a caller
	// that tuned a target (the registry hands out fresh copies exactly
	// so callers can) while keeping its name — returning the cached
	// models there would silently price every point for the untuned
	// device.
	desc device.Target
}

// NewModelCache returns an empty per-device model cache.
func NewModelCache() *ModelCache { return &ModelCache{} }

// NewModelCacheStore returns a per-device model cache backed by a
// persistent evaluation store (nil store degrades to NewModelCache).
func NewModelCacheStore(store *evalstore.Store) *ModelCache {
	return &ModelCache{store: store}
}

func (mc *ModelCache) cell(t *device.Target) *onceCell[modelPair] {
	c, _ := mc.cells.LoadOrStore(t.Name, &onceCell[modelPair]{})
	return c.(*onceCell[modelPair])
}

// settled returns a settled cell's models, rejecting a target that
// reuses the name of a different description.
func settled(cell *onceCell[modelPair], t *device.Target) (*costmodel.Model, *membw.Model, error) {
	if cell.err != nil {
		return nil, nil, cell.err
	}
	if cell.val.desc != *t {
		return nil, nil, fmt.Errorf("dse: device %s was already calibrated from a different description; use a distinct name (or a fresh ModelCache) for a tuned target", t.Name)
	}
	return cell.val.mdl, cell.val.bw, nil
}

// Models returns the calibrated cost model and bandwidth model for the
// target, constructing both exactly once per device id.
func (mc *ModelCache) Models(t *device.Target) (*costmodel.Model, *membw.Model, error) {
	if t == nil {
		return nil, nil, fmt.Errorf("dse: nil device")
	}
	cell := mc.cell(t)
	cell.once.Do(func() {
		// Persistent tier first: the record key covers the full target
		// description, so a hit is exactly the pair calibration would
		// rebuild — and a stale or damaged record is a miss, never an
		// error.
		if mc.store != nil {
			if mdl, bw, ok := evalstore.LoadModels(mc.store, t); ok {
				cell.val = modelPair{mdl: mdl, bw: bw, desc: *t}
				return
			}
		}
		calibrate, buildBW := mc.calibrate, mc.buildBW
		if calibrate == nil {
			calibrate = costmodel.Calibrate
		}
		if buildBW == nil {
			buildBW = membw.Build
		}
		var pair modelPair
		pair.mdl, cell.err = calibrate(t)
		if cell.err != nil {
			cell.err = fmt.Errorf("dse: calibrating cost model for %s: %w", t.Name, cell.err)
			return
		}
		pair.bw, cell.err = buildBW(t)
		if cell.err != nil {
			cell.err = fmt.Errorf("dse: building bandwidth model for %s: %w", t.Name, cell.err)
			return
		}
		pair.desc = *t
		cell.val = pair
		if mc.store != nil {
			_ = evalstore.SaveModels(mc.store, t, pair.mdl, pair.bw)
		}
	})
	return settled(cell, t)
}

// Add settles the target's entry from models the caller already holds
// (a core.Compiler, an archived bandwidth table), so nothing is
// calibrated twice. A name already settled from the same description
// keeps its first models; one settled from a different description is
// rejected, as Models rejects it. Add writes nothing to the store.
func (mc *ModelCache) Add(t *device.Target, mdl *costmodel.Model, bw *membw.Model) error {
	if t == nil || mdl == nil || bw == nil {
		return fmt.Errorf("dse: Add needs a target and both of its models")
	}
	cell := mc.cell(t)
	cell.once.Do(func() { cell.val = modelPair{mdl: mdl, bw: bw, desc: *t} })
	_, _, err := settled(cell, t)
	return err
}

// EvalConfig configures NewEvaluator.
type EvalConfig struct {
	// Mode selects the scorer: the cost model (the zero value), the
	// pipeline simulator, or the hybrid cross-check.
	Mode EvalMode
	// Build produces the variant module of a lane count. Required.
	Build VariantBuilder
	// Workload carries the kernel-instance count and the other
	// workload parameters perf.Extract needs.
	Workload perf.Workload
	// Form is the memory-execution form of spaces without a form axis.
	Form perf.Form
	// Sim configures the simulator's measurement workload and selects
	// the cost-model implementation (Sim.ModelEval) in every mode.
	Sim SimConfig
	// Shelf lists the targets the points are priced against: device
	// axis values index it (see DeviceAxis), and spaces without a
	// device axis price against Shelf[0]. A single-target exploration is
	// a one-entry shelf. Required.
	Shelf []*device.Target
	// Models memoises each target's calibrated models and carries the
	// persistent store estimates and measurements go through; nil
	// selects a fresh in-memory NewModelCache.
	Models *ModelCache
}

// evaluator prices points over the paper's cost stack, and under
// EvalSim and EvalHybrid over the pipeline simulator too. Each shelf
// entry gets its own lazily calibrated modelEval (estimates are
// per-device: the same module costs differently against different
// capacity pools and bandwidth curves), while module builds and
// simulator measurements are shared across the shelf (both depend
// only on the variant, never on the target).
type evaluator struct {
	mode   EvalMode
	shelf  []*device.Target
	models *ModelCache
	mods   *moduleCache
	sm     *simMeasurer // nil under EvalModel
	w      perf.Workload
	form   perf.Form
	emode  ModelEvalMode

	// allowed and who are the axis check: the axes the mode can price,
	// and how rejections name the evaluator.
	allowed []string
	who     string

	// estimateFn is a test seam wrapping the estimator of every shelf
	// entry; see modelEval.estimateFn.
	estimateFn func(mdl *costmodel.Model, m *tir.Module, dv int) (*costmodel.Estimate, error)

	evals []onceCell[*modelEval] // one per shelf entry
}

// NewEvaluator returns the evaluator over the paper's cost stack:
// build the variant's module (lanes axis), cost it with the target's
// calibrated resource model (dv axis selects the vectorised estimate),
// extract the Table I parameters against its bandwidth model, and
// evaluate EKIT under the memory-execution form (form axis, defaulting
// to cfg.Form). An fclk axis (MHz values) overrides the device
// frequency FD, re-pricing throughput without re-costing resources; a
// device axis selects the shelf entry, and each point then carries
// its device name.
//
// Under EvalSim every point is scored by measured cycles-per-instance
// on the compiled pipeline simulator, EKIT = FD / cycles; under
// EvalHybrid the model ranks and every point additionally carries the
// simulated cycles for the report.Calibration cross-check. In both the
// model still fills the resource and bandwidth fields (and ModelEKIT),
// so walls and pruning behave as under EvalModel, and a lane count is
// simulated once and re-priced per device through FD.
//
// The whole stack is pure, so the evaluator memoises module builds per
// lane count, estimates per (device, lanes, dv) and measurements per
// lane count; a store-backed cfg.Models extends the memo across runs.
// The config is validated here, before any calibration or module
// build.
func NewEvaluator(cfg EvalConfig) (Evaluator, error) {
	ev, err := newEvaluator(cfg)
	if err != nil {
		return nil, err
	}
	return ev.eval, nil
}

// NewDeviceModeEvaluatorCache is NewEvaluator spelled positionally. It
// remains only for the end-to-end benchmark module (perfbench), which
// calls it and is frozen; new code calls NewEvaluator.
func NewDeviceModeEvaluatorCache(mode EvalMode, shelf []*device.Target, build VariantBuilder,
	w perf.Workload, form perf.Form, cfg SimConfig, cache *ModelCache) (Evaluator, error) {
	return NewEvaluator(EvalConfig{Mode: mode, Build: build, Workload: w, Form: form, Sim: cfg,
		Shelf: shelf, Models: cache})
}

func newEvaluator(cfg EvalConfig) (*evaluator, error) {
	ev := &evaluator{
		mode: cfg.Mode, shelf: cfg.Shelf, models: cfg.Models,
		w: cfg.Workload, form: cfg.Form, emode: cfg.Sim.ModelEval,
	}
	// No dv axis under the simulator: it executes one work-item per lane
	// per cycle and cannot observe medium-grained vectorisation. Pure
	// sim scoring also rejects a form axis: simulated cycles are
	// form-independent, so EvalSim would silently tie every form at a
	// lane count. Hybrid mode keeps it, since there the model ranks.
	switch cfg.Mode {
	case EvalModel:
		ev.allowed = []string{AxisLanes, AxisDV, AxisForm, AxisFclk, AxisDevice}
		ev.who = "the model evaluator"
	case EvalSim:
		ev.allowed = []string{AxisLanes, AxisFclk, AxisDevice}
		ev.who = "the sim-scored evaluator (form does not change simulated cycles; use hybrid)"
	case EvalHybrid:
		ev.allowed = []string{AxisLanes, AxisForm, AxisFclk, AxisDevice}
		ev.who = "the simulation-backed evaluator"
	default:
		return nil, fmt.Errorf("dse: unknown evaluation mode %d", int(cfg.Mode))
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("dse: nil variant builder")
	}
	if len(cfg.Shelf) == 0 {
		return nil, fmt.Errorf("dse: empty device shelf")
	}
	seen := map[string]bool{}
	for i, t := range cfg.Shelf {
		if t == nil {
			return nil, fmt.Errorf("dse: nil device at shelf position %d", i)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("dse: device %s appears twice on the shelf", t.Name)
		}
		seen[t.Name] = true
	}
	if ev.models == nil {
		ev.models = NewModelCache()
	}
	ev.mods = newModuleCache(cfg.Build)
	ev.evals = make([]onceCell[*modelEval], len(cfg.Shelf))
	if cfg.Mode != EvalModel {
		ev.sm = newSimMeasurer(ev.mods, cfg.Sim, ev.models.store)
	}
	return ev, nil
}

// modelEvalFor lazily builds the per-device modelEval: the first point
// landing on a shelf entry calibrates its models (through the
// ModelCache), everyone else reuses the settled evaluator — and with
// it the per-(lanes, dv) estimate memos, which are device-specific.
func (ev *evaluator) modelEvalFor(idx int) (*modelEval, error) {
	cell := &ev.evals[idx]
	cell.once.Do(func() {
		mdl, bw, err := ev.models.Models(ev.shelf[idx])
		if err != nil {
			cell.err = err
			return
		}
		cell.val = &modelEval{mdl: mdl, bw: bw, mods: ev.mods, w: ev.w, form: ev.form,
			emode: ev.emode, store: ev.models.store, estimateFn: ev.estimateFn}
	})
	return cell.val, cell.err
}

// deviceIndex resolves the variant's shelf index, cross-checking the
// axis labels against the shelf so a space built over a different
// shelf (or a reordered one) fails loudly instead of silently pricing
// points on the wrong device.
func (ev *evaluator) deviceIndex(s *Space, v Variant) (int, error) {
	idx := s.ValueDefault(v, AxisDevice, 0)
	if idx < 0 || idx >= len(ev.shelf) {
		return 0, fmt.Errorf("dse: device axis value %d outside the %d-entry shelf", idx, len(ev.shelf))
	}
	if label, ok := s.Label(v, AxisDevice); ok && label != ev.shelf[idx].Name {
		return 0, fmt.Errorf("dse: device axis labels %q at index %d but the shelf has %s there (axis and evaluator built from different shelves?)",
			label, idx, ev.shelf[idx].Name)
	}
	return idx, nil
}

func (ev *evaluator) eval(s *Space, v Variant) (*Point, error) {
	if err := s.checkAxes(ev.who, ev.allowed...); err != nil {
		return nil, err
	}
	idx, err := ev.deviceIndex(s, v)
	if err != nil {
		return nil, err
	}
	me, err := ev.modelEvalFor(idx)
	if err != nil {
		return nil, err
	}
	p, err := me.point(s, v)
	_, onShelf := s.AxisIndex(AxisDevice)
	if err != nil {
		if onShelf {
			err = fmt.Errorf("dse: on %s: %w", ev.shelf[idx].Name, err)
		}
		return nil, err
	}
	if onShelf {
		p.Device = ev.shelf[idx].Name
	}
	if ev.sm == nil {
		return p, nil
	}
	lanes := s.ValueDefault(v, AxisLanes, 1)
	meas, err := ev.sm.measure(lanes)
	if err != nil {
		return nil, err
	}
	if err := attachSim(p, ev.mode, lanes, meas); err != nil {
		return nil, err
	}
	return p, nil
}
