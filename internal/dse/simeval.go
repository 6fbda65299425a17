package dse

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/evalstore"
	"repro/internal/kernels"
	"repro/internal/pipesim"
	"repro/internal/tir"
)

// EvalMode selects which scorer ranks the variants of an exploration:
// the cost model alone (the paper's flow), the cycle-accurate pipeline
// simulator, or both — model-ranked with the simulated cycles recorded
// per point for the calibration cross-check.
type EvalMode int

const (
	// EvalModel scores points by the EKIT cost model.
	EvalModel EvalMode = iota
	// EvalSim scores points by simulated cycles: EKIT becomes
	// FD / measured cycles-per-instance.
	EvalSim
	// EvalHybrid keeps the model's EKIT ranking and records the
	// simulated cycles alongside it, feeding the report.Calibration
	// cross-check.
	EvalHybrid
)

// String names the mode as the -eval flag spells it.
func (m EvalMode) String() string {
	switch m {
	case EvalModel:
		return "model"
	case EvalSim:
		return "sim"
	case EvalHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("eval-?(%d)", int(m))
}

// EvalModeNames lists the canonical -eval flag values.
func EvalModeNames() []string { return []string{"model", "sim", "hybrid"} }

// ParseEvalMode resolves an -eval flag value.
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "model", "":
		return EvalModel, nil
	case "sim", "simulate", "simulator":
		return EvalSim, nil
	case "hybrid":
		return EvalHybrid, nil
	}
	return 0, fmt.Errorf("dse: unknown evaluation mode %q (have: %v)", s, EvalModeNames())
}

// SimConfig configures the evaluator's simulator measurement workload
// (EvalSim and EvalHybrid). The zero value is ready to use.
type SimConfig struct {
	// Seed keys the deterministic input workload (default 1).
	Seed int64
}

// SimInputs generates the deterministic simulation workload for a
// variant module: every input stream's memory object that no
// processing element produces is filled with the repo's shared LCG
// sequence (kernels.LCG) masked to the element width. The values only
// matter for output correctness — the simulated cycle count is
// data-independent — but they are seed-stable so any two evaluations
// of a variant see the same workload.
func SimInputs(m *tir.Module, seed int64) (map[string][]int64, error) {
	ix := m.Index()
	produced := make(map[string]bool, len(m.Ports))
	for _, port := range m.Ports {
		if port.Dir != tir.DirOut {
			continue
		}
		so := ix.Stream(port.Stream)
		if so == nil {
			return nil, fmt.Errorf("dse: port @%s has no stream object", port.Name)
		}
		produced[so.Mem] = true
	}
	mem := make(map[string][]int64, len(m.MemObjects))
	rng := kernels.NewLCG(seed)
	for _, port := range m.Ports {
		if port.Dir != tir.DirIn {
			continue
		}
		so := ix.Stream(port.Stream)
		if so == nil {
			return nil, fmt.Errorf("dse: port @%s has no stream object", port.Name)
		}
		if produced[so.Mem] {
			continue // fed by another PE's output, not by the host
		}
		if _, done := mem[so.Mem]; done {
			continue
		}
		mo := ix.MemObject(so.Mem)
		if mo == nil {
			return nil, fmt.Errorf("dse: stream %%%s has no memory object", so.Name)
		}
		data := make([]int64, mo.Size)
		mask := int64(mo.Elem.Mask())
		for i := range data {
			data[i] = int64(rng.Next()) & mask
		}
		mem[so.Mem] = data
	}
	return mem, nil
}

// simMeasure is the memoised outcome of simulating one lane-count
// variant: per-kernel-instance cycles and work-items.
type simMeasure struct {
	cycles, items int64
}

// measOutcome is a settled measurement (or its error), stored once per
// lane count.
type measOutcome struct {
	meas simMeasure
	err  error
}

// simMeasurer owns one immutable pipesim.CompiledDesign per lane count
// over a shared module cache, plus the memoised measurements taken on
// them. The evaluator shares one measurer across every shelf entry:
// the simulated cycle count of a variant depends only on its module,
// never on the device (devices re-price a measurement through FD, they
// never re-run it).
//
// The designs are concurrency-safe, so workers that race a cold lane
// count each drive their own pooled Instance and the first settled
// result wins. Racers cross-check their result against
// the stored one, extending the determinism contract to concurrent
// measurement. fclk and form axes re-price a measurement, they never
// re-run it — which is what makes an fclk sweep through the sim
// evaluator nearly free.
type simMeasurer struct {
	mods    *moduleCache
	seed    int64
	designs sync.Map // lanes int -> *onceCell[*pipesim.CompiledDesign]
	meas    sync.Map // lanes int -> measOutcome

	// store, when non-nil, persists measurements content-addressed by
	// (kernel IR, measurement workload): a warm run answers measure()
	// without compiling a design or generating inputs.
	store *evalstore.Store

	// exec is a test seam selecting the executor escalation level the
	// designs compile with; the zero value is batched + fused. Every
	// level is pinned bit-exact, so the executor differential replays
	// the DSE on the fallback levels through it.
	exec pipesim.Config
	// inputs generates the measurement workload: SimInputs, or a test
	// seam that the warm==cold differential tests count measurements
	// through. A seam must return SimInputs' workload, since the store
	// is keyed by the seed alone.
	inputs func(m *tir.Module, seed int64) (map[string][]int64, error)
}

func newSimMeasurer(mods *moduleCache, cfg SimConfig, store *evalstore.Store) *simMeasurer {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &simMeasurer{mods: mods, seed: seed, store: store, inputs: SimInputs}
}

// workloadDesc canonically describes the measurement workload for the
// cycles content key. The executor level is deliberately absent: the
// executors are pinned bit-exact against each other, so a measurement
// taken at any level answers a query at any other. "measure=1" is the
// one measured kernel-instance; dropping it would re-key every existing
// store (TestStoreKeysGolden pins the text).
func (sm *simMeasurer) workloadDesc() string {
	return fmt.Sprintf("seed=%d measure=1", sm.seed)
}

// design returns the shared compiled design of a lane count, compiling
// it exactly once at the measurer's executor escalation level. The
// design is immutable: callers run it through pooled instances, never
// by sharing scratch.
func (sm *simMeasurer) design(lanes int) (*pipesim.CompiledDesign, error) {
	c, _ := sm.designs.LoadOrStore(lanes, &onceCell[*pipesim.CompiledDesign]{})
	cell := c.(*onceCell[*pipesim.CompiledDesign])
	cell.once.Do(func() {
		m, err := sm.mods.module(lanes)
		if err != nil {
			cell.err = err
			return
		}
		cell.val, cell.err = pipesim.CompileConfig(m, sm.exec)
		if cell.err != nil {
			cell.err = fmt.Errorf("dse: compiling %d-lane variant: %w", lanes, cell.err)
		}
	})
	return cell.val, cell.err
}

// attachSim decorates a model-side point with the simulator's
// measurement: the measured cycles and items, and the sim-backed
// throughput at the point's (possibly fclk-overridden) FD. Under
// EvalSim the measured throughput replaces the model's ranking score.
func attachSim(p *Point, mode EvalMode, lanes int, meas simMeasure) error {
	p.SimCycles, p.SimItems = meas.cycles, meas.items
	// Par.FD already reflects any fclk-axis override, so the model and
	// the simulator price the variant at the same frequency.
	p.SimEKIT = p.Par.FD / float64(meas.cycles)
	if math.IsNaN(p.SimEKIT) || math.IsInf(p.SimEKIT, 0) || p.SimEKIT <= 0 {
		return fmt.Errorf("dse: %d-lane variant: degenerate simulated throughput %v (FD=%v, cycles=%d)",
			lanes, p.SimEKIT, p.Par.FD, meas.cycles)
	}
	if mode == EvalSim {
		p.EKIT = p.SimEKIT
	}
	return nil
}

// measure memoises the simulated per-instance (cycles, items) per lane
// count. Workers never block on each other: a cold lane count is
// measured by every worker that races it (each on its own pooled
// Instance of the shared design), the first settled outcome wins, and
// losers verify they measured the same thing.
func (sm *simMeasurer) measure(lanes int) (simMeasure, error) {
	if v, ok := sm.meas.Load(lanes); ok {
		out := v.(measOutcome)
		return out.meas, out.err
	}
	out := sm.runMeasurement(lanes)
	if prev, raced := sm.meas.LoadOrStore(lanes, out); raced {
		stored := prev.(measOutcome)
		if out.err == nil && stored.err == nil && out.meas != stored.meas {
			return simMeasure{}, fmt.Errorf(
				"dse: %d-lane simulation is nondeterministic across workers: measured %d cycles / %d items, another worker stored %d / %d",
				lanes, out.meas.cycles, out.meas.items, stored.meas.cycles, stored.meas.items)
		}
		return stored.meas, stored.err
	}
	return out.meas, out.err
}

// cyclesKey returns the persistent content address of a lane count's
// measurement, or ok=false when the persistent tier does not apply
// (no store, or the module itself failed to build — the compute path
// will surface that error).
func (sm *simMeasurer) cyclesKey(lanes int) (string, bool) {
	if sm.store == nil {
		return "", false
	}
	ir, err := sm.mods.moduleIR(lanes)
	if err != nil {
		return "", false
	}
	return evalstore.CyclesKey(ir, sm.workloadDesc()), true
}

// runMeasurement runs one kernel-instance of the generated workload
// through a pooled Instance of the lane count's shared compiled design.
// The design is immutable, so any number of workers can measure (or
// otherwise execute) it concurrently. With a persistent store attached
// an archived measurement short-circuits the whole path — no design is
// compiled and no workload generated — and a fresh measurement is
// written back best-effort.
func (sm *simMeasurer) runMeasurement(lanes int) measOutcome {
	fail := func(err error) measOutcome { return measOutcome{err: err} }
	key, persist := sm.cyclesKey(lanes)
	if persist {
		if cycles, items, ok := evalstore.LoadCycles(sm.store, key); ok {
			return measOutcome{meas: simMeasure{cycles: cycles, items: items}}
		}
	}
	d, err := sm.design(lanes)
	if err != nil {
		return fail(err)
	}
	mem, err := sm.inputs(d.Module(), sm.seed)
	if err != nil {
		return fail(fmt.Errorf("dse: generating %d-lane workload: %w", lanes, err))
	}
	inst := d.Acquire()
	defer d.Release(inst)
	res, err := inst.Run(mem)
	if err != nil {
		return fail(fmt.Errorf("dse: simulating %d-lane variant: %w", lanes, err))
	}
	if res.Cycles <= 0 || res.Items <= 0 {
		return fail(fmt.Errorf("dse: %d-lane variant simulated no work (%d cycles, %d items)",
			lanes, res.Cycles, res.Items))
	}
	if persist {
		_ = evalstore.SaveCycles(sm.store, key, res.Cycles, res.Items)
	}
	return measOutcome{meas: simMeasure{cycles: res.Cycles, items: res.Items}}
}
