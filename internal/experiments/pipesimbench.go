// Pipesim benchmark report: the machine-readable perf trajectory of the
// simulator, committed as BENCH_PIPESIM.json at the repo root (see
// DESIGN.md). Each golden kernel is timed through the executor
// escalation — the retained interpreter oracle, the cold
// compile-and-run path, one reused instance of a compiled design at
// the plain scalar level, and one at batched+fused — so regressions in
// the compiled datapath, the compilation cost, or the batching/fusion
// win are visible in review diffs. Schema v3 adds the compile/instance-split
// columns: steady-state pooled-instance timing, its allocation cost
// against the seed-equivalent defensive-copy behaviour, and the
// aggregate throughput of 1/4/8 goroutines sharing one CompiledDesign.
// Per-kernel fusion counts ride along so a rule regression shows up
// even when timing noise hides it.

package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/pipesim"
)

// PipesimBenchRow is the measurement of one golden kernel.
type PipesimBenchRow struct {
	Kernel string `json:"kernel"`
	Items  int64  `json:"items"`
	Cycles int64  `json:"cycles"`
	// OracleNsOp is the retained interpreter (the pre-compile-once
	// executor): one kernel-instance, nanoseconds.
	OracleNsOp int64 `json:"oracle_ns_op"`
	// CompiledNsOp is pipesim.Run: validate + compile + execute, the
	// cost a cold DSE point pays.
	CompiledNsOp int64 `json:"compiled_ns_op"`
	// RunnerNsOp is Instance.Run on one reused instance of a design
	// compiled at the default (batched + fused) escalation: the
	// amortised per-instance cost iteration loops pay.
	RunnerNsOp int64 `json:"runner_ns_op"`
	// ScalarNsOp is one reused instance of a design compiled with
	// batching and fusion disabled: the plain per-item compiled loop,
	// the baseline the batched executor is measured against.
	ScalarNsOp int64 `json:"scalar_ns_op"`
	// BatchedNsOp is the reused batched+fused instance (same
	// measurement as RunnerNsOp, named so the escalation pair
	// scalar/batched reads off the row directly).
	BatchedNsOp int64 `json:"batched_ns_op"`
	// SpeedupCompiled is OracleNsOp / CompiledNsOp.
	SpeedupCompiled float64 `json:"speedup_compiled"`
	// SpeedupRunner is OracleNsOp / RunnerNsOp.
	SpeedupRunner float64 `json:"speedup_runner"`
	// SpeedupBatched is OracleNsOp / BatchedNsOp.
	SpeedupBatched float64 `json:"speedup_batched"`
	// SpeedupVsScalar is ScalarNsOp / BatchedNsOp: the isolated win of
	// batching + fusion over the scalar compiled loop.
	SpeedupVsScalar float64 `json:"speedup_vs_scalar"`
	// PooledNsOp is CompiledDesign.Run on a warmed pool: the
	// steady-state per-instance cost including Acquire/Release, what a
	// concurrent service pays per request.
	PooledNsOp int64 `json:"pooled_ns_op"`
	// PooledAllocsOp / PooledAllocBytesOp are the heap allocations of
	// one steady-state pooled run (the Result, its maps and the fresh
	// output arrays — no scratch, no input copies).
	PooledAllocsOp     float64 `json:"pooled_allocs_op"`
	PooledAllocBytesOp float64 `json:"pooled_alloc_bytes_op"`
	// SeedAllocBytesOp is the seed-equivalent allocation cost per run
	// (a defensive copy of every input array before executing), the
	// baseline the pooled path is measured against.
	SeedAllocBytesOp float64 `json:"seed_equiv_alloc_bytes_op"`
	// AllocReduction is 1 - PooledAllocBytesOp/SeedAllocBytesOp: the
	// fraction of per-run allocated bytes the split removed.
	AllocReduction float64 `json:"alloc_reduction"`
	// ThroughputJN is the aggregate rate (kernel-instances per second)
	// of N goroutines sharing ONE CompiledDesign on pooled instances.
	ThroughputJ1 float64 `json:"throughput_j1_ops_s"`
	ThroughputJ4 float64 `json:"throughput_j4_ops_s"`
	ThroughputJ8 float64 `json:"throughput_j8_ops_s"`
	// ScaleJN is ThroughputJN / ThroughputJ1. On a multi-core host this
	// should approach min(N, cores); on cpus=1 it hovers near 1.0 — read
	// it against the report's cpus field.
	ScaleJ4 float64 `json:"scale_j4"`
	ScaleJ8 float64 `json:"scale_j8"`
	// Fusion counts the superinstruction rewrites the kernel's programs
	// took at the default escalation.
	Fusion pipesim.FusionStats `json:"fusion"`
}

// PipesimBenchResult is the whole report.
type PipesimBenchResult struct {
	Schema string            `json:"schema"`
	GOOS   string            `json:"goos"`
	GOARCH string            `json:"goarch"`
	CPUs   int               `json:"cpus"`
	Rows   []PipesimBenchRow `json:"benchmarks"`
}

// PipesimBenchSpecs are the measured workloads: the same SOR instance
// BenchmarkPipelineSimulator has always used (so the trajectory links
// back to pre-compile-once history) plus mid-size instances of the
// other golden kernels. The root BenchmarkPipesim family consumes this
// same list, keeping the Go benchmark series and the committed
// BENCH_PIPESIM.json baseline on identical workloads.
func PipesimBenchSpecs() []kernels.LanedSpec {
	return []kernels.LanedSpec{
		kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1},
		kernels.HotspotSpec{Rows: 64, Cols: 93, Lanes: 1},
		kernels.LavaMDSpec{Pairs: 4096, Lanes: 1},
		kernels.SRADSpec{Rows: 64, Cols: 75, Lanes: 1},
	}
}

// PipesimBench times every golden kernel through the three executor
// paths. minTime is the budget per (kernel, path) measurement; zero
// selects a default suited to a committed baseline.
func PipesimBench(minTime time.Duration) (*PipesimBenchResult, error) {
	if minTime <= 0 {
		minTime = 250 * time.Millisecond
	}
	res := &PipesimBenchResult{
		Schema: "tytra-bench-pipesim/v3",
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.GOMAXPROCS(0),
	}
	for _, spec := range PipesimBenchSpecs() {
		m, err := spec.Module()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.Name(), err)
		}
		mem, err := kernels.BindInputs(spec.MakeInputs(1), spec.LaneCount())
		if err != nil {
			return nil, err
		}
		ref, err := pipesim.Run(m, mem)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.Name(), err)
		}
		row := PipesimBenchRow{
			Kernel: spec.Name(),
			Items:  ref.Items,
			Cycles: ref.Cycles,
		}
		row.OracleNsOp, err = timeIt(minTime, func() error {
			_, err := pipesim.RunOracle(m, mem)
			return err
		})
		if err != nil {
			return nil, err
		}
		// The cold path must actually compile: pipesim.Run now memoises
		// designs, so the cold cost is measured through CompileConfig
		// directly (validate + compile + execute per call, the cost a
		// cache-missing DSE point pays).
		row.CompiledNsOp, err = timeIt(minTime, func() error {
			d, err := pipesim.CompileConfig(m, pipesim.Config{})
			if err != nil {
				return err
			}
			_, err = d.Run(mem)
			return err
		})
		if err != nil {
			return nil, err
		}
		design, err := pipesim.Compile(m)
		if err != nil {
			return nil, err
		}
		inst := design.NewInstance()
		row.RunnerNsOp, err = timeIt(minTime, func() error {
			_, err := inst.Run(mem)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.BatchedNsOp = row.RunnerNsOp
		row.Fusion = design.FusionStats()
		scalar, err := pipesim.CompileConfig(m, pipesim.Config{DisableBatch: true, DisableFuse: true})
		if err != nil {
			return nil, err
		}
		scalarInst := scalar.NewInstance()
		row.ScalarNsOp, err = timeIt(minTime, func() error {
			_, err := scalarInst.Run(mem)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.SpeedupCompiled = float64(row.OracleNsOp) / float64(row.CompiledNsOp)
		row.SpeedupRunner = float64(row.OracleNsOp) / float64(row.RunnerNsOp)
		row.SpeedupBatched = float64(row.OracleNsOp) / float64(row.BatchedNsOp)
		row.SpeedupVsScalar = float64(row.ScalarNsOp) / float64(row.BatchedNsOp)

		// Compile/instance-split columns: steady-state pooled runs on
		// the shared design, their allocation profile, and concurrent
		// throughput scaling.
		if _, err := design.Run(mem); err != nil { // warm the pool
			return nil, err
		}
		row.PooledNsOp, err = timeIt(minTime, func() error {
			_, err := design.Run(mem)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.PooledAllocsOp, row.PooledAllocBytesOp, err = allocPerOp(func() error {
			_, err := design.Run(mem)
			return err
		})
		if err != nil {
			return nil, err
		}
		_, row.SeedAllocBytesOp, err = allocPerOp(func() error {
			copied := make(map[string][]int64, len(mem))
			for name, data := range mem {
				c := make([]int64, len(data))
				copy(c, data)
				copied[name] = c
			}
			_, err := design.Run(copied)
			return err
		})
		if err != nil {
			return nil, err
		}
		if row.SeedAllocBytesOp > 0 {
			row.AllocReduction = 1 - row.PooledAllocBytesOp/row.SeedAllocBytesOp
		}
		for _, c := range []struct {
			j   int
			dst *float64
		}{{1, &row.ThroughputJ1}, {4, &row.ThroughputJ4}, {8, &row.ThroughputJ8}} {
			*c.dst, err = concurrentThroughput(minTime, c.j, func() error {
				_, err := design.Run(mem)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		if row.ThroughputJ1 > 0 {
			row.ScaleJ4 = row.ThroughputJ4 / row.ThroughputJ1
			row.ScaleJ8 = row.ThroughputJ8 / row.ThroughputJ1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// allocPerOp measures heap allocations per call (count and bytes) from
// the runtime's monotonic malloc counters, pinned to one P so no
// background goroutine pollutes the delta. It reports the median of
// per-call deltas, not their mean: a pooled call that now and then
// allocates a fresh Instance (the race detector makes sync.Pool drop
// one Put in four; a GC empties the pool) is an outlier, not the
// steady state the figure describes.
func allocPerOp(f func() error) (allocs, bytes float64, err error) {
	const runs = 31 // an odd count: the median is one measured call
	// Warm caches and surface errors early.
	if err := f(); err != nil {
		return 0, 0, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	counts := make([]float64, runs)
	sizes := make([]float64, runs)
	for i := range counts {
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&after)
		counts[i] = float64(after.Mallocs - before.Mallocs)
		sizes[i] = float64(after.TotalAlloc - before.TotalAlloc)
	}
	return median(counts), median(sizes), nil
}

// median returns the middle element of xs, sorting it in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// concurrentThroughput measures the aggregate rate of `workers`
// goroutines each looping run() — the shared-design service pattern.
// Returns operations per second of wall-clock time.
func concurrentThroughput(minTime time.Duration, workers int, run func() error) (float64, error) {
	start := time.Now() //lint:allow notimenow
	if err := run(); err != nil {
		return 0, err
	}
	per := time.Since(start) //lint:allow notimenow
	if per <= 0 {
		per = time.Nanosecond
	}
	n := int(minTime/per)/workers + 1
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	start = time.Now() //lint:allow notimenow
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := run(); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds() //lint:allow notimenow
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(n*workers) / elapsed, nil
}

// timeIt measures ns per call with a calibration pass followed by a
// timed batch covering at least minTime.
func timeIt(minTime time.Duration, f func() error) (int64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	start := time.Now() //lint:allow notimenow
	if err := f(); err != nil {
		return 0, err
	}
	per := time.Since(start) //lint:allow notimenow
	if per <= 0 {
		per = time.Nanosecond
	}
	n := int(minTime/per) + 1
	start = time.Now() //lint:allow notimenow
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(n), nil //lint:allow notimenow
}

// JSON renders the report for BENCH_PIPESIM.json.
func (r *PipesimBenchResult) JSON() string {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "{}" // cannot happen: the struct is plain data
	}
	return string(b) + "\n"
}
