package experiments

import (
	"flag"
	"runtime"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/membw"
	"repro/internal/perf"
	"repro/internal/pipesim"
)

// -experiments.benchsmoke gates the timing-sensitive smoke below so the
// default `go test ./...` run stays load-immune; CI runs it as its own
// step:
//
//	go test ./internal/experiments -experiments.benchsmoke -run PipesimBenchSmoke
var benchSmoke = flag.Bool("experiments.benchsmoke", false,
	"run the pipesim executor-escalation perf smoke (timing-sensitive)")

// TestPipesimBenchSmoke regenerates the BENCH_PIPESIM measurements at a
// short budget and fails if the batched+fused executor is slower than
// the scalar compiled loop on any corpus kernel. The committed margin
// is >2x per kernel, so a >=1.0 gate only trips on a real regression
// (e.g. a kernel silently falling off the batched path), not on CI
// noise.
func TestPipesimBenchSmoke(t *testing.T) {
	if !*benchSmoke {
		t.Skip("timing smoke; enable with -experiments.benchsmoke")
	}
	r, err := PipesimBench(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.SpeedupVsScalar < 1.0 {
			t.Errorf("%s: batched executor slower than scalar: %d ns/op vs %d ns/op (%.2fx)",
				row.Kernel, row.BatchedNsOp, row.ScalarNsOp, row.SpeedupVsScalar)
		}
		if row.Fusion.Total() == 0 {
			t.Errorf("%s: no superinstruction fusions applied", row.Kernel)
		}
	}
}

// TestConcurrentThroughputSmoke is the scaling claim of the
// compile/instance split: goroutines sharing ONE CompiledDesign on
// pooled instances must deliver strictly more aggregate throughput at
// -j4 than at -j1. Meaningless on a single-CPU host (there is nothing
// to scale onto), so it skips there; CI runners have >= 2.
func TestConcurrentThroughputSmoke(t *testing.T) {
	if !*benchSmoke {
		t.Skip("timing smoke; enable with -experiments.benchsmoke")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d: concurrent scaling needs >= 2 CPUs", runtime.GOMAXPROCS(0))
	}
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(1), spec.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pipesim.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(mem); err != nil { // warm the pool
		t.Fatal(err)
	}
	run := func() error {
		_, err := d.Run(mem)
		return err
	}
	j1, err := concurrentThroughput(200*time.Millisecond, 1, run)
	if err != nil {
		t.Fatal(err)
	}
	j4, err := concurrentThroughput(200*time.Millisecond, 4, run)
	if err != nil {
		t.Fatal(err)
	}
	if j4 <= j1 {
		t.Errorf("shared-design throughput did not scale: %.0f ops/s at -j4 vs %.0f ops/s at -j1", j4, j1)
	}
}

// TestDSEModelBenchSmoke regenerates the BENCH_DSE_MODEL measurements
// at a short budget and fails if the compiled cost model loses its
// headline margins: >=5x over the tree-walk oracle per corpus kernel
// and <=2 steady-state allocations per variant. The committed margins
// are two orders of magnitude, so the gate only trips on a real
// regression (e.g. the compiled path silently falling back to the
// tree), not on CI noise.
func TestDSEModelBenchSmoke(t *testing.T) {
	if !*benchSmoke {
		t.Skip("timing smoke; enable with -experiments.benchsmoke")
	}
	r, err := DSEModelBench(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Speedup < 5 {
			t.Errorf("%s: compiled estimate only %.1fx over the tree oracle (%d ns vs %d ns)",
				row.Kernel, row.Speedup, row.WarmNsOp, row.TreeNsOp)
		}
		if row.AllocsPerVariant > 2 {
			t.Errorf("%s: %.1f allocs per compiled estimate, cap is 2", row.Kernel, row.AllocsPerVariant)
		}
	}
	if len(r.Engine) == 0 {
		t.Error("no engine sweep rows")
	}
	for _, row := range r.Engine {
		if row.Points < 100000 {
			t.Errorf("j%d: synthetic space has %d points, want >= 100000", row.Workers, row.Points)
		}
	}
}

// maxNameResolutionRatio caps the time ratio of a large design over a
// small one (~16x the ports) for the passes that resolve every port's
// stream and memory object. Name resolution through a per-pass
// tir.Index keeps them linear (~16-25x here); the per-lookup linear
// scans they replaced were quadratic (~190x for perf.Extract).
const maxNameResolutionRatio = 48

// scalingRatio times small and large, each as the best of three short
// batches so a noisy neighbour inflates neither side, and returns
// large/small.
func scalingRatio(small, large func() error) (ratio float64, smallNs, largeNs int64, err error) {
	best := func(f func() error) (int64, error) {
		var min int64
		for r := 0; r < 3; r++ {
			ns, err := timeIt(100*time.Millisecond, f)
			if err != nil {
				return 0, err
			}
			if r == 0 || ns < min {
				min = ns
			}
		}
		return min, nil
	}
	if smallNs, err = best(small); err != nil {
		return 0, 0, 0, err
	}
	if largeNs, err = best(large); err != nil {
		return 0, 0, 0, err
	}
	return float64(largeNs) / float64(smallNs), smallNs, largeNs, nil
}

// TestNameResolutionScalingSmoke gates the linear-time name resolution
// of perf.Extract (sor, 64 vs 1008 lanes: 192 vs 3024 ports) and of
// pipesim.CompileConfig (hotspot, 64 vs 1024 lanes) at
// maxNameResolutionRatio.
func TestNameResolutionScalingSmoke(t *testing.T) {
	if !*benchSmoke {
		t.Skip("timing smoke; enable with -experiments.benchsmoke")
	}
	tgt := device.GSD8Edu()
	mdl, err := costmodel.Calibrate(tgt)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := membw.Build(tgt)
	if err != nil {
		t.Fatal(err)
	}
	extract := func(lanes int) func() error {
		m, err := Fig15Spec(lanes).Module()
		if err != nil {
			t.Fatal(err)
		}
		est, err := mdl.Estimate(m)
		if err != nil {
			t.Fatal(err)
		}
		return func() error {
			_, err := perf.Extract(est, bw, perf.Workload{NKI: 10})
			return err
		}
	}
	compile := func(lanes int) func() error {
		m, err := kernels.HotspotSpec{Rows: 2048, Cols: 128, Lanes: lanes}.Module()
		if err != nil {
			t.Fatal(err)
		}
		return func() error {
			_, err := pipesim.CompileConfig(m, pipesim.Config{})
			return err
		}
	}
	for _, c := range []struct {
		name         string
		small, large func() error
	}{
		{"perf.Extract sor 1008/64 lanes", extract(64), extract(1008)},
		{"pipesim.CompileConfig hotspot 1024/64 lanes", compile(64), compile(1024)},
	} {
		ratio, smallNs, largeNs, err := scalingRatio(c.small, c.large)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %.1fx (%d ns vs %d ns)", c.name, ratio, largeNs, smallNs)
		if ratio > maxNameResolutionRatio {
			t.Errorf("%s: time ratio %.1fx exceeds %dx: name resolution has gone superlinear",
				c.name, ratio, maxNameResolutionRatio)
		}
	}
}
