package pipesim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kernels"
)

// TestConcurrentSharedDesign is the concurrency contract of the
// compile/instance split: N goroutines share ONE CompiledDesign —
// half on dedicated instances, half churning pooled instances through
// Acquire/Release — and every result must be bit-identical to the
// sequential oracle. Run with -race; at every executor escalation
// level the design is read-only after Compile, so the race detector
// proves the immutability claim rather than taking it on faith.
func TestConcurrentSharedDesign(t *testing.T) {
	levels := []struct {
		name string
		cfg  Config
	}{
		{"batched", Config{}},
		{"nofuse", Config{DisableFuse: true}},
		{"scalar", Config{DisableBatch: true, DisableFuse: true}},
	}
	const goroutines = 8
	const reps = 3

	type outcome struct {
		tag string
		res *Result
		err error
	}

	for _, lv := range levels {
		for _, spec := range goldenSpecs() {
			m, err := spec.Module()
			if err != nil {
				t.Fatalf("%s: %v", spec.Name(), err)
			}
			mem, err := kernels.BindInputs(spec.MakeInputs(23), spec.LaneCount())
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunOracle(m, mem)
			if err != nil {
				t.Fatalf("%s: oracle: %v", spec.Name(), err)
			}
			d, err := CompileConfig(m, lv.cfg)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", lv.name, spec.Name(), err)
			}

			results := make(chan outcome, goroutines*reps)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tag := fmt.Sprintf("%s/%s/lanes%d/g%d", lv.name, spec.Name(), spec.LaneCount(), g)
					if g%2 == 0 {
						// Dedicated instance reused across reps.
						inst := d.NewInstance()
						for rep := 0; rep < reps; rep++ {
							res, err := inst.Run(mem)
							results <- outcome{tag, res, err}
						}
						return
					}
					// Pooled instance per rep: Release must not
					// invalidate the Result already handed out.
					for rep := 0; rep < reps; rep++ {
						inst := d.Acquire()
						res, err := inst.Run(mem)
						d.Release(inst)
						results <- outcome{tag, res, err}
					}
				}(g)
			}
			wg.Wait()
			close(results)
			for o := range results {
				if o.err != nil {
					t.Fatalf("%s: %v", o.tag, o.err)
				}
				requireIdenticalResult(t, o.tag, o.res, want)
			}
		}
	}
}

// TestRunDoesNotCopyOrMutateInputs is the aliasing contract that
// replaced the seed's defensive input copies: caller-provided arrays
// are never written (bindPE materialises every design-written object
// fresh), Result.Mem aliases the inputs, and output arrays are fresh
// allocations distinct from every input.
func TestRunDoesNotCopyOrMutateInputs(t *testing.T) {
	for _, spec := range goldenSpecs() {
		m, err := spec.Module()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		mem, err := kernels.BindInputs(spec.MakeInputs(7), spec.LaneCount())
		if err != nil {
			t.Fatal(err)
		}
		snapshot := map[string][]int64{}
		for name, data := range mem {
			c := make([]int64, len(data))
			copy(c, data)
			snapshot[name] = c
		}

		d, err := Compile(m)
		if err != nil {
			t.Fatalf("%s: compile: %v", spec.Name(), err)
		}
		res, err := d.Run(mem)
		if err != nil {
			t.Fatalf("%s: run: %v", spec.Name(), err)
		}

		tag := fmt.Sprintf("%s/lanes%d", spec.Name(), spec.LaneCount())
		for name, data := range mem {
			snap := snapshot[name]
			for i := range snap {
				if data[i] != snap[i] {
					t.Fatalf("%s: input %s[%d] mutated: %d, was %d", tag, name, i, data[i], snap[i])
				}
			}
			got, ok := res.Mem[name]
			if !ok {
				t.Errorf("%s: input %s missing from Result.Mem", tag, name)
				continue
			}
			if len(data) > 0 && &got[0] != &data[0] {
				t.Errorf("%s: Result.Mem[%s] is a copy, want the caller's array aliased", tag, name)
			}
		}
		outputs := 0
		for name, arr := range res.Mem {
			if _, isInput := mem[name]; isInput {
				continue
			}
			outputs++
			for iname, in := range mem {
				if len(arr) > 0 && len(in) > 0 && &arr[0] == &in[0] {
					t.Errorf("%s: output %s aliases input %s, want a fresh array", tag, name, iname)
				}
			}
		}
		if outputs == 0 {
			t.Errorf("%s: no output objects in Result.Mem", tag)
		}
	}
}

// TestRunOptionsWorkers: the per-execution worker bound is a resource
// knob, never a semantic one — any bound is bit-identical, and the
// option must not stick to the instance across runs.
func TestRunOptionsWorkers(t *testing.T) {
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(3), spec.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	inst := d.NewInstance()
	seq, err := inst.RunWith(mem, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par, err := inst.RunWith(mem, RunOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResult(t, fmt.Sprintf("workers=%d", w), par, seq)
	}
	want, err := RunOracle(m, mem)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResult(t, "workers/oracle", seq, want)
}

// TestDesignCacheReuse: the package-level convenience entry points
// (Run, RunIterations) must not recompile a module they have already
// seen, distinct executor levels get distinct designs, and the cache
// stays bounded under module churn.
func TestDesignCacheReuse(t *testing.T) {
	spec := kernels.HotspotSpec{Rows: 12, Cols: 17, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := cachedDesign(m, defaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cachedDesign(m, defaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("cachedDesign compiled the same (module, config) twice")
	}
	scalar := Config{DisableBatch: true, DisableFuse: true}
	d3, err := cachedDesign(m, scalar)
	if err != nil {
		t.Fatal(err)
	}
	// Under -pipesim.scalar -pipesim.nofuse the default IS the scalar
	// level, so the keys coincide by design.
	if d3 == d1 && scalar != defaultConfig {
		t.Errorf("cachedDesign shared one design across executor levels")
	}

	// Churn more distinct module CONTENTS than the bound (the cache is
	// content-keyed, so re-building an equal module is a hit, not
	// churn): the cache must stay at designCacheBound entries and
	// evicted modules must recompile and still run correctly.
	for i := 0; i < designCacheBound+8; i++ {
		mi, err := kernels.SORSpec{IM: 5, JM: 4, KM: 3 + i, Lanes: 1}.Module()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cachedDesign(mi, defaultConfig); err != nil {
			t.Fatal(err)
		}
	}
	designCache.Lock()
	n, ord := len(designCache.entries), len(designCache.order)
	designCache.Unlock()
	if n > designCacheBound || ord != n {
		t.Errorf("design cache: %d entries, %d order slots, bound %d", n, ord, designCacheBound)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(5), spec.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(m, mem)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunOracle(m, mem)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResult(t, "cache/evicted", got, want)
}

// TestDesignCacheContentKeyed: the package cache is keyed by module
// CONTENT, not *tir.Module pointer identity. The fixed regression: a
// pointer key could serve a stale design when a freed module's address
// was reused by a structurally different allocation, and never shared
// designs between equal modules built independently. Content keys make
// the address irrelevant in both directions.
func TestDesignCacheContentKeyed(t *testing.T) {
	spec := kernels.SORSpec{IM: 6, JM: 5, KM: 4, Lanes: 2}
	m1, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("spec.Module returned a shared module; the test needs distinct allocations")
	}
	d1, err := cachedDesign(m1, defaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cachedDesign(m2, defaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("equal modules built independently did not share a cached design")
	}

	// A structurally different module must never alias — whatever
	// address it was allocated at.
	otherSpec := kernels.SORSpec{IM: 6, JM: 5, KM: 7, Lanes: 2}
	other, err := otherSpec.Module()
	if err != nil {
		t.Fatal(err)
	}
	if designKey(other, defaultConfig) == designKey(m1, defaultConfig) {
		t.Fatalf("structurally different modules share a content key")
	}
	d3, err := cachedDesign(other, defaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Errorf("structurally different modules shared a cached design")
	}
	// And the design served through the cache must compute the module it
	// was asked for: with a stale aliased entry these results would be
	// the wrong kernel's.
	mem, err := kernels.BindInputs(otherSpec.MakeInputs(9), otherSpec.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(other, mem)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunOracle(other, mem)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResult(t, "content-key", got, want)
}

// TestReleaseForeignInstancePanics: cross-design Release would poison
// both pools; it must fail loudly.
func TestReleaseForeignInstancePanics(t *testing.T) {
	m1, err := kernels.SORSpec{IM: 5, JM: 4, KM: 3, Lanes: 1}.Module()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := kernels.HotspotSpec{Rows: 6, Cols: 7, Lanes: 1}.Module()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Compile(m1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Compile(m2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Release of a foreign design's instance did not panic")
		}
	}()
	d2.Release(d1.Acquire())
}

// TestPooledRunAllocations gates the perf claim of the instance pool:
// a steady-state pooled Run allocates only the per-run outputs (the
// Result, its maps, the fresh output arrays) — no compiled-program
// scratch, no input copies. The bound is deliberately loose against
// map-internals noise but far below one progState re-init, so a
// regression that re-allocates scratch per run trips it immediately.
func TestPooledRunAllocations(t *testing.T) {
	if oracle {
		t.Skip("oracle mode does not use the compiled instance pool")
	}
	spec := kernels.SORSpec{IM: 15, JM: 10, KM: 8, Lanes: 1}
	m, err := spec.Module()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := kernels.BindInputs(spec.MakeInputs(13), spec.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(mem); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.Run(mem); err != nil {
			t.Fatal(err)
		}
	})
	// One output array + Result + two small maps + pool bookkeeping.
	const maxAllocs = 24
	if allocs > maxAllocs {
		t.Errorf("pooled Run: %.1f allocs/op, want <= %d", allocs, maxAllocs)
	}

	// Bytes gate vs the seed-equivalent behaviour (defensive copy of
	// every input array before the run): dropping the copies must cut
	// allocated bytes by at least half on this 2-input/1-output kernel.
	measure := func(f func()) uint64 {
		const runs = 50
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	seedBytes := measure(func() {
		copied := make(map[string][]int64, len(mem))
		for name, data := range mem {
			c := make([]int64, len(data))
			copy(c, data)
			copied[name] = c
		}
		if _, err := d.Run(copied); err != nil {
			t.Fatal(err)
		}
	})
	pooledBytes := measure(func() {
		if _, err := d.Run(mem); err != nil {
			t.Fatal(err)
		}
	})
	if pooledBytes*2 > seedBytes {
		t.Errorf("pooled Run allocated %d bytes / 50 runs, want <= 50%% of seed-equivalent %d",
			pooledBytes, seedBytes)
	}
}
