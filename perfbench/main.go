// Command perfbench is the repository's end-to-end benchmark. It runs
// whole design-space explorations the way tytradse does, through the
// core and dse entry points, and reports what a tytradse user waits
// for.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload model-wide|hybrid-fig15|shelf-cache \
//	    --seed N --seconds S --trace 0|1
//
// Every timed run starts in a fresh process, since a tytradse user
// pays calibration on every invocation; only the persistent evaluation
// store carries work from one run to the next. Runs follow one another
// in one process tree, one at a time, with one engine worker per CPU.
// The seed keys the simulator's input data.
//
// With --trace 0 the benchmark repeats untraced runs for the given
// seconds and prints the medians of the end-to-end metrics. With
// --trace 1 it alternates an untraced run with a traced replay of the
// same workload, which calls the layers serially from this package and
// records one span per call, and prints the per-layer metrics. Either
// way the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Each run's output is checked: a digest of every point (variant, EKIT
// bits, fit, simulated cycles and items), the walls and the best
// variant must equal the one in golden.json, a warm run must equal its
// cold run, and a replay must reproduce the untraced run's points.
// `go test -run TestGolden -update` rewrites golden.json.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/dse"
	"repro/internal/evalstore"
)

//go:embed golden.json
var goldenJSON []byte

// golden is the expected output of one workload, for any seed.
type golden struct {
	Digest       string `json:"digest"`
	SampleDigest string `json:"sample_digest,omitempty"`
}

func loadGolden(name string) (golden, error) {
	var all map[string]golden
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return golden{}, fmt.Errorf("golden.json: %w", err)
	}
	g, ok := all[name]
	if !ok {
		return golden{}, fmt.Errorf("golden.json has no entry for %s", name)
	}
	return g, nil
}

// workDir, under the build directory the checkout ignores, holds each
// invocation's stores and the last trace of each workload.
var workDir = filepath.Join(".bench_build", "perfbench")

const (
	// minReps is the least number of untraced runs behind a median.
	minReps = 3
	// deadline bounds one benchmark invocation, children included.
	deadline = 170 * time.Second
	// stopBy is when no further run may start: the longest run so far
	// must still fit before it.
	stopBy = 150 * time.Second
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: model-wide | hybrid-fig15 | shelf-cache")
	seed := fs.Int64("seed", 1, "seed of the simulator's input data")
	seconds := fs.Int("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced replays")
	role := fs.String("role", "bench", "internal: bench | run | replay")
	storeDir := fs.String("store", "", "internal: evaluation store directory of a run or replay")
	sample := fs.Bool("sample", false, "internal: a model-only run also cross-checks its simulator sample")
	traceFile := fs.String("tracefile", "", "internal: where a replay writes its spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	switch *role {
	case "bench":
		err = bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	case "run":
		err = runRole(w, *seed, *storeDir, *sample)
	case "replay":
		err = replayRole(w, *seed, *storeDir, *traceFile)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runRole is one untraced run in its own process; its result is one
// JSON line on standard output.
func runRole(w workload, seed int64, storeDir string, sample bool) error {
	var store *evalstore.Store
	if storeDir != "" {
		var err error
		if store, err = evalstore.Open(storeDir); err != nil {
			return err
		}
	}
	res, err := runWorkload(w, seed, store, sample)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// replayRole is one traced replay in its own process.
func replayRole(w workload, seed int64, storeDir, traceFile string) error {
	res, err := replay(w, seed, storeDir, traceFile)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// bencher runs child processes of one benchmark invocation and keeps
// the output-check tally.
type bencher struct {
	ctx    context.Context
	w      workload
	seed   int64
	gold   golden
	exe    string
	dir    string // this invocation's scratch directory
	nextID int

	attempted, failed int
}

// child runs this binary in another role and decodes its JSON result.
// It returns the child's peak resident set size in MB.
func (b *bencher) child(out any, args ...string) (float64, error) {
	args = append([]string{"-workload", b.w.name, "-seed", fmt.Sprint(b.seed)}, args...)
	cmd := exec.CommandContext(b.ctx, b.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s %v: %w", filepath.Base(b.exe), args, err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	return rssMB, json.Unmarshal(stdout.Bytes(), out)
}

// freshDir returns a new, not yet existing directory path under the
// invocation's scratch directory.
func (b *bencher) freshDir(kind string) string {
	b.nextID++
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", kind, b.nextID))
}

// check counts an output mismatch as a failure and reports it.
func (b *bencher) check(what, got, want string) {
	if got != want {
		b.failed++
		fmt.Printf("output check failed: %s is %s, want %s\n", what, got, want)
	}
}

// rep is one untraced run of the workload: a cold run and, for a store
// workload, a warm run against the store the cold run wrote.
type rep struct {
	cold, warm *runResult
	rssMB      float64
}

// untraced performs one rep and checks its outputs.
func (b *bencher) untraced(sample bool) (*rep, error) {
	var storeArgs []string
	if b.w.store {
		dir := b.freshDir("store")
		defer os.RemoveAll(dir)
		storeArgs = []string{"-store", dir}
	}
	args := append([]string{"-role", "run"}, storeArgs...)
	if sample {
		args = append(args, "-sample")
	}
	r := &rep{}
	rss, err := b.child(&r.cold, args...)
	if err != nil {
		return nil, err
	}
	b.attempted += r.cold.Points
	r.rssMB = rss
	b.check("digest", r.cold.Digest, b.gold.Digest)
	if sample {
		b.check("sample digest", r.cold.SampleDigest, b.gold.SampleDigest)
	}
	if b.w.store {
		rss, err := b.child(&r.warm, args...)
		if err != nil {
			return nil, err
		}
		b.attempted += r.warm.Points
		r.rssMB = max(r.rssMB, rss)
		b.check("warm digest", r.warm.Digest, r.cold.Digest)
	}
	return r, nil
}

// traced performs one traced replay and checks that it reproduces the
// untraced run u.
func (b *bencher) traced(u *rep) (*replayResult, float64, error) {
	dir := b.freshDir("replay-store")
	defer os.RemoveAll(dir)
	traceFile := filepath.Join(workDir, b.w.name+".trace.jsonl")
	var r replayResult
	rss, err := b.child(&r, "-role", "replay", "-store", dir, "-tracefile", traceFile)
	if err != nil {
		return nil, 0, err
	}
	b.attempted += r.Points
	b.check("replay points digest", r.PointsDigest, u.cold.PointsDigest)
	if len(b.w.sample) > 0 {
		b.check("replay sample digest", r.SampleDigest, u.cold.SampleDigest)
	}
	return &r, rss, nil
}

// loop repeats one rep until the measuring time is spent: at least
// min times, and no rep starts that the longest so far says would end
// after the measuring time.
func loop(measure time.Duration, min int, once func() error) error {
	start := time.Now()
	var longest time.Duration
	for n := 0; ; n++ {
		elapsed := time.Since(start)
		if (n >= min && elapsed+longest > measure) || (n > 0 && elapsed+longest > stopBy) {
			return nil
		}
		t := time.Now()
		if err := once(); err != nil {
			return err
		}
		longest = max(longest, time.Since(t))
	}
}

// bench is the driver-facing entry point: it measures the workload
// and prints the report and the result line.
func bench(w workload, seed int64, measure time.Duration, trace bool) error {
	gold, err := loadGolden(w.name)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	b := &bencher{ctx: ctx, w: w, seed: seed, gold: gold, exe: exe, dir: dir}

	fmt.Printf("perfbench %s: seed %d, %s, nproc %d, GOMAXPROCS %d, engine workers %d\n",
		w.name, seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), workers())
	var metrics map[string]metric
	if trace {
		metrics, err = b.perLayer(measure)
	} else {
		metrics, err = b.endToEnd(measure)
	}
	if err != nil {
		return err
	}
	return writeResult(os.Stdout, b.failed == 0, b.attempted, b.failed, metrics)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(out io.Writer, correct bool, attempted, failed int, metrics map[string]metric) error {
	if attempted < 1 {
		return errors.New("no run was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// series collects one metric's samples across reps.
type series struct {
	unit   string
	values []float64
}

// table accumulates named series in first-seen order.
type table struct {
	names []string
	by    map[string]*series
}

func (t *table) add(name, unit string, v float64) {
	if t.by == nil {
		t.by = map[string]*series{}
	}
	s := t.by[name]
	if s == nil {
		s = &series{unit: unit}
		t.by[name] = s
		t.names = append(t.names, name)
	}
	s.values = append(s.values, v)
}

// medians prints every series as median with its quartiles and sample
// count, and returns the medians.
func (t *table) medians(title string) map[string]metric {
	fmt.Println(title)
	fmt.Printf("  %-28s %14s %14s %14s %3s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	out := map[string]metric{}
	for _, name := range t.names {
		s := t.by[name]
		med, q1, q3 := quartiles(s.values)
		fmt.Printf("  %-28s %14.6g %14.6g %14.6g %3d  %s\n", name, med, q1, q3, len(s.values), s.unit)
		out[name] = metric{Value: med, Unit: s.unit}
	}
	return out
}

// quartiles returns the median and the first and third quartiles, by
// linear interpolation between order statistics.
func quartiles(vs []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.5), at(0.25), at(0.75)
}

// endToEnd measures untraced reps and reports the run-level metrics.
// A model-only workload's simulator sample is deterministic and slow,
// so only the first rep runs it, and the reps that follow do not count
// its length towards their own.
func (b *bencher) endToEnd(measure time.Duration) (map[string]metric, error) {
	var t table
	n := 0
	once := func(sample bool) error {
		n++
		r, err := b.untraced(sample)
		if err != nil {
			return err
		}
		c := r.cold
		t.add("setup_s", "s", c.SetupS)
		t.add("explore_s", "s", c.ExploreS)
		t.add("total_s", "s", c.TotalS)
		// Without a store nothing carries over to a second run, so a
		// warm run is a cold one.
		warm := c.TotalS
		if r.warm != nil {
			warm = r.warm.TotalS
		}
		t.add("warm_s", "s", warm)
		t.add("variants_per_s", "1/s", float64(c.Points)/c.TotalS)
		t.add("alloc_mb", "MB", c.AllocMB)
		if b.w.mode != dse.EvalModel || sample {
			t.add("cpki_err_max", "ratio", c.CPKIErrMax)
		}
		return nil
	}
	start := time.Now()
	if len(b.w.sample) > 0 {
		if err := once(true); err != nil {
			return nil, err
		}
	}
	if err := loop(measure-time.Since(start), minReps, func() error { return once(false) }); err != nil {
		return nil, err
	}
	return t.medians(fmt.Sprintf("end-to-end metrics of %s (median of %d untraced runs):", b.w.name, n)), nil
}

// perLayer alternates untraced reps with traced replays and reports
// the per-layer metrics.
func (b *bencher) perLayer(measure time.Duration) (map[string]metric, error) {
	var t table
	n := 0
	err := loop(measure, 1, func() error {
		n++
		u, err := b.untraced(len(b.w.sample) > 0)
		if err != nil {
			return err
		}
		r, rss, err := b.traced(u)
		if err != nil {
			return err
		}
		unattributed := u.cold.ExploreS*float64(u.cold.Workers) - r.ExploreBusyS
		printTrace(b.w, n, u, r, rss, unattributed)

		perCall := func(name string, scale float64) float64 {
			st := r.Layers[name]
			if st == nil || st.Count == 0 {
				return 0
			}
			return st.BusyS / float64(st.Count) * scale
		}
		t.add("membw.build_ms", "ms", perCall("membw.build", 1e3))
		t.add("costmodel.calibrate_ms", "ms", perCall("costmodel.calibrate", 1e3))
		t.add("costmodel.compile_us", "us", perCall("costmodel.compile", 1e6))
		t.add("costmodel.estimate_ns", "ns", perCall("costmodel.estimate", 1e9))
		t.add("tir.build_us", "us", perCall("tir.build", 1e6))
		t.add("tir.string_us", "us", perCall("tir.string", 1e6))
		t.add("perf.extract_us", "us", perCall("perf.extract", 1e6))
		t.add("perf.ekit_ns", "ns", perCall("perf.ekit", 1e9))
		t.add("pipesim.compile_ms", "ms", perCall("pipesim.compile", 1e3))
		t.add("pipesim.run_ms", "ms", perCall("pipesim.run", 1e3))
		t.add("pipesim.sim_cycles", "count", float64(r.SimCycles))
		var cps float64
		if st := r.Layers["pipesim.run"]; st != nil && st.BusyS > 0 {
			cps = float64(r.SimCycles) / st.BusyS
		}
		t.add("pipesim.cycles_per_s", "1/s", cps)
		t.add("dse.siminputs_ms", "ms", perCall("dse.siminputs", 1e3))
		t.add("dse.siminputs_mb", "MB", r.SimInputsMB)
		t.add("dse.points", "count", float64(u.cold.Points))
		t.add("dse.evals", "count", float64(u.cold.Evals))
		t.add("dse.coverage", "ratio", u.cold.Coverage)
		t.add("dse.unattributed_s", "s", unattributed)
		for _, kind := range []string{"models", "estimate", "cycles"} {
			unit, scale := "us", 1e6
			if kind == "models" {
				unit, scale = "ms", 1e3
			}
			for _, op := range []string{"save", "load"} {
				t.add(fmt.Sprintf("evalstore.%s_%s_%s", op, kind, unit), unit,
					perCall(fmt.Sprintf("evalstore.%s_%s", op, kind), scale))
			}
		}
		t.add("evalstore.records_written", "count", float64(r.Records))
		t.add("evalstore.warm_rewrites", "count", float64(r.WarmRewrites))
		t.add("evalstore.warm_hit_ratio", "ratio", r.WarmHitRatio)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t.medians(fmt.Sprintf("per-layer metrics of %s (median of %d traced replays):", b.w.name, n)), nil
}

// printTrace prints one traced replay: each layer's count, busy and
// self time, the unattributed engine time, the replay's totals beside
// the untraced run's, and peak RSS for information.
func printTrace(w workload, n int, u *rep, r *replayResult, replayRSS, unattributed float64) {
	fmt.Printf("traced replay %d of %s:\n", n, w.name)
	fmt.Printf("  %-24s %7s %12s %12s\n", "layer", "count", "busy_s", "self_s")
	names := make([]string, 0, len(r.Layers))
	for name := range r.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := r.Layers[name]
		fmt.Printf("  %-24s %7d %12.6f %12.6f\n", name, st.Count, st.BusyS, st.SelfS)
	}
	fmt.Printf("  dse.unattributed_s %.6f (untraced explore_s %.6f x %d workers - traced explore layer time %.6f)\n",
		unattributed, u.cold.ExploreS, u.cold.Workers, r.ExploreBusyS)
	fmt.Printf("  replay total_s %.6f beside untraced total_s %.6f\n", r.ColdS, u.cold.TotalS)
	if u.warm != nil {
		fmt.Printf("  replay warm_s %.6f beside untraced warm_s %.6f\n", r.WarmS, u.warm.TotalS)
	}
	fmt.Printf("  peak RSS (information only, not gated): untraced %.0f MB, traced %.0f MB\n", u.rssMB, replayRSS)
}
