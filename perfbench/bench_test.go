package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/evalstore"
)

var update = flag.Bool("update", false, "rewrite golden.json from fresh runs")

// TestGolden runs every workload once and checks its output against
// golden.json (or rewrites it under -update), and that a warm run of a
// store workload reproduces its cold run.
func TestGolden(t *testing.T) {
	all := map[string]golden{}
	for _, w := range workloads {
		var store *evalstore.Store
		if w.store {
			var err error
			if store, err = evalstore.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		res, err := runWorkload(w, 1, store, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got := golden{Digest: res.Digest, SampleDigest: res.SampleDigest}
		all[w.name] = got
		if w.store {
			warm, err := runWorkload(w, 1, store, false)
			if err != nil {
				t.Fatalf("%s warm: %v", w.name, err)
			}
			if warm.Digest != res.Digest {
				t.Errorf("%s: warm digest %s, cold %s", w.name, warm.Digest, res.Digest)
			}
		}
		if *update {
			continue
		}
		want, err := loadGolden(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: got %+v, golden.json has %+v", w.name, got, want)
		}
	}
	if *update {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// tytradseArgs are the tytradse flags that run the same exploration.
func (w workload) tytradseArgs(cacheDir string) []string {
	args := []string{"-kernel", w.kernel, "-eval", w.mode.String(),
		"-maxlanes", fmt.Sprint(w.maxLanes), "-form", "B", "-nki", fmt.Sprint(nki),
		"-strategy", "exhaustive", "-j", fmt.Sprint(workers())}
	if len(w.devices) > 1 {
		args = append(args, "-devices", strings.Join(w.devices, ","))
	} else {
		args = append(args, "-target", w.devices[0])
	}
	if cacheDir != "" {
		args = append(args, "-cache", cacheDir)
	}
	return args
}

// TestCLIParity checks that the benchmark measures what users run:
// every report table rendered from the benchmark's Result appears
// byte for byte in tytradse's output for the same flags.
func TestCLIParity(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tytradse")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tytradse").CombinedOutput(); err != nil {
		t.Fatalf("building tytradse: %v\n%s", err, out)
	}
	for _, w := range workloads {
		var store *evalstore.Store
		cacheDir := ""
		if w.store {
			cacheDir = t.TempDir()
			var err error
			if store, err = evalstore.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		res, err := runWorkload(w, 1, store, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		out, err := exec.Command(bin, w.tytradseArgs(cacheDir)...).Output()
		if err != nil {
			t.Fatalf("%s: tytradse: %v", w.name, err)
		}
		if len(res.Tables) == 0 {
			t.Fatalf("%s: no tables rendered", w.name)
		}
		for _, tab := range res.Tables {
			if !strings.Contains(string(out), tab+"\n") {
				t.Errorf("%s: table not in tytradse output:\n%s", w.name, tab)
			}
		}
	}
}

// TestSeedIndependence runs a small hybrid-fig15 slice at two input
// seeds: simulated cycles are data-independent, which the evalstore
// cycles key and the golden digests rely on, so the points and the
// digest must not change.
func TestSeedIndependence(t *testing.T) {
	w, err := lookupWorkload("hybrid-fig15")
	if err != nil {
		t.Fatal(err)
	}
	w.maxLanes = 4
	a, err := runWorkload(w, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(w, 977, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.CPKIErrMax != b.CPKIErrMax || a.Points != 4 {
		t.Errorf("seed 1: %d points, digest %s, cpki error %v; seed 977: digest %s, cpki error %v",
			a.Points, a.Digest, a.CPKIErrMax, b.Digest, b.CPKIErrMax)
	}
}

// TestReplayReproducesRun checks the traced replay against untraced
// runs on small slices of every workload.
func TestReplayReproducesRun(t *testing.T) {
	for _, w := range workloads {
		w.maxLanes = 4
		if w.sample != nil {
			w.sample = []int{2}
		}
		var store *evalstore.Store
		if w.store {
			var err error
			if store, err = evalstore.Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		run, err := runWorkload(w, 3, store, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rep, err := replay(w, 3, t.TempDir(), filepath.Join(t.TempDir(), "trace.jsonl"))
		if err != nil {
			t.Fatalf("%s replay: %v", w.name, err)
		}
		if rep.PointsDigest != run.PointsDigest || rep.SampleDigest != run.SampleDigest ||
			rep.CPKIErrMax != run.CPKIErrMax {
			t.Errorf("%s: replay %s/%s/%v, run %s/%s/%v", w.name, rep.PointsDigest, rep.SampleDigest,
				rep.CPKIErrMax, run.PointsDigest, run.SampleDigest, run.CPKIErrMax)
		}
		if rep.WarmRewrites != 0 || rep.WarmHitRatio != 1 || rep.Records == 0 {
			t.Errorf("%s: warm pass rewrote %d of %d records, hit ratio %v",
				w.name, rep.WarmRewrites, rep.Records, rep.WarmHitRatio)
		}
		for _, layer := range []string{"tir.build", "perf.extract", "evalstore.load_estimate", "evalstore.save_cycles", "pipesim.run"} {
			if st := rep.Layers[layer]; st == nil || st.Count == 0 {
				t.Errorf("%s: no %s spans", w.name, layer)
			}
		}
	}
}
