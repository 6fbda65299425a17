package tir_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tir"
)

// indexAgrees asserts that every lookup through m.Index() returns the
// same declaration as the linear Module helper, for every declared name,
// every name a declaration references (dangling or not), and a name
// nothing declares.
func indexAgrees(t *testing.T, label string, m *tir.Module) {
	t.Helper()
	ix := m.Index()
	var memNames, strNames, portNames, fnNames []string
	for _, mo := range m.MemObjects {
		memNames = append(memNames, mo.Name)
	}
	for _, so := range m.Streams {
		strNames = append(strNames, so.Name)
		memNames = append(memNames, so.Mem)
		portNames = append(portNames, so.Port)
	}
	for _, p := range m.Ports {
		portNames = append(portNames, p.Name)
		strNames = append(strNames, p.Stream)
	}
	for _, f := range m.Funcs {
		fnNames = append(fnNames, f.Name)
		for _, c := range f.Calls() {
			fnNames = append(fnNames, c.Callee)
			for _, a := range c.Args {
				if a.Kind == tir.OpGlobal {
					portNames = append(portNames, a.Name)
				}
			}
		}
	}
	const missing = "no-such-name"
	for _, n := range append(memNames, missing) {
		if got, want := ix.MemObject(n), m.MemObject(n); got != want {
			t.Errorf("%s: Index.MemObject(%q) = %p, Module.MemObject = %p", label, n, got, want)
		}
	}
	for _, n := range append(strNames, missing) {
		if got, want := ix.Stream(n), m.Stream(n); got != want {
			t.Errorf("%s: Index.Stream(%q) = %p, Module.Stream = %p", label, n, got, want)
		}
	}
	for _, n := range append(portNames, missing) {
		if got, want := ix.Port(n), m.Port(n); got != want {
			t.Errorf("%s: Index.Port(%q) = %p, Module.Port = %p", label, n, got, want)
		}
	}
	for _, n := range append(fnNames, missing) {
		if got, want := ix.Func(n), m.Func(n); got != want {
			t.Errorf("%s: Index.Func(%q) = %p, Module.Func = %p", label, n, got, want)
		}
	}
}

func TestIndexAgreesOnKernelLibrary(t *testing.T) {
	for _, lanes := range []int{1, 4, 64} {
		specs := []interface {
			Name() string
			Module() (*tir.Module, error)
		}{
			kernels.SORSpec{IM: 16, JM: 8, KM: 16, Lanes: lanes},
			kernels.HotspotSpec{Rows: 64, Cols: 32, Lanes: lanes},
			kernels.LavaMDSpec{Pairs: 128, Lanes: lanes},
			kernels.SORF32Spec{IM: 16, JM: 8, KM: 16, Lanes: lanes},
			kernels.SRADSpec{Rows: 64, Cols: 32, Lanes: lanes},
		}
		for _, s := range specs {
			m, err := s.Module()
			if err != nil {
				t.Fatalf("%s lanes=%d: %v", s.Name(), lanes, err)
			}
			if len(m.Ports) < lanes {
				t.Fatalf("%s lanes=%d: only %d ports", s.Name(), lanes, len(m.Ports))
			}
			indexAgrees(t, fmt.Sprintf("%s lanes=%d", s.Name(), lanes), m)
		}
	}
}

// TestIndexAgreesOnCorpus covers the surface-syntax corpus, including
// the deliberately broken files (duplicate and dangling names), parsed
// without validation.
func TestIndexAgreesOnCorpus(t *testing.T) {
	var files []string
	for _, pat := range []string{"*.tirl", filepath.Join("bad", "*.tirl")} {
		fs, err := filepath.Glob(filepath.Join("testdata", pat))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	parsed := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := tir.ParseOnly(f, string(src))
		if err != nil {
			continue // a syntax-error fixture has no module to index
		}
		parsed++
		indexAgrees(t, f, m)
	}
	if parsed < 8 {
		t.Fatalf("only %d corpus files parsed", parsed)
	}
}

// TestIndexFirstDeclarationWins pins the lookup rules on a hand-built
// module with duplicate and dangling names: the first declaration wins
// and a missing name is nil, as with the Module helpers.
func TestIndexFirstDeclarationWins(t *testing.T) {
	ty := tir.UIntT(8)
	mem1 := &tir.MemObject{Name: "a", Elem: ty, Size: 4}
	mem2 := &tir.MemObject{Name: "a", Elem: ty, Size: 8}
	str1 := &tir.StreamObject{Name: "s", Mem: "a", Port: "main.p"}
	str2 := &tir.StreamObject{Name: "s", Mem: "dangling_mem", Port: "main.q"}
	port1 := &tir.Port{Name: "main.p", Elem: ty, Stream: "s"}
	port2 := &tir.Port{Name: "main.p", Elem: ty, Stream: "dangling_stream"}
	fn1 := &tir.Function{Name: "main", Mode: tir.ModeSeq}
	fn2 := &tir.Function{Name: "main", Mode: tir.ModePipe}
	m := &tir.Module{
		Name:       "dups",
		MemObjects: []*tir.MemObject{mem1, mem2},
		Streams:    []*tir.StreamObject{str1, str2},
		Ports:      []*tir.Port{port1, port2},
		Funcs:      []*tir.Function{fn1, fn2},
	}
	ix := m.Index()
	if ix.MemObject("a") != mem1 || ix.Stream("s") != str1 || ix.Port("main.p") != port1 || ix.Func("main") != fn1 {
		t.Error("a duplicate name did not resolve to its first declaration")
	}
	if ix.MemObject("dangling_mem") != nil || ix.Stream("dangling_stream") != nil ||
		ix.Port("main.q") != nil || ix.Func("f0") != nil {
		t.Error("a missing name did not resolve to nil")
	}
	indexAgrees(t, "dups", m)

	// The index is a snapshot of the declarations at build time.
	m.MemObjects = append(m.MemObjects, &tir.MemObject{Name: "late", Elem: ty, Size: 1})
	if ix.MemObject("late") != nil {
		t.Error("index saw a declaration added after it was built")
	}
	indexAgrees(t, "dups+late", m)
}
