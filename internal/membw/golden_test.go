package membw

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/device"
)

var update = flag.Bool("update", false, "rewrite the golden bandwidth tables")

// TestStreamTablesGolden pins the bits of every registered target's
// STREAM table. SaveTable prints shortest-roundtrip floats, so a byte
// match is a bit match: the Fig 10 tables, the evalstore model records
// and every calibration downstream see exactly these samples. A change
// here changes stored model records too, so regenerating with
//
//	go test ./internal/membw -run TestStreamTablesGolden -update
//
// goes together with a bump of evalstore.ModelsVersion.
func TestStreamTablesGolden(t *testing.T) {
	for _, name := range device.Names() {
		t.Run(name, func(t *testing.T) {
			tgt, err := device.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Build(tgt)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := m.SaveTable(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".bwtable")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("STREAM table of %s differs from %s:\ngot:\n%s\nwant:\n%s", name, path, got.Bytes(), want)
			}
		})
	}
}
