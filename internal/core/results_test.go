package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"codesign/internal/fault"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenRun is one run results.golden pins.
type goldenRun struct {
	name, app string
	spec      Spec
}

// goldenRuns are the runs results.golden pins: every table app at its
// appDirects size, plus the cases the fault and repeated-apply paths
// add on top.
func goldenRuns(t *testing.T) []goldenRun {
	var runs []goldenRun
	for _, name := range AppNames() {
		runs = append(runs, goldenRun{name, name, appDirects[name].spec})
	}
	kill := appDirects["lu"].spec
	kill.Functional = false
	kill.Faults = mustInjector(t, &fault.Spec{Events: []fault.Event{
		{Kind: fault.NodeKill, Node: 3, Start: 0.0002},
	}}, 6)
	slow := appDirects["fw"].spec
	slow.Functional = false
	slow.Faults = mustInjector(t, &fault.Spec{Window: 1e-5, Events: []fault.Event{
		{Kind: fault.CPUSlow, Node: 0, Start: 0, Factor: 0.3},
	}}, 6)
	single := appDirects["spmv"].spec
	single.RHS = 1
	return append(runs, []goldenRun{
		{"lu node kill", "lu", kill},
		{"fw cpu slow", "fw", slow},
		{"spmv single apply", "spmv", single},
	}...)
}

// TestResultsGolden pins the full common Result — with the telemetry
// digest — of every table app, so a change to how runs are set up and
// torn down cannot move a number unnoticed. Floats print in their
// shortest round-tripping form.
func TestResultsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, g := range goldenRuns(t) {
		s := g.spec
		s.Telemetry = true
		r, err := Simulate(g.app, s)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&buf, "== %s\n", g.name)
		dumpValue(&buf, "", reflect.ValueOf(*r.Result))
	}
	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return ""
	}
	for i := range max(len(got), len(wantLines)) {
		if g, w := line(got, i), line(wantLines, i); g != w {
			t.Fatalf("results drifted from %s at line %d: got %q, want %q", path, i+1, g, w)
		}
	}
}

// longSlice is the length above which dumpValue pins a slice by the
// SHA-256 of its dump instead of printing it (fw launches one FPGA
// process per phase, so its per-process stats run to hundreds).
const longSlice = 64

// dumpValue writes v as one "path value" line per scalar leaf, walking
// structs, pointers, slices and maps (in sorted key order).
func dumpValue(buf *bytes.Buffer, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(buf, "%s nil\n", path)
			return
		}
		dumpValue(buf, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				dumpValue(buf, path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		var elems bytes.Buffer
		for i := 0; i < v.Len(); i++ {
			dumpValue(&elems, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
		if v.Len() > longSlice {
			fmt.Fprintf(buf, "%s len=%d sha256=%x\n", path, v.Len(), sha256.Sum256(elems.Bytes()))
			return
		}
		fmt.Fprintf(buf, "%s len=%d\n", path, v.Len())
		buf.Write(elems.Bytes())
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		fmt.Fprintf(buf, "%s len=%d\n", path, len(keys))
		for _, k := range keys {
			dumpValue(buf, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(buf, "%s %s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		fmt.Fprintf(buf, "%s %v\n", path, v.Interface())
	}
}
