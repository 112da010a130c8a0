package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// reports pairs each lane with its report type.
var reports = map[string]any{
	"cache":     cacheReport{},
	"obs":       obsReport{},
	"merge":     mergeReport{},
	"persist":   persistReport{},
	"vn":        vnReport{},
	"serve":     serveReport{},
	"telemetry": telemetryReport{},
}

func TestLaneTableUnique(t *testing.T) {
	names, files := map[string]bool{}, map[string]bool{}
	for _, l := range lanes {
		if names[l.name] || files[l.file] {
			t.Errorf("lane %s (%s) repeats a name or a file", l.name, l.file)
		}
		names[l.name], files[l.file] = true, true
		if l.run == nil {
			t.Errorf("lane %s has no body", l.name)
		}
	}
	if len(reports) != len(lanes) {
		t.Errorf("%d report types for %d lanes", len(reports), len(lanes))
	}
}

func TestParseArgsRejectsUnknownLane(t *testing.T) {
	if _, _, err := parseArgs([]string{"-lane", "nope"}); err == nil {
		t.Fatal("unknown lane accepted")
	}
}

func TestParseArgsResolvesOutAndShort(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		out     string
		n, reps int
	}{
		{nil, "BENCH_3.json", 8, 3},
		{[]string{"-short", "-out", ""}, "", 6, 1},
		{[]string{"-lane", "merge"}, "BENCH_6.json", 8, 3},
		// An explicit path is honoured, even when it names another
		// lane's file.
		{[]string{"-lane", "merge", "-out", "BENCH_3.json"}, "BENCH_3.json", 8, 3},
		{[]string{"-lane", "vn", "-short", "-out", "vn.json"}, "vn.json", 8, 1},
		{[]string{"-lane", "telemetry", "-short"}, "BENCH_10.json", 6, 1},
	} {
		l, p, err := parseArgs(tc.args)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if p.out != tc.out || p.n != tc.n || p.reps != tc.reps {
			t.Errorf("%q: lane %s out=%q n=%d reps=%d, want out=%q n=%d reps=%d",
				tc.args, l.name, p.out, p.n, p.reps, tc.out, tc.n, tc.reps)
		}
	}
}

// TestCheckedInReportsMatchSchema pins the report types to the checked-in
// baselines: every key of each lane's BENCH file, nested ones included, must
// be a JSON field of that lane's report type, so a renamed field fails here
// rather than as a missing gated metric in CI.
func TestCheckedInReportsMatchSchema(t *testing.T) {
	for _, l := range lanes {
		raw, err := os.ReadFile(filepath.Join("..", "..", l.file))
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", l.file, err)
		}
		checkKeys(t, l.file, doc, reflect.TypeOf(reports[l.name]))
	}
}

// checkKeys walks v alongside typ, reporting every object key that has no
// JSON field in the corresponding struct.
func checkKeys(t *testing.T, path string, v any, typ reflect.Type) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Struct:
		obj, ok := v.(map[string]any)
		if !ok {
			t.Errorf("%s: want an object, got %T", path, v)
			return
		}
		fields := jsonFields(typ)
		for k, sub := range obj {
			ft, ok := fields[k]
			if !ok {
				t.Errorf("%s: key %q is not a field of %s", path, k, typ.Name())
				continue
			}
			checkKeys(t, path+"."+k, sub, ft)
		}
	case reflect.Slice:
		arr, ok := v.([]any)
		if !ok {
			t.Errorf("%s: want an array, got %T", path, v)
			return
		}
		for i, el := range arr {
			checkKeys(t, fmt.Sprintf("%s[%d]", path, i), el, typ.Elem())
		}
	}
}

// jsonFields maps a struct's JSON keys, promoted embedded fields included,
// to their types.
func jsonFields(typ reflect.Type) map[string]reflect.Type {
	out := map[string]reflect.Type{}
	for _, f := range reflect.VisibleFields(typ) {
		if f.Anonymous || !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		out[name] = f.Type
	}
	return out
}
