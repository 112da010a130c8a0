package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"stringloops/internal/service"
	"stringloops/internal/vocab"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runWorkload runs one workload briefly (a single pass) and requires
// exactly the metrics BENCHMARK.json names for the mode, each with its
// unit, and no wrong verdict.
func runWorkload(t *testing.T, spec benchSpec, workload string, trace bool, seed int64) result {
	t.Helper()
	want := map[string]string{}
	metrics := spec.EndToEnd
	if trace {
		metrics = spec.PerLayer
	}
	for _, m := range metrics {
		want[m.Name] = m.Unit
	}
	run, ok := workloads[workload]
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %q, which perfbench does not run", workload)
	}
	rep, err := run(options{seed: seed, seconds: 0, trace: trace, dir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	res := combine([]*report{rep})
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d wrong=%q", workload, trace, res.Correct, res.Attempted, rep.wrong)
	}
	for name, unit := range want {
		got, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s trace=%v: metric %s missing", workload, trace, name)
		} else if got.Unit != unit {
			t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", workload, trace, name, got.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", workload, trace, name)
		}
	}
	return res
}

// TestWorkloads runs every workload untraced and traced. On table3 and
// symex the layer self times must account for the traced lane time within
// 5%, and a second traced run with another seed must repeat every count.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		res := runWorkload(t, spec, w.Name, false, 7)
		if res.Metrics["sweep_cpu_s"].Value <= 0 {
			t.Errorf("%s: sweep_cpu_s = %v", w.Name, res.Metrics["sweep_cpu_s"].Value)
		}
		first := runWorkload(t, spec, w.Name, true, 7)
		if w.Name == "daemon-warm" {
			continue
		}
		if acc := first.Metrics["trace.accounted"].Value; acc < 0.95 {
			t.Errorf("%s: layer self times account for %.3f of the traced lane time", w.Name, acc)
		}
		second := runWorkload(t, spec, w.Name, true, 8)
		for _, m := range spec.PerLayer {
			if m.Unit == "count" && first.Metrics[m.Name] != second.Metrics[m.Name] {
				t.Errorf("%s: %s = %v, then %v with another seed", w.Name, m.Name, first.Metrics[m.Name].Value, second.Metrics[m.Name].Value)
			}
		}
	}
}

func corpusLoop(t *testing.T, name string) *loopCase {
	t.Helper()
	loops, err := lowerCorpus(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range loops {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no corpus loop %s", name)
	return nil
}

// TestCheckerCatchesWrongSummaries feeds the verdict checks deliberately
// wrong answers for bash/skip_spaces (skip a run of ' ').
func TestCheckerCatchesWrongSummaries(t *testing.T) {
	c := corpusLoop(t, "bash/skip_spaces")
	right := c.want
	wrong, err := vocab.Decode(strings.Replace(c.WantProgram, " ", "x", 1))
	if err != nil {
		t.Fatal(err)
	}
	larger, err := vocab.Decode("ZF" + c.WantProgram)
	if err != nil {
		t.Fatal(err)
	}
	csrc := func(p vocab.Program) string { return vocab.CompileToC(p, "loop_fn_summary") }

	if err := checkSummary(c, right, csrc(right)); err != nil {
		t.Fatalf("the ground-truth summary fails its own check: %v", err)
	}
	for _, tc := range []struct {
		name string
		prog vocab.Program
		c    string
	}{
		{"program skipping the wrong character", wrong, csrc(wrong)},
		{"right program, C emitted for another", right, csrc(wrong)},
		{"program larger than WantProgram", larger, csrc(larger)},
	} {
		if err := checkSummary(c, tc.prog, tc.c); err == nil {
			t.Errorf("%s: not caught", tc.name)
		}
	}

	// The same through each workload's own check.
	k := newChecker()
	if err := (synthRun{c: c, found: true, prog: wrong, memoryless: true, csrc: csrc(wrong)}).check(k); err == nil {
		t.Error("table3: wrong summary not caught")
	}
	if err := (synthRun{c: c, memoryless: true, budgetMiss: true}).check(k); err == nil {
		t.Error("table3: a miss of a loop with a summary not caught")
	}
	if err := (synthRun{c: c, found: true, prog: right, csrc: csrc(right)}).check(k); err == nil {
		t.Error("table3: wrong memoryless verdict not caught")
	}
	resp := &service.Response{Rung: "full", Summary: &service.SummaryPayload{Encoded: wrong.Encode(), C: csrc(wrong), Memoryless: true}}
	if err := (reqRun{c: c, resp: resp}).check(k); err == nil {
		t.Error("daemon-warm: wrong summary not caught")
	}
	resp = &service.Response{Rung: "smoke"}
	if err := (reqRun{c: c, resp: resp}).check(k); err == nil {
		t.Error("daemon-warm: a smoke-rung answer not caught")
	}
}

// TestReplayCatchesWrongClaims checks that a symbolic test whose claimed
// result disagrees with the loop is caught.
func TestReplayCatchesWrongClaims(t *testing.T) {
	c := corpusLoop(t, "bash/skip_spaces")
	in := []byte("  a\x00")
	if err := replayOne(c, in, vocab.PtrResult(2)); err != nil {
		t.Fatalf("a right claim fails: %v", err)
	}
	if err := replayOne(c, in, vocab.PtrResult(1)); err == nil {
		t.Error("a wrong claim is not caught")
	}
}

func TestRefAlphabetCoversConstants(t *testing.T) {
	got := string(refAlphabet(`while (*s == '\t' || *s == 'q' || *s == '\x7f') s++;`))
	for _, c := range append([]byte("\t\n\bpqr\x7e\x7f\x80"), classReps...) {
		if !strings.Contains(got, string([]byte{c})) {
			t.Errorf("alphabet %q lacks %q", got, c)
		}
	}
}
