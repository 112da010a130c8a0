// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the pipeline's public entry points, checks every
// verdict against the corpus ground truth, and prints its metrics; the
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics.
//
//	perfbench --workload table3|symex|daemon-warm|all --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced:
// set-up, pass and per-operation times as CPU time, allocation per pass,
// and the shares of correct and decided verdicts; the wall-clock times,
// peak memory and the failed share follow as extra lines. With --trace 1
// the run is traced instead: internal/obs spans in this package's own code
// around each call into a layer give every layer's self time (span minus
// children), the per-layer metrics are reported, and the Chrome trace is
// written and validated. Nothing inside the program is instrumented for
// the benchmark.
//
// Before the result object, the output has one "row" line per loop (its
// verdict, summary, times and, traced, layer self times), one "metric" line
// per metric with its unit and sample count, "note" lines, and a "wrong"
// line per wrong verdict or failed operation; any wrong verdict makes the
// exit status nonzero. BENCHMARK.json at the repository root records why
// each workload was chosen; run.sh builds and runs this command from a
// checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// workers is the worker count of table3 and the client count of
// daemon-warm: the machine's two CPUs, never more.
const workers = 2

// setupReps is how often a workload repeats its cheap set-up steps; the
// reported set-up time takes their median.
const setupReps = 9

// options are the command-line settings one workload runs under.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// dir holds the run's files: the diskcache tier and the Chrome trace.
	dir string
	// tracecheck, when set, is the tracecheck binary the trace must pass.
	tracecheck string
}

var workloads = map[string]func(options) (*report, error){
	"table3":      runTable3,
	"symex":       runSymex,
	"daemon-warm": runDaemon,
}

func main() {
	workload := flag.String("workload", "", "table3, symex, daemon-warm, or all")
	seed := flag.Int64("seed", 1, "seed for loop order and client assignment")
	seconds := flag.Float64("seconds", 10, "how long the measured passes run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "run"), "directory for the run's files")
	tracecheck := flag.String("tracecheck", "", "tracecheck binary that validates the Chrome trace")
	flag.Parse()

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, tracecheck: *tracecheck}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"table3", "symex", "daemon-warm"}
	}
	var reps []*report
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			fail("unknown workload %q (want table3, symex, daemon-warm or all)", name)
		}
		rep, err := run(o)
		if err != nil {
			fail("%s: %v", name, err)
		}
		rep.print(os.Stdout)
		reps = append(reps, rep)
	}
	res := combine(reps)
	enc, err := json.Marshal(res)
	if err != nil {
		fail("encoding result: %v", err)
	}
	fmt.Println(string(enc))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metricLine is one reported metric with the sample count behind it.
type metricLine struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is one workload's outcome.
type report struct {
	workload string
	// attempted counts the operations whose outcome was checked; wrong
	// lists every wrong verdict and failed operation among them.
	attempted int
	wrong     []string
	// metrics are the end-to-end or the per-layer metrics, by run mode;
	// extra are printed but not part of the result object.
	metrics []metricLine
	extra   []metricLine
	rows    []row
	notes   []string
}

// row is one loop's line in the run output, so a later change can show
// which loops moved.
type row struct {
	Loop    string `json:"loop"`
	Program string `json:"program"`
	Verdict string `json:"verdict"`
	// Summary is the found program's readable form, if any.
	Summary string `json:"summary,omitempty"`
	// MS and CPUMS are the loop's median wall and CPU time over the
	// measured passes.
	MS    float64 `json:"ms"`
	CPUMS float64 `json:"cpu_ms"`
	// LayersMS are the loop's layer self times in the traced pass.
	LayersMS map[string]float64 `json:"layers_ms,omitempty"`
}

// check counts one checked operation, and a failed one when err is set.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.wrong = append(r.wrong, err.Error())
	}
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metricLine{name, value, unit, n})
}

func (r *report) addExtra(name string, value float64, unit string, n int) {
	r.extra = append(r.extra, metricLine{name, value, unit, n})
}

func (r *report) print(w *os.File) {
	sort.Slice(r.rows, func(i, j int) bool { return r.rows[i].Loop < r.rows[j].Loop })
	for _, row := range r.rows {
		enc, _ := json.Marshal(row) // a row has only strings, floats and maps of them
		fmt.Fprintf(w, "row %s %s\n", r.workload, enc)
	}
	for _, m := range append(append([]metricLine(nil), r.metrics...), r.extra...) {
		fmt.Fprintf(w, "metric %-11s %-34s %14.6f %-6s n=%d\n", r.workload, m.name, m.value, m.unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s %s\n", r.workload, n)
	}
	for _, msg := range r.wrong {
		fmt.Fprintf(w, "wrong %s %s\n", r.workload, msg)
	}
}

// result is the JSON object on the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// combine builds the result object; with several workloads (--workload
// all) each metric name is prefixed with its workload.
func combine(reps []*report) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += len(r.wrong)
		for _, m := range r.metrics {
			name := m.name
			if len(reps) > 1 {
				name = r.workload + "/" + name
			}
			res.Metrics[name] = metricValue{m.value, m.unit}
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// validateTrace writes the traced run's Chrome trace and, when a
// tracecheck binary was given, requires it to accept the file.
func validateTrace(o options, workload string, write func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.json", workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if o.tracecheck == "" {
		return path + " (not validated: no --tracecheck)", nil
	}
	out, err := exec.Command(o.tracecheck, path).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("tracecheck %s: %v: %s", path, err, out)
	}
	return path + " (tracecheck ok)", nil
}
