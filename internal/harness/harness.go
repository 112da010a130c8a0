// Package harness orchestrates the paper's evaluation experiments over the
// loop database: the Table 3 synthesis sweep, the Figure 2 deepening curves
// derived from it, the Table 4 vocabulary objective, and shared aggregation
// helpers used by the cmd tools and the benchmark suite.
package harness

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"stringloops/internal/cegis"
	"stringloops/internal/core"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/vocab"
)

// SynthRecord is the outcome of synthesising one corpus loop.
type SynthRecord struct {
	Loop    loopdb.Loop
	Found   bool
	Program vocab.Program
	Size    int
	Elapsed time.Duration
	Err     error
}

// SynthesizeCorpus runs the synthesiser over the given loops through
// core.Sweep (workers < 1 means one per CPU). The records are independent
// of the worker count and come back in corpus order; only the interleaving
// of progress lines (written when progress is non-nil) varies. With an
// enabled sess each loop's report row lands in sess.Report.
func SynthesizeCorpus(loops []loopdb.Loop, opts cegis.Options, progress io.Writer, workers int, sess *obs.Session) []SynthRecord {
	var progressMu sync.Mutex
	results := core.Sweep(loops, workers, sess, func(it *core.SweepItem) (SynthRecord, string, error) {
		var rec SynthRecord
		f, err := it.Loop.Lower()
		if err != nil {
			return rec, "", err
		}
		o := opts
		if o.Budget == nil {
			o.Budget = it.Budget(engine.Limits{Timeout: o.Timeout})
		}
		out, err := cegis.Synthesize(f, o)
		rec.Found, rec.Program, rec.Elapsed = out.Found, out.Program, out.Elapsed
		verdict, status := "miss", "miss"
		if rec.Found {
			rec.Size = out.Program.EncodedSize()
			verdict, status = "found", fmt.Sprintf("found %q (size %d)", rec.Program.Encode(), rec.Size)
		}
		if progress != nil {
			progressMu.Lock()
			fmt.Fprintf(progress, "%-32s %-34s %8.2fs\n", it.Loop.Name, status, rec.Elapsed.Seconds())
			progressMu.Unlock()
		}
		return rec, verdict, err
	})
	records := make([]SynthRecord, len(loops))
	for i, r := range results {
		records[i] = r.Value
		records[i].Loop, records[i].Err = loops[i], r.Err
	}
	return records
}

// Table3Row is one row of Table 3.
type Table3Row struct {
	Program     string
	Synthesised int
	Total       int
	AvgSec      float64 // over successful syntheses, like the paper
	MedianSec   float64
}

// Table3 aggregates records per program (in Table 2 program order) plus a
// trailing Total row.
func Table3(records []SynthRecord) []Table3Row {
	rows := make([]Table3Row, 0, len(loopdb.Programs)+1)
	var allTimes []float64
	totalSynth, totalLoops := 0, 0
	for _, prog := range loopdb.Programs {
		row := Table3Row{Program: prog}
		var times []float64
		for _, r := range records {
			if r.Loop.Program != prog {
				continue
			}
			row.Total++
			if r.Found {
				row.Synthesised++
				times = append(times, r.Elapsed.Seconds())
			}
		}
		row.AvgSec, row.MedianSec = AvgMedian(times)
		allTimes = append(allTimes, times...)
		totalSynth += row.Synthesised
		totalLoops += row.Total
		rows = append(rows, row)
	}
	total := Table3Row{Program: "Total", Synthesised: totalSynth, Total: totalLoops}
	total.AvgSec, total.MedianSec = AvgMedian(allTimes)
	return append(rows, total)
}

// AvgMedian returns the mean and the median of xs (the mean of the two
// middle values for an even count; 0, 0 for none).
func AvgMedian(xs []float64) (avg, median float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]float64{}, xs...)
	sort.Float64s(sorted)
	for _, x := range xs {
		avg += x
	}
	avg /= float64(len(xs))
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		median = sorted[mid]
	} else {
		median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return avg, median
}

// Figure2 derives the deepening curves from one synthesis sweep: with
// iterative deepening, a loop found at size s after time t would also be
// found under any size cap >= s and timeout >= t, so a single generous run
// yields every (size, timeout) point.
func Figure2(records []SynthRecord, maxSize int, timeouts []time.Duration) map[time.Duration][]int {
	out := map[time.Duration][]int{}
	for _, to := range timeouts {
		counts := make([]int, maxSize+1)
		for _, r := range records {
			if !r.Found || r.Elapsed > to {
				continue
			}
			for s := r.Size; s <= maxSize; s++ {
				counts[s]++
			}
		}
		out[to] = counts
	}
	return out
}

// CountSynthesized is the success function s(v) of §4.2.3: the number of
// corpus loops synthesised under the given options. It is the objective the
// Gaussian-process optimiser maximises over vocabularies. The count is a sum
// over the independent per-loop runs of SynthesizeCorpus, so it does not
// depend on the worker count; workers < 1 means one per CPU.
func CountSynthesized(loops []loopdb.Loop, opts cegis.Options, workers int) int {
	n := 0
	for _, r := range SynthesizeCorpus(loops, opts, nil, workers, nil) {
		if r.Found && r.Err == nil {
			n++
		}
	}
	return n
}

// VocabularyFromBits converts a GP point to a Vocabulary (Table 1 bit
// order).
func VocabularyFromBits(bits []bool) vocab.Vocabulary {
	var v vocab.Vocabulary
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

// SummaryFor returns the loop's known-good summary (its ground-truth
// program), used by harnesses that need summaries without re-running
// synthesis.
func SummaryFor(l loopdb.Loop) (vocab.Program, bool) {
	if l.WantProgram == "" {
		return nil, false
	}
	p, err := vocab.Decode(l.WantProgram)
	if err != nil {
		return nil, false
	}
	return p, true
}

// SynthesizedCorpus returns the curated loops that carry a ground-truth
// summary and are expected to synthesise — the summarised set §4.3 and §4.4
// evaluate on.
func SynthesizedCorpus() []loopdb.Loop {
	var out []loopdb.Loop
	for _, l := range loopdb.Corpus() {
		if l.ExpectSynth && l.WantProgram != "" {
			out = append(out, l)
		}
	}
	return out
}
