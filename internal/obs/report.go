package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// PhaseStat aggregates the spans of one phase within one loop.
type PhaseStat struct {
	Count int64 `json:"count"`
	Ns    int64 `json:"ns"`
}

// LoopRow is one loop's line of the run report: per-phase time from its
// trace, plus the counters its pipeline charged.
type LoopRow struct {
	Loop    string `json:"loop"`
	Program string `json:"program,omitempty"`
	// Outcome classifies the run: the driver's verdict ("ok"/"notfound",
	// "found"/"miss", "memoryless"/"rejected", a ladder rung) or, for a
	// run that failed, "budget" (the budget stopped it), "panic" or
	// "error".
	Outcome string `json:"outcome"`
	// Phases maps phase name (span name with the "phase/" prefix
	// stripped) to its aggregated time.
	Phases map[string]PhaseStat `json:"phases"`
	// Counters is the loop pipeline's metric snapshot (counters only).
	Counters map[string]int64 `json:"counters"`
	// TotalNs is the loop's wall time.
	TotalNs int64 `json:"total_ns"`
}

// phasePrefix marks spans the report builder aggregates into phase columns.
const phasePrefix = "phase/"

// canonicalPhases orders the pipeline's phase columns; phases outside the
// list sort after them alphabetically.
var canonicalPhases = []string{"parse", "lower", "filter", "memoryless", "symex", "cegis"}

// BuildLoopRow aggregates one loop's tracer events and metric snapshot into
// a report row. The tracer may be nil (phases stay empty).
func BuildLoopRow(loop, program, outcome string, tr *Tracer, snap Snapshot, total time.Duration) LoopRow {
	row := LoopRow{
		Loop: loop, Program: program, Outcome: outcome,
		Phases:   map[string]PhaseStat{},
		Counters: snap.Counters,
		TotalNs:  int64(total),
	}
	if row.Counters == nil {
		row.Counters = map[string]int64{}
	}
	for _, ev := range tr.Events() {
		if !strings.HasPrefix(ev.Name, phasePrefix) {
			continue
		}
		name := ev.Name[len(phasePrefix):]
		ps := row.Phases[name]
		ps.Count++
		ps.Ns += ev.Dur
		row.Phases[name] = ps
	}
	return row
}

// Report accumulates loop rows and renders them as a klee-stats-style table
// and as JSON. Add is safe for concurrent use; rows are sorted by loop name
// at render time so parallel drivers stay deterministic.
type Report struct {
	mu   sync.Mutex
	rows []LoopRow
}

// Add appends one row.
func (r *Report) Add(row LoopRow) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rows = append(r.rows, row)
	r.mu.Unlock()
}

// Rows returns a sorted copy of the accumulated rows.
func (r *Report) Rows() []LoopRow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]LoopRow(nil), r.rows...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Loop < out[j].Loop })
	return out
}

// Totals sums every row: per-phase stats and counters.
func (r *Report) Totals() (map[string]PhaseStat, map[string]int64) {
	phases := map[string]PhaseStat{}
	counters := map[string]int64{}
	for _, row := range r.Rows() {
		for k, v := range row.Phases {
			ps := phases[k]
			ps.Count += v.Count
			ps.Ns += v.Ns
			phases[k] = ps
		}
		for k, v := range row.Counters {
			counters[k] += v
		}
	}
	return phases, counters
}

// phaseColumns returns the union of phase names across rows in canonical
// pipeline order, extras alphabetical after.
func phaseColumns(rows []LoopRow) []string {
	seen := map[string]bool{}
	for _, row := range rows {
		for k := range row.Phases {
			seen[k] = true
		}
	}
	var cols []string
	for _, c := range canonicalPhases {
		if seen[c] {
			cols = append(cols, c)
			delete(seen, c)
		}
	}
	var extra []string
	for k := range seen {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	return append(cols, extra...)
}

// counterColumns picks the headline counters for the table; everything else
// stays available in the JSON export.
var counterColumns = []struct {
	name   string
	header string
}{
	{MQCacheQueries, "Queries"},
	{MSatConflicts, "Conflicts"},
	{MSymexForks, "Forks"},
	{MSymexPaths, "Paths"},
	{MBVNodes, "Nodes"},
}

// WriteTable renders the report in the klee-stats style: one boxed row per
// loop with per-phase milliseconds, headline counters, the cache hit rate
// and total time, then a totals row.
func (r *Report) WriteTable(w io.Writer) {
	rows := r.Rows()
	cols := phaseColumns(rows)

	header := []string{"Loop", "Outcome"}
	for _, c := range cols {
		header = append(header, c)
	}
	for _, cc := range counterColumns {
		header = append(header, cc.header)
	}
	header = append(header, "Hit%", "Total(ms)")

	table := [][]string{header}
	addRow := func(name, outcome string, phases map[string]PhaseStat, counters map[string]int64, totalNs int64) {
		cells := []string{name, outcome}
		for _, c := range cols {
			ps := phases[c]
			if ps.Count == 0 {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%.1f", float64(ps.Ns)/1e6))
			}
		}
		for _, cc := range counterColumns {
			cells = append(cells, fmt.Sprintf("%d", counters[cc.name]))
		}
		hits, misses := counters[MQCacheHits], counters[MQCacheMisses]
		if hits+misses > 0 {
			cells = append(cells, fmt.Sprintf("%.1f", 100*float64(hits)/float64(hits+misses)))
		} else {
			cells = append(cells, "-")
		}
		cells = append(cells, fmt.Sprintf("%.1f", float64(totalNs)/1e6))
		table = append(table, cells)
	}
	for _, row := range rows {
		addRow(row.Loop, row.Outcome, row.Phases, row.Counters, row.TotalNs)
	}
	tp, tc := r.Totals()
	var totalNs int64
	for _, row := range rows {
		totalNs += row.TotalNs
	}
	addRow("TOTAL", fmt.Sprintf("%d loops", len(rows)), tp, tc, totalNs)

	writeBoxed(w, table)
}

// writeBoxed renders cells in the klee-stats box style.
func writeBoxed(w io.Writer, table [][]string) {
	if len(table) == 0 {
		return
	}
	widths := make([]int, len(table[0]))
	for _, row := range table {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	sep := "-"
	for _, wd := range widths {
		sep += strings.Repeat("-", wd+3)
	}
	fmt.Fprintln(w, sep)
	for ri, row := range table {
		line := "|"
		for i, cell := range row {
			if i == 0 {
				line += fmt.Sprintf(" %-*s |", widths[i], cell)
			} else {
				line += fmt.Sprintf(" %*s |", widths[i], cell)
			}
		}
		fmt.Fprintln(w, line)
		if ri == 0 || ri == len(table)-2 {
			fmt.Fprintln(w, sep)
		}
	}
	fmt.Fprintln(w, sep)
}

// reportJSON is the JSON export schema.
type reportJSON struct {
	Rows          []LoopRow            `json:"rows"`
	TotalPhases   map[string]PhaseStat `json:"total_phases"`
	TotalCounters map[string]int64     `json:"total_counters"`
}

// JSON marshals the report (rows plus totals).
func (r *Report) JSON() ([]byte, error) {
	tp, tc := r.Totals()
	return json.MarshalIndent(reportJSON{Rows: r.Rows(), TotalPhases: tp, TotalCounters: tc}, "", "  ")
}
