package main

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
)

// persistChildMaxLen is the bounded-check string length of the persist
// lane's workload: one above the paper's §3.3 minimum of 3, so the check is
// strictly stronger (verdicts are unchanged — the small-model theorems make
// length 3 sufficient) while the cold sweep does enough solver work for the
// cross-process speedup to be about the cache rather than process startup.
const persistChildMaxLen = 4

// persistChildRun is the persist lane's hidden worker phase: one process,
// one sequential memorylessness sweep over the corpus through the persistent
// tier at -cache-dir, verdicts and counters printed to stdout in the line
// format persistChildExec parses. The parent runs it twice over the same
// directory; whether this process is the cold or the warm one is entirely a
// property of what the directory holds.
func persistChildRun(dir string, sample int) {
	if dir == "" {
		fatal("persist child: -cache-dir is required")
	}
	tier, err := diskcache.Open(dir, nil)
	if err != nil {
		fatal("persist child: %v", err)
	}
	loops := loopdb.Corpus()
	if sample > 0 && sample < len(loops) {
		loops = loops[:sample]
	}
	budget := engine.NewBudget(nil, engine.Limits{})
	start := time.Now()
	for _, l := range loops {
		f, err := l.Lower()
		if err != nil {
			fatal("persist child: lower %s: %v", l.Name, err)
		}
		r := memoryless.VerifyWith(f, memoryless.VerifyOptions{
			MaxLen: persistChildMaxLen, Budget: budget,
			Disk: tier.QueryStore(), Memo: tier.MemoStore(),
		})
		if r.Memoryless {
			fmt.Printf("verdict\t%s\tmemoryless\t%s\t%d\n", l.Name, r.Spec.Dir, r.Spec.Miss)
		} else {
			fmt.Printf("verdict\t%s\trejected\t%s\n", l.Name, r.Reason)
		}
	}
	elapsed := time.Since(start)
	if err := tier.Close(); err != nil {
		fatal("persist child: cache persist: %v", err)
	}
	fmt.Printf("done\t%d\t%d\t%d\t%d\n", elapsed.Nanoseconds(),
		budget.DiskHits(), budget.DiskMisses(), budget.DiskEvictions())
}

// childStats is one worker process's parsed output.
type childStats struct {
	verdicts            []string
	ns                  int64 // sweep time as measured inside the child
	wallNs              int64 // full process wall time, spawn included
	hits, misses, evics int64
}

// persistChildExec re-executes this binary as a -persist-child worker over
// dir and parses its stdout.
func persistChildExec(dir string, sample int) childStats {
	exe, err := os.Executable()
	if err != nil {
		fatal("persist: %v", err)
	}
	cmd := exec.Command(exe, "-persist-child", "-cache-dir", dir, "-sample", strconv.Itoa(sample))
	cmd.Stderr = os.Stderr
	wallStart := time.Now()
	raw, err := cmd.Output()
	wall := time.Since(wallStart)
	if err != nil {
		fatal("persist: child failed: %v", err)
	}
	st := childStats{wallNs: int64(wall)}
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "verdict\t"):
			st.verdicts = append(st.verdicts, line)
		case strings.HasPrefix(line, "done\t"):
			if _, err := fmt.Sscanf(line, "done\t%d\t%d\t%d\t%d", &st.ns, &st.hits, &st.misses, &st.evics); err != nil {
				fatal("persist: malformed child trailer %q: %v", line, err)
			}
		}
	}
	if st.ns == 0 || len(st.verdicts) == 0 {
		fatal("persist: child produced no measurements")
	}
	return st
}

// persistReport is the BENCH_7.json schema: one corpus sweep by a cold
// process (empty cache directory) and one by a warm process (the cold run's
// persisted tier), with verdict identity and the cross-process speedup.
type persistReport struct {
	header
	Corpus string `json:"corpus"`
	Loops  int    `json:"loops"`
	MaxLen int    `json:"max_len"`
	// ColdNs/WarmNs are sweep times measured inside each child;
	// the *WallNs pair includes process spawn and exit.
	ColdNs         int64 `json:"cold_ns"`
	WarmNs         int64 `json:"warm_ns"`
	ColdWallNs     int64 `json:"cold_wall_ns"`
	WarmWallNs     int64 `json:"warm_wall_ns"`
	ColdDiskHits   int64 `json:"cold_disk_hits"`
	ColdDiskMisses int64 `json:"cold_disk_misses"`
	WarmDiskHits   int64 `json:"warm_disk_hits"`
	WarmDiskMisses int64 `json:"warm_disk_misses"`
	DiskEvictions  int64 `json:"disk_evictions"`
	Memoryless     int   `json:"memoryless"`
	// VerdictsIdentical is the correctness half of the lane: the warm
	// process must reproduce the cold verdicts byte for byte. A mismatch is
	// fatal even without -check.
	VerdictsIdentical   bool    `json:"verdicts_identical"`
	NsRatioColdOverWarm float64 `json:"ns_ratio_cold_over_warm"`
}

// persistLane measures the persistent tier across a process boundary: two
// child sweeps over one fresh cache directory, cold then warm. Verdict
// mismatch always fails; -check additionally requires the warm process to be
// strictly faster.
func persistLane(p params) {
	sample := p.sample
	if p.short && sample == 0 {
		sample = 30
	}
	// A fresh directory (under -cache-dir when given, the system temp dir
	// otherwise) guarantees the first child really is cold.
	dir, err := os.MkdirTemp(p.cacheDir, "bench-persist-*")
	if err != nil {
		fatal("persist: %v", err)
	}
	defer os.RemoveAll(dir)

	cold := persistChildExec(dir, sample)
	warm := persistChildExec(dir, sample)

	identical := slices.Equal(cold.verdicts, warm.verdicts)
	memless := 0
	for _, v := range cold.verdicts {
		if strings.Contains(v, "\tmemoryless\t") {
			memless++
		}
	}

	rep := persistReport{
		header:              newHeader("BenchmarkPersistentCache", ""),
		Corpus:              "loopdb/curated",
		Loops:               len(cold.verdicts),
		MaxLen:              persistChildMaxLen,
		ColdNs:              cold.ns,
		WarmNs:              warm.ns,
		ColdWallNs:          cold.wallNs,
		WarmWallNs:          warm.wallNs,
		ColdDiskHits:        cold.hits,
		ColdDiskMisses:      cold.misses,
		WarmDiskHits:        warm.hits,
		WarmDiskMisses:      warm.misses,
		DiskEvictions:       cold.evics + warm.evics,
		Memoryless:          memless,
		VerdictsIdentical:   identical,
		NsRatioColdOverWarm: ratio(cold.ns, warm.ns),
	}

	emit(rep, p.out)
	if !identical {
		for i := range cold.verdicts {
			if i < len(warm.verdicts) && cold.verdicts[i] != warm.verdicts[i] {
				fmt.Fprintf(os.Stderr, "persist: first divergence:\n  cold: %s\n  warm: %s\n",
					cold.verdicts[i], warm.verdicts[i])
				break
			}
		}
		fatal("persist check failed: warm verdicts differ from cold (%d vs %d loops)",
			len(cold.verdicts), len(warm.verdicts))
	}
	if p.check {
		if warm.ns >= cold.ns {
			fatal("persist check failed: warm sweep (%v) not faster than cold (%v)",
				time.Duration(warm.ns), time.Duration(cold.ns))
		}
		if warm.hits == 0 {
			fatal("persist check failed: warm process recorded zero disk hits")
		}
		fmt.Printf("persist check ok: cold/warm = %.2fx over %d loops, warm disk hits %d\n",
			rep.NsRatioColdOverWarm, rep.Loops, warm.hits)
	}
}
