// Command memverify reproduces §3.3: bounded verification that each of the
// 115 corpus loops is memoryless (on strings of length <= 3, which the
// small-model theorems of §3 extend to all lengths). The paper proves 85 of
// 115 in under three seconds per loop on average.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"stringloops/internal/cliflags"
	"stringloops/internal/core"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
)

func main() {
	maxLen := flag.Int("maxlen", 3, "bounded-check string length")
	verbose := flag.Bool("v", false, "per-loop results")
	jobs := cliflags.Jobs(nil, 1)
	profile := cliflags.Profile(nil)
	obsFlags := cliflags.Obs(nil)
	flag.Parse()
	sess, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "memverify: %v\n", err)
		os.Exit(2)
	}
	tier, err := profile.OpenTier()
	if err != nil {
		fmt.Fprintf(os.Stderr, "memverify: %v\n", err)
		os.Exit(2)
	}

	// Verify through core.Sweep (each loop builds its own solver pipeline),
	// then aggregate serially in corpus order so the output is stable.
	loops := loopdb.Corpus()
	results := core.Sweep(loops, *jobs, sess, func(it *core.SweepItem) (memoryless.Report, string, error) {
		f, err := it.Loop.Lower()
		if err != nil {
			return memoryless.Report{}, "", err
		}
		r := memoryless.VerifyWith(f, memoryless.VerifyOptions{
			MaxLen: *maxLen, Budget: it.Budget(engine.Limits{}), Profile: profile.Profile(),
			Disk: tier.QueryStore(), Memo: tier.MemoStore(),
		})
		if r.Memoryless {
			return r, "memoryless", r.Err
		}
		return r, "rejected", r.Err
	})

	verified, total := 0, 0
	var elapsed time.Duration
	perProg := map[string][2]int{}
	for i, l := range loops {
		r := results[i].Value
		// A budget stop leaves the loop unverified; any other failure is
		// the tool's.
		if err := results[i].Err; err != nil && !errors.Is(err, engine.ErrBudget) {
			fmt.Fprintf(os.Stderr, "memverify: %s: %v\n", l.Name, err)
			os.Exit(1)
		}
		total++
		elapsed += r.Elapsed
		pp := perProg[l.Program]
		pp[1]++
		if r.Memoryless {
			verified++
			pp[0]++
			if *verbose {
				fmt.Printf("%-32s memoryless (%s spec, %v)\n", l.Name, r.Spec.Dir, r.Elapsed.Round(time.Millisecond))
			}
		} else if *verbose {
			fmt.Printf("%-32s %s: %s\n", l.Name, results[i].Outcome, r.Reason)
		}
		perProg[l.Program] = pp
	}
	fmt.Println("Memorylessness verification (§3.3):")
	for _, prog := range loopdb.Programs {
		pp := perProg[prog]
		if pp[1] == 0 {
			continue
		}
		fmt.Printf("  %-10s %3d/%d\n", prog, pp[0], pp[1])
	}
	fmt.Printf("verified %d of %d loops; average %.3fs per loop (paper: 85/115, <3s)\n",
		verified, total, elapsed.Seconds()/float64(total))
	if err := tier.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "memverify: cache persist: %v\n", err)
	}
	if err := sess.Finish(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "memverify: %v\n", err)
		os.Exit(1)
	}
}
