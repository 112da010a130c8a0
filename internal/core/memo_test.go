package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
)

// newTestTier builds a cache tier over a temp directory.
func newTestTier(t *testing.T) *diskcache.Tier {
	t.Helper()
	tier, err := diskcache.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

// TestSummarizeMemoHit: the second summarisation of a structurally identical
// loop (different names, fresh parse) must come from the memo store, agree
// bit-for-bit on the encoded program, and carry the new function's name in
// the compiled C.
func TestSummarizeMemoHit(t *testing.T) {
	tier := newTestTier(t)
	opts := Options{Timeout: time.Minute, Cache: tier}

	a, err := Summarize(`char *skipdots(char *s) { while (*s == '.') s++; return s; }`, "", opts)
	if err != nil {
		t.Fatal(err)
	}

	b1 := engine.NewBudget(nil, engine.Limits{})
	opts2 := opts
	opts2.Budget = b1
	b, err := Summarize(`char *advance(char *p) { while (*p == '.') p = p + 1; return p; }`, "", opts2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Encoded != a.Encoded || b.Memoryless != a.Memoryless || b.Direction != a.Direction {
		t.Fatalf("memoised summary diverged: %q/%v/%s vs %q/%v/%s",
			b.Encoded, b.Memoryless, b.Direction, a.Encoded, a.Memoryless, a.Direction)
	}
	if want := "advance_summary"; !strings.Contains(b.C, want) {
		t.Errorf("compiled C must use the new function's name %q:\n%s", want, b.C)
	}
	if b1.DiskHits() == 0 {
		t.Error("second run must be charged a memo hit")
	}
	// The memoised summary must still execute.
	if off, found := b.Run("..x"); !found || off != 2 {
		t.Errorf("memoised summary Run = %d,%v", off, found)
	}
}

// TestSummarizeMemoNotFound: a clean exhaustive not-found is memoised too —
// the second run returns ErrNotFound without re-searching.
func TestSummarizeMemoNotFound(t *testing.T) {
	tier := newTestTier(t)
	src := `
char *mid(char *s) {
  int n = 0;
  while (s[n]) n++;
  return s + n / 2;
}`
	opts := Options{Timeout: time.Minute, Cache: tier, MaxProgramSize: 3}
	if _, err := Summarize(src, "", opts); !errors.Is(err, ErrNotFound) {
		t.Fatalf("first run: %v", err)
	}
	b := engine.NewBudget(nil, engine.Limits{})
	opts2 := opts
	opts2.Budget = b
	if _, err := Summarize(src, "", opts2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second run: %v", err)
	}
	if b.DiskHits() == 0 {
		t.Error("negative verdict must come from the memo store")
	}
}

// TestSummarizeMemoPersistsAcrossTiers: Save/Open round-trips the memo on
// disk, standing in for a second process warm-starting from the cache dir.
func TestSummarizeMemoPersistsAcrossTiers(t *testing.T) {
	dir := t.TempDir()
	tier, err := diskcache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := `char *skipsp(char *s) { while (*s == ' ') s++; return s; }`
	a, err := Summarize(src, "", Options{Timeout: time.Minute, Cache: tier})
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "memo.cache")); err != nil {
		t.Fatalf("memo snapshot missing: %v", err)
	}

	tier2, err := diskcache.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	bud := engine.NewBudget(nil, engine.Limits{})
	b, err := Summarize(src, "", Options{Timeout: time.Minute, Cache: tier2, Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if b.Encoded != a.Encoded {
		t.Fatalf("warm-start summary %q != cold summary %q", b.Encoded, a.Encoded)
	}
	if bud.DiskHits() == 0 {
		t.Error("warm start must hit the loaded memo")
	}
}

// TestSummarizeMemoKeyRespectsOptions: changing an outcome-shaping option
// must not reuse an entry computed under different options.
func TestSummarizeMemoKeyRespectsOptions(t *testing.T) {
	tier := newTestTier(t)
	src := `char *skipa(char *s) { while (*s == 'a') s++; return s; }`
	if _, err := Summarize(src, "", Options{Timeout: time.Minute, Cache: tier}); err != nil {
		t.Fatal(err)
	}
	// A vocabulary without the loop's gadgets must fail even though the full
	// vocabulary's entry is in the memo.
	if _, err := Summarize(src, "", Options{Timeout: time.Minute, Cache: tier, Vocabulary: "EF"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restricted vocabulary must not reuse the full-vocabulary entry: %v", err)
	}
}

// TestSummarizeMemoSkipsFaultedRuns: an outcome computed while a fault fired
// is not the loop's outcome, so it must not be memoised. A candidate-reject
// storm makes the Figure 1 loop look unsummarisable; a clean run on the same
// tier must still search for itself and find the summary.
func TestSummarizeMemoSkipsFaultedRuns(t *testing.T) {
	tier := newTestTier(t)
	faults := faultpoint.New(faultpoint.Config{Seed: 1, Rates: map[faultpoint.Site]float64{faultpoint.CegisReject: 1}})
	if _, err := Summarize(figure1, "", Options{Timeout: time.Minute, Cache: tier, Faults: faults}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("faulted run: %v, want ErrNotFound", err)
	}
	if faults.Fired(faultpoint.CegisReject) == 0 {
		t.Fatal("the reject site never fired")
	}
	s, err := Summarize(figure1, "", Options{Timeout: time.Minute, Cache: tier})
	if err != nil {
		t.Fatalf("clean run after a faulted one: %v", err)
	}
	if off, found := s.Run(" \t x"); !found || off != 3 {
		t.Errorf("summary %q: Run = %d,%v, want 3,true", s.Encoded, off, found)
	}
}
