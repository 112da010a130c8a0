package cliflags

import (
	"flag"
	"strconv"
	"testing"

	"stringloops/internal/engine"
)

func TestProfileParses(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := Profile(fs)
	args := []string{"-merge", "-vn=false", "-cache-dir", dir, "-cache-max-bytes", strconv.Itoa(1 << 20)}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Profile(), (engine.Profile{Merge: true, NoVN: true}); got != want {
		t.Errorf("profile = %+v, want %+v", got, want)
	}
	if *p.CacheDir != dir || *p.CacheMaxBytes != 1<<20 {
		t.Errorf("tier settings = (%q, %d), want (%q, %d)", *p.CacheDir, *p.CacheMaxBytes, dir, 1<<20)
	}
	tier, err := p.OpenTier()
	if err != nil {
		t.Fatal(err)
	}
	if tier == nil || tier.Dir != dir {
		t.Fatalf("OpenTier = %+v, want a tier in %s", tier, dir)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := Profile(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Profile(); got != (engine.Profile{}) {
		t.Errorf("default profile = %+v, want the zero Profile", got)
	}
	tier, err := p.OpenTier()
	if err != nil || tier != nil {
		t.Errorf("default OpenTier = (%v, %v), want the nil tier", tier, err)
	}
}
