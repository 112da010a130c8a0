package vocab

import (
	"testing"

	"stringloops/internal/cstr"
)

// FuzzDecode checks that arbitrary byte strings either fail to decode or
// round-trip exactly, and that decoded programs can always be interpreted
// without panicking.
func FuzzDecode(f *testing.F) {
	f.Add("P \t\x00F")
	f.Add("ZFP \t\x00F")
	f.Add("EF")
	f.Add("VCxF")
	f.Add("M\aF")
	f.Add("\x00\x01\x02")
	f.Fuzz(func(t *testing.T, enc string) {
		p, err := Decode(enc)
		if err != nil {
			return
		}
		if got := p.Encode(); got != enc {
			t.Fatalf("round trip %q -> %q", enc, got)
		}
		// Interpretation must be total on any decoded program.
		Run(p, cstr.Terminate("ab c"))
		Run(p, cstr.Terminate(""))
		Run(p, nil)
		CompileGo(p)(cstr.Terminate("xy"))
	})
}

// FuzzRunAgainstCompiled cross-checks the interpreter against the compiled
// form on fuzzer-chosen programs and inputs.
func FuzzRunAgainstCompiled(f *testing.F) {
	f.Add("P \x00F", "  ab")
	f.Add("C:F", "k:v")
	f.Add("VPx\x00F", "axxx")
	f.Fuzz(func(t *testing.T, enc, input string) {
		p, err := Decode(enc)
		if err != nil {
			return
		}
		buf := cstr.Terminate(input)
		if got, want := CompileGo(p)(buf), Run(p, buf); got != want {
			t.Fatalf("%q on %q: compiled %+v, interpreted %+v", enc, input, got, want)
		}
	})
}

// FuzzSymStateResume checks that a symbolic run resumed from a cloned prefix
// state matches the whole-program run on fuzzer-chosen skeletons and
// concrete inputs (see checkResume).
func FuzzSymStateResume(f *testing.F) {
	f.Add([]byte("\x0b"), []byte("\x04\x0c"), []byte("\x06\x0c\x04\x0c"), "a b")
	f.Add([]byte("\x04"), []byte("\x0c"), []byte("\x11\x0c"), " \t")
	f.Add([]byte{}, []byte("\x01\x0c"), []byte("\x09\x08\x0c"), "")
	f.Fuzz(func(t *testing.T, prefix, suffix1, suffix2 []byte, input string) {
		if len(prefix) > 6 || len(suffix1) > 6 || len(suffix2) > 6 || len(input) > 4 {
			return
		}
		for i := 0; i < len(input); i++ {
			if input[i] == 0 {
				return
			}
		}
		checkResume(t, concreteStr(t, []byte(input)), prefix, [][]byte{suffix1, suffix2})
	})
}
