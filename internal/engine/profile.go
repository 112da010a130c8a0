package engine

import "strconv"

// Profile picks the pipeline configuration the paper's experiments compare:
// enumerated against merged states, with or without value numbering. Every
// pipeline option struct embeds it, so a switch reaches every layer without
// forwarding; the zero Profile is the default pipeline. A field that can
// change a verdict must be rendered by Key, which the memo keys embed; a
// speed-only field is tagged `profile:"neutral"` and left out of Key
// (TestProfileKeyCoversEveryField enforces the split).
type Profile struct {
	// Merge enables state merging in every symbolic execution
	// (symex.Engine.Merge).
	Merge bool
	// NoVN disables the value-numbering rewrite layer (bv.Interner.SetVN)
	// in every solver chain; inverted so the zero Profile keeps it on.
	NoVN bool `profile:"neutral"`
}

// Key renders the verdict-shaping fields for the sum1 and mv1 memo keys.
// Merge renders as %t does, so stores written before Profile stay warm.
func (p Profile) Key() string {
	return strconv.FormatBool(p.Merge)
}
