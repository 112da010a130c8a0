package main

import "testing"

// TestRuleParsing: the pattern ends at the first '=', so an exact rule
// ("key==") gates key itself, not a pattern "key=" that matches nothing.
func TestRuleParsing(t *testing.T) {
	var rules ruleList
	for _, s := range []string{"*.tests==", "*ns*=skip", "cache_hit_rate=-2%", "shed=+0"} {
		if err := rules.Set(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	want := []rule{
		{pattern: "*.tests", spec: "="},
		{pattern: "*ns*", spec: "skip"},
		{pattern: "cache_hit_rate", spec: "-2%", rel: 0.02, isRel: true, dir: -1},
		{pattern: "shed", spec: "+0", dir: +1},
	}
	for i, w := range want {
		if rules[i] != w {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], w)
		}
	}
	if ru := findRule(rules, "runs.SolverCacheOn.tests"); ru == nil || ru.spec != "=" {
		t.Errorf("runs.SolverCacheOn.tests: rule %+v, want the exact rule", ru)
	}
}

// TestExactRuleFailsOnChange: a gated count that moves fails the diff.
func TestExactRuleFailsOnChange(t *testing.T) {
	var rules ruleList
	rules.Set("*.tests==")
	old := map[string]float64{"runs.A.tests": 766}
	if code := diff(old, map[string]float64{"runs.A.tests": 766}, rules, nil, 0.1); code != 0 {
		t.Errorf("unchanged count: exit %d", code)
	}
	if code := diff(old, map[string]float64{"runs.A.tests": 765}, rules, nil, 0.1); code != 1 {
		t.Errorf("changed count: exit %d, want 1", code)
	}
}
