package engine

import (
	"reflect"
	"testing"
)

// TestProfileKeyCoversEveryField: every Profile field either changes Key
// when toggled (it shapes verdicts, so the memo keys must carry it) or is
// tagged verdict-neutral and leaves Key alone. A field added without
// deciding which fails here, before it can serve one configuration's
// memoized verdict to another.
func TestProfileKeyCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Profile{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Bool {
			t.Fatalf("field %s is %s; teach this test to toggle it", f.Name, f.Type)
		}
		var p Profile
		reflect.ValueOf(&p).Elem().Field(i).SetBool(true)
		changed := p.Key() != (Profile{}).Key()
		switch neutral := f.Tag.Get("profile") == "neutral"; {
		case neutral && changed:
			t.Errorf("field %s is tagged verdict-neutral but changes Key", f.Name)
		case !neutral && !changed:
			t.Errorf("field %s neither changes Key nor is tagged `profile:\"neutral\"`", f.Name)
		}
	}
}

// TestProfileKeyFormat pins the rendering the memo keys embed: Merge as %t
// renders it, so stores written before Profile existed stay warm.
func TestProfileKeyFormat(t *testing.T) {
	for _, c := range []struct {
		p    Profile
		want string
	}{
		{Profile{}, "false"},
		{Profile{Merge: true}, "true"},
		{Profile{NoVN: true}, "false"},
		{Profile{Merge: true, NoVN: true}, "true"},
	} {
		if got := c.p.Key(); got != c.want {
			t.Errorf("%+v.Key() = %q, want %q", c.p, got, c.want)
		}
	}
}
