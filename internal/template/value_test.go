package template

import (
	"testing"
	"testing/quick"
)

func TestTruth(t *testing.T) {
	full := &tableRows{cols: []string{"a"}, cells: [][]any{{1}}}
	truthy := []any{true, 1, int64(2), 0.5, "x", []any{0}, map[string]any{"a": 1}, full, struct{}{}, []int{}}
	falsy := []any{nil, false, 0, int64(0), 0.0, "", []any{}, map[string]any{}, &tableRows{}}
	for _, v := range truthy {
		if !Truth(v) {
			t.Errorf("Truth(%#v) = false, want true", v)
		}
	}
	for _, v := range falsy {
		if Truth(v) {
			t.Errorf("Truth(%#v) = true, want false", v)
		}
	}
}

func TestStringify(t *testing.T) {
	tests := []struct {
		in   any
		want string
	}{
		{nil, ""},
		{"s", "s"},
		{true, "True"},
		{false, "False"},
		{42, "42"},
		{int64(-7), "-7"},
		{3.5, "3.5"},
		{2.0, "2.0"}, // Django float display
		{float32(1.5), "1.5"},
		{stringer{}, `<s id="1">`},
	}
	for _, tt := range tests {
		if got := Stringify(tt.in); got != tt.want {
			t.Errorf("Stringify(%#v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// TestResolveAttr: a path step reads a map[string]any key, a row's
// column, or forloop.counter; anything else is nil, with no reflection.
func TestResolveAttr(t *testing.T) {
	rows := &tableRows{cols: []string{"a"}, cells: [][]any{{"r0"}, {"r1"}}}
	loop := &forLoop{i: 2}
	type inner struct{ Name string }
	for _, tt := range []struct {
		v    any
		attr string
		want any
	}{
		{map[string]any{"k": 3}, "k", 3},
		{map[string]any{"k": 3}, "nope", nil},
		{&rowRef{rows: rows, i: 1}, "a", "r1"},
		{&rowRef{rows: rows, i: 0}, "nope", nil},
		{loop, "counter", 3},
		{loop, "counter0", nil},
		{nil, "x", nil},
		{42, "x", nil},
		{inner{Name: "x"}, "Name", nil},
		{&inner{Name: "y"}, "Name", nil},
		{map[string]int{"k": 3}, "k", nil},
		{[]any{"a", "b"}, "1", nil},
	} {
		if got := resolveAttr(tt.v, tt.attr); got != tt.want {
			t.Errorf("resolveAttr(%#v, %q) = %#v, want %#v", tt.v, tt.attr, got, tt.want)
		}
	}
}

// rowWithMethod is a named map type: it is not a map[string]any, so a
// path does not resolve into it, key or method.
type rowWithMethod map[string]any

func (rowWithMethod) Title() string { return "from method" }

// TestResolveAttrMapFastPath: a map[string]any lookup returns the entry,
// nested maps chain, and a lookup costs no allocation.
func TestResolveAttrMapFastPath(t *testing.T) {
	m := map[string]any{"title": "T", "qty": int64(3), "null": nil, "nested": map[string]any{"k": "v"}}
	for attr, want := range map[string]any{"title": "T", "qty": int64(3), "null": nil, "missing": nil, "Len": nil, "0": nil} {
		if got := resolveAttr(m, attr); got != want {
			t.Errorf("attr %q: %#v, want %#v", attr, got, want)
		}
	}
	if got := resolveAttr(m, "nested"); resolveAttr(got, "k") != "v" {
		t.Errorf("nested map: %v", got)
	}
	if got := resolveAttr(map[string]any(nil), "title"); got != nil {
		t.Errorf("nil map: %v", got)
	}
	named := rowWithMethod{"Title": "from key", "other": 1}
	if got := resolveAttr(named, "Title"); got != nil {
		t.Errorf("named map type: %v, want nil", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = resolveAttr(m, "title") }); n != 0 {
		t.Errorf("map lookup allocates %v times", n)
	}
}

// TestContextScopes: a loop's bindings shadow the data and earlier
// bindings, and are gone once the loop ends.
func TestContextScopes(t *testing.T) {
	src := "{{ a }}{% for a in xs %}{{ a }}{% for b in xs %}{{ a }}{{ b }}{% endfor %}{% endfor %}{{ a }}[{{ b }}{{ forloop.counter }}]"
	if got := render(t, src, map[string]any{"a": 1, "xs": []any{2, 3}}); got != "122223332331[]" {
		t.Fatalf("got %q", got)
	}
	c := &Context{data: map[string]any{"a": 1}}
	c.binds = append(c.binds, binding{"a", 2})
	if v, _ := c.Lookup("a"); v != 2 {
		t.Fatalf("inner shadow = %v", v)
	}
	c.binds = c.binds[:0]
	if v, _ := c.Lookup("a"); v != 1 {
		t.Fatalf("after the binding = %v", v)
	}
	if _, ok := c.Lookup("zz"); ok {
		t.Fatal("phantom lookup")
	}
}

// Property: Truth(Stringify(x)) is true whenever Stringify(x) != "".
func TestStringifyTruthProperty(t *testing.T) {
	f := func(n int64, s string) bool {
		out := Stringify(n)
		if out == "" {
			return false // integers always print something
		}
		str := Stringify(s)
		return Truth(str) == (str != "")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
