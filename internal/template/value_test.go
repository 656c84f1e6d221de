package template

import (
	"testing"
	"testing/quick"
)

func TestTruth(t *testing.T) {
	truthy := []any{true, 1, int64(2), 0.5, "x", Safe("x"), []int{1}, map[string]int{"a": 1}}
	falsy := []any{nil, false, 0, int64(0), 0.0, "", Safe(""), []int{}, map[string]int{}}
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

func TestEqualCoercion(t *testing.T) {
	tests := []struct {
		a, b any
		want bool
	}{
		{1, 1.0, true},
		{1, "1", true}, // numeric string coercion
		{int64(5), 5, true},
		{"a", "a", true},
		{Safe("a"), "a", true},
		{"a", "b", false},
		{[]int{1}, []int{1}, true}, // deep equality fallback
		{nil, nil, true},
		{true, 1, true}, // bool-as-number
	}
	for _, tt := range tests {
		if got := Equal(tt.a, tt.b); got != tt.want {
			t.Errorf("Equal(%#v, %#v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestLess(t *testing.T) {
	if ok, err := Less(1, 2); err != nil || !ok {
		t.Fatalf("Less(1,2) = %v, %v", ok, err)
	}
	if ok, err := Less("a", "b"); err != nil || !ok {
		t.Fatalf("Less(a,b) = %v, %v", ok, err)
	}
	if _, err := Less([]int{}, 1); err == nil {
		t.Fatal("Less on unordered types succeeded")
	}
}

func TestContains(t *testing.T) {
	if ok, _ := Contains("ell", "hello"); !ok {
		t.Fatal("substring not found")
	}
	if ok, _ := Contains(2, []int{1, 2, 3}); !ok {
		t.Fatal("slice element not found")
	}
	if ok, _ := Contains("k", map[string]int{"k": 1}); !ok {
		t.Fatal("map key not found")
	}
	if ok, _ := Contains("x", nil); ok {
		t.Fatal("nil container contained something")
	}
	if _, err := Contains(1, 42); err == nil {
		t.Fatal("non-container accepted")
	}
}

func TestStringify(t *testing.T) {
	tests := []struct {
		in   any
		want string
	}{
		{nil, ""},
		{"s", "s"},
		{Safe("<b>"), "<b>"},
		{true, "True"},
		{false, "False"},
		{42, "42"},
		{int64(-7), "-7"},
		{3.5, "3.5"},
		{2.0, "2.0"}, // Django float display
		{float32(1.5), "1.5"},
	}
	for _, tt := range tests {
		if got := Stringify(tt.in); got != tt.want {
			t.Errorf("Stringify(%#v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestResolveAttr(t *testing.T) {
	type inner struct{ Name string }
	type outer struct {
		In  inner
		Ptr *inner
	}
	v := outer{In: inner{Name: "x"}, Ptr: &inner{Name: "y"}}
	if got := resolveAttr(v, "In"); got.(inner).Name != "x" {
		t.Fatalf("struct field: %v", got)
	}
	if got := resolveAttr(resolveAttr(v, "Ptr"), "Name"); got != "y" {
		t.Fatalf("pointer deref: %v", got)
	}
	if got := resolveAttr(map[string]int{"k": 3}, "k"); got != 3 {
		t.Fatalf("map key: %v", got)
	}
	if got := resolveAttr([]string{"a", "b"}, "1"); got != "b" {
		t.Fatalf("slice index: %v", got)
	}
	if got := resolveAttr([]string{"a"}, "9"); got != nil {
		t.Fatalf("out of range: %v", got)
	}
	if got := resolveAttr(nil, "x"); got != nil {
		t.Fatalf("nil base: %v", got)
	}
	if got := resolveAttr(42, "x"); got != nil {
		t.Fatalf("scalar attr: %v", got)
	}
	var nilPtr *inner
	if got := resolveAttr(nilPtr, "Name"); got != nil {
		t.Fatalf("nil pointer: %v", got)
	}
}

// rowWithMethod is a named map type: it can carry methods, so it must
// keep taking the reflective route (method first), not the
// map[string]any fast path.
type rowWithMethod map[string]any

func (rowWithMethod) Title() string { return "from method" }

// TestResolveAttrMapFastPath checks that the map[string]any fast path
// returns exactly what the reflective route returns.
func TestResolveAttrMapFastPath(t *testing.T) {
	m := map[string]any{"title": "T", "qty": int64(3), "null": nil, "nested": map[string]any{"k": "v"}}
	for _, attr := range []string{"title", "qty", "null", "missing", "nested", "Len", "0"} {
		fast, slow := resolveAttr(m, attr), reflectAttr(m, attr)
		if fm, ok := fast.(map[string]any); ok {
			if sm, ok := slow.(map[string]any); !ok || fm["k"] != sm["k"] {
				t.Errorf("attr %q: fast %v, reflective %v", attr, fast, slow)
			}
			continue
		}
		if fast != slow {
			t.Errorf("attr %q: fast %#v, reflective %#v", attr, fast, slow)
		}
	}
	if got := resolveAttr(m, "nested"); resolveAttr(got, "k") != "v" {
		t.Errorf("nested map: %v", got)
	}
	if got := resolveAttr(map[string]any(nil), "title"); got != nil {
		t.Errorf("nil map: %v", got)
	}
	named := rowWithMethod{"Title": "from key", "other": 1}
	if got := resolveAttr(named, "Title"); got != "from method" {
		t.Errorf("named map type: method not taken, got %v", got)
	}
	if got := resolveAttr(named, "other"); got != 1 {
		t.Errorf("named map type key: %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = resolveAttr(m, "title") }); n != 0 {
		t.Errorf("fast path allocates %v times per lookup", n)
	}
}

func TestContextScopes(t *testing.T) {
	c := NewContext(map[string]any{"a": 1})
	c.Push()
	c.Set("a", 2)
	if v, _ := c.Lookup("a"); v != 2 {
		t.Fatalf("inner shadow = %v", v)
	}
	c.Pop()
	if v, _ := c.Lookup("a"); v != 1 {
		t.Fatalf("after pop = %v", v)
	}
	if _, ok := c.Lookup("zz"); ok {
		t.Fatal("phantom lookup")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("popping outermost scope did not panic")
		}
	}()
	c.Pop()
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
