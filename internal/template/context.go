package template

import (
	"fmt"
	"reflect"
	"strconv"
)

// Context carries the data a template is rendered with — the paper's
// "dictionary (a.k.a. hashtable) used to render the template". It is a
// scope stack: tags like {% for %} and {% with %} push a scope for their
// body and pop it afterwards.
//
// A Context is not safe for concurrent use; the rendering pool gives each
// render its own Context.
type Context struct {
	scopes []map[string]any
}

// NewContext returns a context whose outermost scope is data (may be nil).
func NewContext(data map[string]any) *Context {
	if data == nil {
		data = map[string]any{}
	}
	return &Context{scopes: []map[string]any{data}}
}

// Push adds an inner scope.
func (c *Context) Push() {
	c.scopes = append(c.scopes, map[string]any{})
}

// Pop removes the innermost scope. Popping the outermost scope panics —
// that is always a programming error in a tag implementation.
func (c *Context) Pop() {
	if len(c.scopes) == 1 {
		panic("template: popped outermost context scope")
	}
	c.scopes = c.scopes[:len(c.scopes)-1]
}

// Set binds name in the innermost scope.
func (c *Context) Set(name string, value any) {
	c.scopes[len(c.scopes)-1][name] = value
}

// Lookup finds name, innermost scope first.
func (c *Context) Lookup(name string) (any, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v, true
		}
	}
	return nil, false
}

// resolveAttr resolves one step of a dotted variable path against value:
// map key, struct field, slice/array index, or method with no arguments.
// Missing attributes resolve to nil (Django's silent-failure semantics)
// so a template never crashes a render over absent data.
func resolveAttr(value any, attr string) any {
	if value == nil {
		return nil
	}
	// The shape every TPC-W page passes (ResultSet.Maps). An unnamed map
	// type has no methods, so indexing it is exactly what the reflective
	// route below returns, without its three allocations per lookup.
	if m, ok := value.(map[string]any); ok {
		return m[attr]
	}
	return reflectAttr(value, attr)
}

// reflectAttr is resolveAttr's general route, for any non-nil value.
func reflectAttr(value any, attr string) any {
	rv := reflect.ValueOf(value)
	// A no-arg method on the value or pointer takes priority, mirroring
	// Django's callable resolution.
	if m := rv.MethodByName(attr); m.IsValid() && m.Type().NumIn() == 0 && m.Type().NumOut() >= 1 {
		return m.Call(nil)[0].Interface()
	}
	for rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			return nil
		}
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Map:
		kt := rv.Type().Key()
		if kt.Kind() == reflect.String {
			mv := rv.MapIndex(reflect.ValueOf(attr).Convert(kt))
			if mv.IsValid() {
				return mv.Interface()
			}
		}
		return nil
	case reflect.Struct:
		f := rv.FieldByName(attr)
		if f.IsValid() && f.CanInterface() {
			return f.Interface()
		}
		return nil
	case reflect.Slice, reflect.Array, reflect.String:
		idx, err := strconv.Atoi(attr)
		if err != nil || idx < 0 || idx >= rv.Len() {
			return nil
		}
		elem := rv.Index(idx)
		if rv.Kind() == reflect.String {
			return string(rune(elem.Uint()))
		}
		return elem.Interface()
	default:
		return nil
	}
}

// Safe marks a string as pre-escaped HTML: the autoescaper outputs it
// verbatim, like Django's mark_safe.
type Safe string

// HTMLEscape escapes the five characters that are special in HTML.
func HTMLEscape(s string) string {
	// Fast path: nothing to escape.
	clean := true
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&', '<', '>', '"', '\'':
			clean = false
		}
	}
	if clean {
		return s
	}
	buf := make([]byte, 0, len(s)+16)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			buf = append(buf, "&amp;"...)
		case '<':
			buf = append(buf, "&lt;"...)
		case '>':
			buf = append(buf, "&gt;"...)
		case '"':
			buf = append(buf, "&quot;"...)
		case '\'':
			buf = append(buf, "&#39;"...)
		default:
			buf = append(buf, c)
		}
	}
	return string(buf)
}

// Stringify converts a template value to its display string.
func Stringify(v any) string {
	switch t := v.(type) {
	case nil:
		return ""
	case string:
		return t
	case Safe:
		return string(t)
	case bool:
		if t {
			return "True"
		}
		return "False"
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case int32:
		return strconv.FormatInt(int64(t), 10)
	case float64:
		return formatFloat(t)
	case float32:
		return formatFloat(float64(t))
	case fmt.Stringer:
		return t.String()
	case error:
		return t.Error()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// formatFloat renders floats the way Django does: integral values without
// a decimal point become "5.0"-style only when genuinely fractional.
func formatFloat(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10) + ".0"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
