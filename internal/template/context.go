package template

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// Context carries the data a template is rendered with — the paper's
// "dictionary (a.k.a. hashtable) used to render the template" — plus the
// names tags bind on top of it. {% for %} and {% with %} push a scope for
// their body and pop it afterwards; a scope is a run of (name, value)
// bindings on one reused stack, so Push remembers the stack's length and
// Pop truncates to it. Templates nest a handful of scopes with one to
// three names each, and a reverse linear scan over those beats a map per
// scope.
//
// A Context is not safe for concurrent use; each render has its own.
type Context struct {
	data  map[string]any
	binds []binding
	marks []int // len(binds) at each Push
}

// binding is one name bound by a tag.
type binding struct {
	name  string
	value any
}

// Push adds an inner scope.
func (c *Context) Push() {
	c.marks = append(c.marks, len(c.binds))
}

// Pop removes the innermost scope. Popping the outermost scope panics —
// that is always a programming error in a tag implementation.
func (c *Context) Pop() {
	if len(c.marks) == 0 {
		panic("template: popped outermost context scope")
	}
	mark := c.marks[len(c.marks)-1]
	c.marks = c.marks[:len(c.marks)-1]
	clear(c.binds[mark:]) // a pooled stack must not pin the page's data
	c.binds = c.binds[:mark]
}

// Set binds name in the innermost scope.
func (c *Context) Set(name string, value any) {
	if len(c.marks) == 0 {
		if c.data == nil {
			c.data = map[string]any{}
		}
		c.data[name] = value
		return
	}
	// A name bound twice in one scope shadows itself: Lookup scans from
	// the top.
	c.binds = append(c.binds, binding{name, value})
}

// Lookup finds name, innermost scope first.
func (c *Context) Lookup(name string) (any, bool) {
	for i := len(c.binds) - 1; i >= 0; i-- {
		if c.binds[i].name == name {
			return c.binds[i].value, true
		}
	}
	v, ok := c.data[name]
	return v, ok
}

// RowSet is a table a {% for %} walks in place: Len rows, each cell
// addressed by row index and column name (nil for an unknown column).
// The loop variable is a reference to the current row, resolved cell by
// cell as the body asks for them, so a query result renders without a
// map per row. The interface is structural — *sqldb.ResultSet satisfies
// it without importing this package.
type RowSet interface {
	Len() int
	Cell(row int, column string) any
}

// rowRef is the loop variable over a RowSet: one value per running loop,
// re-pointed each iteration.
type rowRef struct {
	rows RowSet
	i    int
}

func (r *rowRef) String() string { return "row " + strconv.Itoa(r.i) }

// forLoop is the forloop variable: one value per running loop, advanced
// each iteration.
type forLoop struct {
	i, n   int
	parent any // what forloop named outside this loop
	row    rowRef
}

func (l *forLoop) String() string {
	return "forloop " + strconv.Itoa(l.i+1) + "/" + strconv.Itoa(l.n)
}

func (l *forLoop) attr(name string) any {
	switch name {
	case "counter":
		return l.i + 1
	case "counter0":
		return l.i
	case "revcounter":
		return l.n - l.i
	case "first":
		return l.i == 0
	case "last":
		return l.i == l.n-1
	case "parentloop":
		return l.parent
	default:
		return nil
	}
}

// resolveAttr resolves one step of a dotted variable path against value:
// map key, struct field, slice/array index, or method with no arguments.
// Missing attributes resolve to nil (Django's silent-failure semantics)
// so a template never crashes a render over absent data.
func resolveAttr(value any, attr string) any {
	switch t := value.(type) {
	case nil:
		return nil
	case map[string]any:
		// An unnamed map type has no methods, so indexing it is exactly
		// what the reflective route below returns, without its three
		// allocations per lookup.
		return t[attr]
	case *rowRef:
		return t.rows.Cell(t.i, attr)
	case *forLoop:
		return t.attr(attr)
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
		if err != nil {
			return nil
		}
		if rv.Kind() == reflect.String {
			return runeAt(rv.String(), idx)
		}
		if idx < 0 || idx >= rv.Len() {
			return nil
		}
		return rv.Index(idx).Interface()
	default:
		return nil
	}
}

// Safe marks a string as pre-escaped HTML: the autoescaper outputs it
// verbatim, like Django's mark_safe.
type Safe string

// HTMLEscape escapes the five characters that are special in HTML.
func HTMLEscape(s string) string {
	if !strings.ContainsAny(s, "&<>\"'") {
		return s
	}
	return string(appendEscaped(make([]byte, 0, len(s)+16), s))
}

// appendEscaped appends s to dst with the five HTML-special characters
// escaped.
func appendEscaped[T string | []byte](dst []byte, s T) []byte {
	from := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		case '\'':
			esc = "&#39;"
		default:
			continue
		}
		dst = append(dst, s[from:i]...)
		dst = append(dst, esc...)
		from = i + 1
	}
	return append(dst, s[from:]...)
}

// appendValue appends what {{ v }} writes: the display form of v,
// HTML-escaped unless v is Safe. The types a query result's cells and a
// handler's own values have are formatted straight into dst; anything
// else goes through Stringify. The bytes are Stringify's and HTMLEscape's
// either way.
func appendValue(dst []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return dst
	case string:
		return appendEscaped(dst, t)
	case Safe:
		return append(dst, t...)
	case bool:
		if t {
			return append(dst, "True"...)
		}
		return append(dst, "False"...)
	case int:
		return strconv.AppendInt(dst, int64(t), 10)
	case int64:
		return strconv.AppendInt(dst, t, 10)
	case float64:
		return appendFloat(dst, t)
	case time.Time:
		// Time.String is this layout plus the monotonic reading, if the
		// value carries one; stored times do not.
		if t == t.Round(0) {
			var buf [64]byte
			return appendEscaped(dst, t.AppendFormat(buf[:0], "2006-01-02 15:04:05.999999999 -0700 MST"))
		}
	}
	return appendEscaped(dst, Stringify(v))
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
	var buf [32]byte
	return string(appendFloat(buf[:0], f))
}

func appendFloat(dst []byte, f float64) []byte {
	if f == float64(int64(f)) {
		return append(strconv.AppendInt(dst, int64(f), 10), ".0"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}
