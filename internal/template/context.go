package template

import "strconv"

// Context carries the data a template is rendered with — the paper's
// "dictionary (a.k.a. hashtable) used to render the template" — plus the
// names {% for %} binds on top of it. Each loop appends its bindings to
// one reused stack and truncates them when it ends; loops nest a handful
// deep with two names each, and a reverse linear scan over those beats
// a map per loop.
//
// A Context is not safe for concurrent use; each render has its own.
type Context struct {
	data  map[string]any
	binds []binding
}

// binding is one name bound by a tag.
type binding struct {
	name  string
	value any
}

// Lookup finds name, innermost binding first.
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
	i   int
	row rowRef
}

func (l *forLoop) String() string { return "forloop " + strconv.Itoa(l.i+1) }

// resolveAttr resolves one step of a dotted variable path against value:
// a map[string]any key, a row's column, or forloop.counter. Anything else
// resolves to nil (Django's silent-failure semantics), so a template
// never crashes a render over absent data.
func resolveAttr(value any, attr string) any {
	switch t := value.(type) {
	case map[string]any:
		return t[attr]
	case *rowRef:
		return t.rows.Cell(t.i, attr)
	case *forLoop:
		if attr == "counter" {
			return t.i + 1
		}
	}
	return nil
}
