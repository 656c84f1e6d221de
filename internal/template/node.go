package template

import (
	"fmt"
	"sync"
)

// node is one parsed template element. render appends the node's output
// to dst and returns the extended slice.
type node interface {
	render(st *renderState, dst []byte) ([]byte, error)
}

// renderState is one render's machinery: the owning set (for includes),
// the context, the block overrides {% extends %} collects, and the
// buffers and loop variables tags would otherwise allocate. States are
// recycled through statePool, so a render in steady state allocates none
// of this.
type renderState struct {
	set *Set
	ctx Context
	// overrides[ovLo:ovHi] holds the blocks of each template in the
	// current inheritance chain, most-derived first. A {% block %}
	// renders the first override found, falling back to its own body. An
	// {% include %} renders with an empty window above its includer's.
	// Every entry is pushed together with a depth increment, so the
	// array cannot overflow.
	overrides  [maxRenderDepth]map[string]nodeList
	ovLo, ovHi int
	depth      int // include/extends nesting guard

	loops     [4]forLoop // forloop values by {% for %} nesting depth
	loopDepth int

	scratch []byte // output of a {{ }}'s trailing filter, before escaping
	out     []byte // Render's page, before it becomes a string
}

const maxRenderDepth = 16

var statePool = sync.Pool{New: func() any { return new(renderState) }}

// acquireState readies a pooled state for one render of a template in
// set over data.
func acquireState(set *Set, data map[string]any) *renderState {
	st := statePool.Get().(*renderState)
	st.set = set
	st.ctx.data = data
	return st
}

// release returns st to the pool after a render that succeeded, which
// leaves every stack balanced. A failed render's state is dropped
// instead.
func (st *renderState) release() {
	st.set = nil
	st.ctx.data = nil
	clear(st.overrides[:st.ovHi])
	st.ovLo, st.ovHi, st.depth = 0, 0, 0
	statePool.Put(st)
}

// pushLoop returns the forloop value for a {% for %} starting now.
func (st *renderState) pushLoop() *forLoop {
	var l *forLoop
	if st.loopDepth < len(st.loops) {
		l = &st.loops[st.loopDepth]
	} else {
		l = new(forLoop)
	}
	st.loopDepth++
	return l
}

func (st *renderState) popLoop(l *forLoop) {
	*l = forLoop{} // drop the row set and the parent loop
	st.loopDepth--
}

type nodeList []node

func (l nodeList) render(st *renderState, dst []byte) ([]byte, error) {
	var err error
	for _, n := range l {
		if dst, err = n.render(st, dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// textNode is literal template text.
type textNode string

func (t textNode) render(_ *renderState, dst []byte) ([]byte, error) {
	return append(dst, t...), nil
}

// varNode is {{ expression }}. Output is HTML-escaped unless the value is
// Safe (e.g. passed through the safe filter).
type varNode struct {
	e expr
	// tail, when set, is the expression's last filter, split off at
	// parse time because it has an append form: e is then everything
	// before it, and tail writes its output into a scratch buffer that
	// is escape-appended to the page, with no string in between.
	tail *filterCall
	line int
}

func (v *varNode) render(st *renderState, dst []byte) ([]byte, error) {
	val, err := v.e.eval(&st.ctx)
	if err != nil {
		return dst, fmt.Errorf("line %d: %w", v.line, err)
	}
	if v.tail == nil {
		return appendValue(dst, val), nil
	}
	arg, err := v.tail.evalArg(&st.ctx)
	if err != nil {
		return dst, fmt.Errorf("line %d: %w", v.line, err)
	}
	out, err := v.tail.appendFn(st.scratch[:0], val, arg, v.tail.hasArg)
	if err != nil {
		return dst, fmt.Errorf("line %d: filter %q: %w", v.line, v.tail.name, err)
	}
	st.scratch = out
	return appendEscaped(dst, out), nil
}

// ifBranch is one arm of {% if %} / {% elif %}.
type ifBranch struct {
	cond expr
	body nodeList
}

type ifNode struct {
	branches []ifBranch
	elseBody nodeList
}

func (n *ifNode) render(st *renderState, dst []byte) ([]byte, error) {
	for _, br := range n.branches {
		v, err := br.cond.eval(&st.ctx)
		if err != nil {
			return dst, err
		}
		if Truth(v) {
			return br.body.render(st, dst)
		}
	}
	return n.elseBody.render(st, dst)
}

// forNode is {% for x in xs %} ... {% empty %} ... {% endfor %}, with the
// standard forloop context variables.
type forNode struct {
	vars     []string // one var, or two for key,value unpacking
	iterable expr
	reversed bool
	body     nodeList
	empty    nodeList
}

func (n *forNode) render(st *renderState, dst []byte) ([]byte, error) {
	ctx := &st.ctx
	src, err := n.iterable.eval(ctx)
	if err != nil {
		return dst, err
	}
	seq, err := sequenceOf(src)
	if err != nil {
		return dst, err
	}
	if seq.n == 0 {
		return n.empty.render(st, dst)
	}
	loop := st.pushLoop()
	loop.n = seq.n
	loop.parent, _ = ctx.Lookup("forloop")
	// The scope's bindings are laid out once — the loop variables, then
	// forloop, which therefore wins a name clash — and the iterations
	// only re-point them. Nested tags grow and truncate the stack above
	// base, so the slots are indexed afresh each time.
	ctx.Push()
	base := len(ctx.binds)
	for _, name := range n.vars {
		ctx.binds = append(ctx.binds, binding{name: name})
	}
	ctx.binds = append(ctx.binds, binding{"forloop", loop})
	for i := 0; i < seq.n; i++ {
		loop.i = i
		idx := i
		if n.reversed {
			idx = seq.n - 1 - i
		}
		item := seq.at(idx, &loop.row)
		if len(n.vars) == 2 {
			// Unpack {key,value} pairs (map iteration) or rows with
			// those columns.
			ctx.binds[base].value = resolveAttr(item, "key")
			ctx.binds[base+1].value = resolveAttr(item, "value")
		} else {
			ctx.binds[base].value = item
		}
		if dst, err = n.body.render(st, dst); err != nil {
			return dst, err
		}
	}
	ctx.Pop()
	st.popLoop(loop)
	return dst, nil
}

// withNode is {% with name=expr %} or {% with expr as name %}.
type withNode struct {
	name string
	val  expr
	body nodeList
}

func (n *withNode) render(st *renderState, dst []byte) ([]byte, error) {
	v, err := n.val.eval(&st.ctx)
	if err != nil {
		return dst, err
	}
	st.ctx.Push()
	st.ctx.Set(n.name, v)
	dst, err = n.body.render(st, dst)
	st.ctx.Pop()
	return dst, err
}

// includeNode is {% include "name" %}; the name may be an expression.
type includeNode struct {
	name expr
}

func (n *includeNode) render(st *renderState, dst []byte) ([]byte, error) {
	v, err := n.name.eval(&st.ctx)
	if err != nil {
		return dst, err
	}
	tmpl, err := st.set.Get(Stringify(v))
	if err != nil {
		return dst, fmt.Errorf("include: %w", err)
	}
	if st.depth >= maxRenderDepth {
		return dst, fmt.Errorf("template: include depth exceeds %d (cycle?)", maxRenderDepth)
	}
	// The included template sees the includer's context but none of its
	// block overrides; both are as they were once it returns.
	depth, lo, hi := st.depth, st.ovLo, st.ovHi
	st.depth, st.ovLo = depth+1, hi
	dst, err = tmpl.renderInto(st, dst)
	clear(st.overrides[hi:st.ovHi])
	st.depth, st.ovLo, st.ovHi = depth, lo, hi
	return dst, err
}

// blockNode is {% block name %}...{% endblock %}. With inheritance the
// most-derived template's override wins.
type blockNode struct {
	name string
	body nodeList
}

func (n *blockNode) render(st *renderState, dst []byte) ([]byte, error) {
	for _, ov := range st.overrides[st.ovLo:st.ovHi] {
		if body, ok := ov[n.name]; ok {
			return body.render(st, dst)
		}
	}
	return n.body.render(st, dst)
}
