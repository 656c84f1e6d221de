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

	scratch []byte // a {{ }}'s filter output, before escaping
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
	*l = forLoop{} // drop the row set
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

// varNode is {{ operand }} or {{ operand|filter:arg }}. Its output is
// HTML-escaped. A filter writes into a scratch buffer that is
// escape-appended to the page, with no string in between.
type varNode struct {
	e      expr
	name   string
	filter filter // nil when there is none
	arg    expr
	hasArg bool
	line   int
}

func (v *varNode) render(st *renderState, dst []byte) ([]byte, error) {
	val := v.e.eval(&st.ctx)
	if v.filter == nil {
		return appendValue(dst, val), nil
	}
	var arg any
	if v.hasArg {
		arg = v.arg.eval(&st.ctx)
	}
	out, err := v.filter(st.scratch[:0], val, arg, v.hasArg)
	if err != nil {
		return dst, fmt.Errorf("line %d: filter %q: %w", v.line, v.name, err)
	}
	st.scratch = out
	return appendEscaped(dst, out), nil
}

// ifNode is {% if cond %} ... {% else %} ... {% endif %}.
type ifNode struct {
	cond           expr
	body, elseBody nodeList
}

func (n *ifNode) render(st *renderState, dst []byte) ([]byte, error) {
	if Truth(n.cond.eval(&st.ctx)) {
		return n.body.render(st, dst)
	}
	return n.elseBody.render(st, dst)
}

// forNode is {% for x in xs %} ... {% empty %} ... {% endfor %}, with
// forloop.counter.
type forNode struct {
	name        string
	iterable    expr
	body, empty nodeList
}

func (n *forNode) render(st *renderState, dst []byte) ([]byte, error) {
	ctx := &st.ctx
	seq, err := sequenceOf(n.iterable.eval(ctx))
	if err != nil {
		return dst, err
	}
	if seq.n == 0 {
		return n.empty.render(st, dst)
	}
	loop := st.pushLoop()
	// The scope's two bindings are laid out once — the loop variable,
	// then forloop, which therefore wins a name clash — and the
	// iterations only re-point the first. Nested loops grow and truncate
	// the stack above base, so the slot is indexed afresh each time.
	base := len(ctx.binds)
	ctx.binds = append(ctx.binds, binding{name: n.name}, binding{"forloop", loop})
	for i := 0; i < seq.n; i++ {
		loop.i = i
		ctx.binds[base].value = seq.at(i, &loop.row)
		if dst, err = n.body.render(st, dst); err != nil {
			return dst, err
		}
	}
	clear(ctx.binds[base:]) // a pooled stack must not pin the page's data
	ctx.binds = ctx.binds[:base]
	st.popLoop(loop)
	return dst, nil
}

// includeNode is {% include "name" %}; the name may be a variable.
type includeNode struct {
	name expr
}

func (n *includeNode) render(st *renderState, dst []byte) ([]byte, error) {
	tmpl, err := st.set.Get(Stringify(n.name.eval(&st.ctx)))
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
