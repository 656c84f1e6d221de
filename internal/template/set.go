package template

import (
	"fmt"
	"sync"
)

// Set is a named collection of templates sharing one filter registry —
// the equivalent of Django's template loader. Sources are registered with
// Add and parsed lazily, once, on first use; parsed templates are cached
// and safe for concurrent rendering, which is exactly what the modified
// server's template-rendering pool requires.
//
// RenderAppend is the wire path: it renders onto the end of a buffer the
// caller owns (the server's pooled response body) and, on error, hands
// the buffer back unextended. Render returns the same bytes as a string,
// for handlers that render conventionally and for tests.
type Set struct {
	mu      sync.RWMutex
	sources map[string]string
	cache   map[string]*Template
	filters *FilterSet
}

// NewSet returns an empty set with the built-in filters.
func NewSet() *Set {
	return &Set{
		sources: map[string]string{},
		cache:   map[string]*Template{},
		filters: NewFilterSet(),
	}
}

// Filters exposes the set's filter registry for custom registrations.
// Register custom filters before the first Get/Render; parsed templates
// are cached with the filters resolved.
func (s *Set) Filters() *FilterSet { return s.filters }

// Add registers (or replaces) a template source and invalidates any
// cached parse of it.
func (s *Set) Add(name, source string) {
	if name == "" {
		panic("template: empty template name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources[name] = source
	delete(s.cache, name)
}

// AddAll registers every entry of sources.
func (s *Set) AddAll(sources map[string]string) {
	for name, src := range sources {
		s.Add(name, src)
	}
}

// Names returns the registered template names (unsorted).
func (s *Set) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.sources))
	for n := range s.sources {
		names = append(names, n)
	}
	return names
}

// Get returns the parsed template for name, parsing and caching it on
// first use.
func (s *Set) Get(name string) (*Template, error) {
	s.mu.RLock()
	t, ok := s.cache[name]
	s.mu.RUnlock()
	if ok {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.cache[name]; ok {
		return t, nil
	}
	src, ok := s.sources[name]
	if !ok {
		return nil, fmt.Errorf("template: %q not found", name)
	}
	t, err := parse(name, src, s.filters)
	if err != nil {
		return nil, err
	}
	t.set = s
	s.cache[name] = t
	return t, nil
}

// Render parses (cached) and renders the named template with data. This
// is the call the paper's rendering threads perform:
// get_template(name).render(Context(data)).
func (s *Set) Render(name string, data map[string]any) (string, error) {
	t, err := s.Get(name)
	if err != nil {
		return "", err
	}
	return t.Render(data)
}

// RenderAppend is Render onto the end of dst: the wire path, which
// renders a page straight into the buffer the response is written from.
// On error it returns dst as it was given — never part of a page.
func (s *Set) RenderAppend(dst []byte, name string, data map[string]any) ([]byte, error) {
	t, err := s.Get(name)
	if err != nil {
		return dst, err
	}
	return t.RenderAppend(dst, data)
}

// Render renders the template with data, resolving {% extends %} chains
// and {% include %} references through the owning set. It is the string
// view of RenderAppend.
func (t *Template) Render(data map[string]any) (string, error) {
	st := acquireState(t.set, data)
	out, err := t.renderInto(st, st.out[:0])
	if err != nil {
		return "", err
	}
	page := string(out)
	st.out = out
	st.release()
	return page, nil
}

// RenderAppend appends the rendered template to dst and returns the
// extended slice. On error it returns dst as it was given.
func (t *Template) RenderAppend(dst []byte, data map[string]any) ([]byte, error) {
	st := acquireState(t.set, data)
	out, err := t.renderInto(st, dst)
	if err != nil {
		return dst, err
	}
	st.release()
	return out, nil
}

// renderInto walks the inheritance chain: each {% extends %} pushes the
// child's blocks as overrides and delegates rendering to the parent.
func (t *Template) renderInto(st *renderState, dst []byte) ([]byte, error) {
	cur := t
	for cur.extends != "" {
		if st.depth >= maxRenderDepth {
			return dst, fmt.Errorf("template: extends depth exceeds %d (cycle?)", maxRenderDepth)
		}
		st.depth++
		st.overrides[st.ovHi] = cur.blocks
		st.ovHi++
		parent, err := st.set.Get(cur.extends)
		if err != nil {
			return dst, fmt.Errorf("extends: %w", err)
		}
		cur = parent
	}
	return cur.nodes.render(st, dst)
}
