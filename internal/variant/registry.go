package variant

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Recipe is a name plus a build function from an environment E to a
// runnable T: a Variant here, a load.Profile, a faults.Plan.
type Recipe[E, T any] struct {
	name  string
	build func(E) (T, error)
}

// NewRecipe wraps a name and a build function as a Recipe.
func NewRecipe[E, T any](name string, build func(E) (T, error)) Recipe[E, T] {
	return Recipe[E, T]{name: name, build: build}
}

// Name is the recipe's registry key.
func (r Recipe[E, T]) Name() string { return r.name }

// Build runs the recipe's build function.
func (r Recipe[E, T]) Build(env E) (T, error) { return r.build(env) }

// Registry is a process-wide, concurrency-safe map from names to named
// values: the variant, load-profile and fault-plan registries are each
// one of these.
type Registry[T interface{ Name() string }] struct {
	kind string
	mu   sync.RWMutex
	byID map[string]T
}

// NewRegistry returns an empty registry whose panics name its kind
// ("variant", "load profile", ...).
func NewRegistry[T interface{ Name() string }](kind string) *Registry[T] {
	return &Registry[T]{kind: kind, byID: map[string]T{}}
}

// Register adds v under v.Name(). It panics on an empty or duplicate
// name: registration happens at init time, and a collision is a
// programming error.
func (r *Registry[T]) Register(v T) {
	name := v.Name()
	if name == "" {
		panic(fmt.Sprintf("empty %s name", r.kind))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[name]; dup {
		panic(fmt.Sprintf("duplicate registration of %s %q", r.kind, name))
	}
	r.byID[name] = v
}

// Lookup finds a registered value by name.
func (r *Registry[T]) Lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byID[name]
	return v, ok
}

// Names lists the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.byID))
}
