package template

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Truth reports Django truthiness: nil, false, zero numbers, empty
// strings, and empty containers are false; everything else is true.
func Truth(v any) bool {
	switch t := v.(type) {
	case nil:
		return false
	case bool:
		return t
	case string:
		return t != ""
	case Safe:
		return t != ""
	case int:
		return t != 0
	case int64:
		return t != 0
	case int32:
		return t != 0
	case float64:
		return t != 0
	case float32:
		return t != 0
	case RowSet:
		return t.Len() > 0
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Map, reflect.Array, reflect.Chan:
		return rv.Len() > 0
	case reflect.Pointer, reflect.Interface:
		return !rv.IsNil()
	default:
		return !rv.IsZero()
	}
}

// asFloat attempts numeric coercion.
func asFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case int:
		return float64(t), true
	case int64:
		return float64(t), true
	case int32:
		return float64(t), true
	case uint:
		return float64(t), true
	case uint64:
		return float64(t), true
	case float64:
		return t, true
	case float32:
		return float64(t), true
	case string:
		f, err := strconv.ParseFloat(t, 64)
		return f, err == nil
	case Safe:
		f, err := strconv.ParseFloat(string(t), 64)
		return f, err == nil
	case bool:
		if t {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// asInt attempts integer coercion.
func asInt(v any) (int, bool) {
	f, ok := asFloat(v)
	if !ok {
		return 0, false
	}
	return int(f), true
}

// Equal compares two template values: numerically when both coerce,
// otherwise by display string for string-ish pairs, otherwise deeply.
func Equal(a, b any) bool {
	if af, aok := asFloat(a); aok {
		if bf, bok := asFloat(b); bok {
			return af == bf
		}
	}
	switch a.(type) {
	case string, Safe:
		switch b.(type) {
		case string, Safe:
			return Stringify(a) == Stringify(b)
		}
	}
	return reflect.DeepEqual(a, b)
}

// Less orders two template values. Numbers order numerically, strings
// lexically; mixed types report an error.
func Less(a, b any) (bool, error) {
	if af, aok := asFloat(a); aok {
		if bf, bok := asFloat(b); bok {
			return af < bf, nil
		}
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		return as < bs, nil
	}
	return false, fmt.Errorf("template: cannot order %T and %T", a, b)
}

// Contains implements the "in" operator: substring for strings, element
// membership for slices/arrays, key membership for maps.
func Contains(item, container any) (bool, error) {
	switch c := container.(type) {
	case nil:
		return false, nil
	case string:
		return strings.Contains(c, Stringify(item)), nil
	case Safe:
		return strings.Contains(string(c), Stringify(item)), nil
	}
	rv := reflect.ValueOf(container)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			if Equal(rv.Index(i).Interface(), item) {
				return true, nil
			}
		}
		return false, nil
	case reflect.Map:
		for _, k := range rv.MapKeys() {
			if Equal(k.Interface(), item) {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("template: 'in' needs a container, got %T", container)
	}
}

// sequence is an indexable view of an iterable value, so that a loop can
// count it, walk it in either direction and know its last element
// without first copying it. The shapes handlers pass — []map[string]any,
// []any, []string and row sets — are indexed where they are; other slices
// and arrays through reflection; maps and strings, which have no stable
// index, are laid out as anys first.
type sequence struct {
	n    int
	maps []map[string]any
	anys []any
	strs []string
	rows RowSet
	rv   reflect.Value
}

// sequenceOf views v for {% for %} and join: slice/array elements, row
// set rows, map entries as {key, value} pairs sorted by key for
// determinism, or string runes. nil is empty; anything else is an error.
func sequenceOf(v any) (sequence, error) {
	switch t := v.(type) {
	case nil:
		return sequence{}, nil
	case []map[string]any:
		return sequence{n: len(t), maps: t}, nil
	case []any:
		return sequence{n: len(t), anys: t}, nil
	case []string:
		return sequence{n: len(t), strs: t}, nil
	case RowSet:
		return sequence{n: t.Len(), rows: t}, nil
	}
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			return sequence{}, nil
		}
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		return sequence{n: rv.Len(), rv: rv}, nil
	case reflect.Map:
		keys := rv.MapKeys()
		strs := make([]string, len(keys))
		for i, k := range keys {
			strs[i] = Stringify(k.Interface())
		}
		// Insertion sort keyed by display string; map iteration must be
		// deterministic for template output to be testable.
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && strs[j] < strs[j-1]; j-- {
				strs[j], strs[j-1] = strs[j-1], strs[j]
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		pairs := make([]any, len(keys))
		for i, k := range keys {
			pairs[i] = map[string]any{"key": k.Interface(), "value": rv.MapIndex(k).Interface()}
		}
		return sequence{n: len(pairs), anys: pairs}, nil
	case reflect.String:
		var runes []any
		for _, r := range rv.String() {
			runes = append(runes, string(r))
		}
		return sequence{n: len(runes), anys: runes}, nil
	default:
		return sequence{}, fmt.Errorf("template: cannot iterate %T", v)
	}
}

// at returns element i, 0 <= i < s.n. A row set's element is ref,
// pointed at row i.
func (s *sequence) at(i int, ref *rowRef) any {
	switch {
	case s.maps != nil:
		return s.maps[i]
	case s.anys != nil:
		return s.anys[i]
	case s.strs != nil:
		return s.strs[i]
	case s.rows != nil:
		ref.rows, ref.i = s.rows, i
		return ref
	default:
		return s.rv.Index(i).Interface()
	}
}

// runeAt returns the i-th character of s as a string, or nil when s is
// shorter: strings index by rune wherever a template can index them,
// as {% for c in s %} walks them.
func runeAt(s string, i int) any {
	if i < 0 {
		return nil
	}
	for _, r := range s {
		if i == 0 {
			return string(r)
		}
		i--
	}
	return nil
}

// length reports the number of elements in a container-ish value.
func length(v any) (int, bool) {
	switch t := v.(type) {
	case nil:
		return 0, true
	case string:
		return utf8.RuneCountInString(t), true
	case Safe:
		return utf8.RuneCountInString(string(t)), true
	case RowSet:
		return t.Len(), true
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array, reflect.Map, reflect.Chan:
		return rv.Len(), true
	default:
		return 0, false
	}
}
