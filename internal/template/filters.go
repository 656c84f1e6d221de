package template

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// FilterFunc transforms a value in a {{ value|filter:arg }} pipeline.
// hasArg distinguishes "no argument" from "nil argument".
type FilterFunc func(v any, arg any, hasArg bool) (any, error)

// appendFilter is the append form of a filter whose result is a plain
// string: it appends that string to dst instead of returning it, so a
// {{ value|filter }} reaches the page without a string per cell. Such a
// filter is written once, in this form, and its FilterFunc derived.
type appendFilter func(dst []byte, v any, arg any, hasArg bool) ([]byte, error)

func (af appendFilter) filterFunc() FilterFunc {
	return func(v any, arg any, hasArg bool) (any, error) {
		out, err := af(nil, v, arg, hasArg)
		if err != nil {
			return nil, err
		}
		return string(out), nil
	}
}

// FilterSet is a named collection of filters. Filter names are resolved
// at parse time so typos fail fast rather than at render time.
type FilterSet struct {
	m   map[string]FilterFunc
	app map[string]appendFilter // the append form of m's built-ins that have one
}

// NewFilterSet returns a set preloaded with the built-in Django-style
// filters.
func NewFilterSet() *FilterSet {
	fs := &FilterSet{
		m:   make(map[string]FilterFunc, len(builtinFilters)+len(builtinAppendFilters)),
		app: make(map[string]appendFilter, len(builtinAppendFilters)),
	}
	for name, fn := range builtinFilters {
		fs.m[name] = fn
	}
	for name, af := range builtinAppendFilters {
		fs.m[name] = af.filterFunc()
		fs.app[name] = af
	}
	return fs
}

// Register adds or replaces a filter. Replacing a built-in that has an
// append form drops that form with it: the name means fn from now on.
func (fs *FilterSet) Register(name string, fn FilterFunc) {
	if name == "" || fn == nil {
		panic("template: invalid filter registration")
	}
	fs.m[name] = fn
	delete(fs.app, name)
}

// Get looks up a filter by name.
func (fs *FilterSet) Get(name string) (FilterFunc, bool) {
	fn, ok := fs.m[name]
	return fn, ok
}

// Names returns the registered filter names (unsorted).
func (fs *FilterSet) Names() []string {
	names := make([]string, 0, len(fs.m))
	for n := range fs.m {
		names = append(names, n)
	}
	return names
}

func noArgAppend(name string, fn func(dst []byte, s string) []byte) appendFilter {
	return func(dst []byte, v any, _ any, hasArg bool) ([]byte, error) {
		if hasArg {
			return dst, fmt.Errorf("%s takes no argument", name)
		}
		return fn(dst, Stringify(v)), nil
	}
}

// builtinAppendFilters are the string-producing filters the TPC-W pages
// put in a table cell, kept in append form.
var builtinAppendFilters = map[string]appendFilter{
	"title":     noArgAppend("title", appendTitle),
	"urlencode": noArgAppend("urlencode", appendURLEscape),
	"floatformat": func(dst []byte, v any, arg any, hasArg bool) ([]byte, error) {
		f, ok := asFloat(v)
		if !ok {
			return dst, nil
		}
		digits := 1
		if hasArg {
			d, ok := asInt(arg)
			if !ok {
				return dst, fmt.Errorf("floatformat argument must be numeric")
			}
			digits = d
		}
		if digits < 0 {
			// Negative: only keep decimals when the value is fractional.
			if f == math.Trunc(f) {
				return strconv.AppendInt(dst, int64(f), 10), nil
			}
			digits = -digits
		}
		return strconv.AppendFloat(dst, f, 'f', digits, 64), nil
	},
}

func noArg(name string, fn func(v any) (any, error)) FilterFunc {
	return func(v any, _ any, hasArg bool) (any, error) {
		if hasArg {
			return nil, fmt.Errorf("%s takes no argument", name)
		}
		return fn(v)
	}
}

var builtinFilters = map[string]FilterFunc{
	"upper": noArg("upper", func(v any) (any, error) {
		return strings.ToUpper(Stringify(v)), nil
	}),
	"lower": noArg("lower", func(v any) (any, error) {
		return strings.ToLower(Stringify(v)), nil
	}),
	"capfirst": noArg("capfirst", func(v any) (any, error) {
		return capitalizeASCII(Stringify(v)), nil
	}),
	"length": noArg("length", func(v any) (any, error) {
		if n, ok := length(v); ok {
			return n, nil
		}
		return len(Stringify(v)), nil
	}),
	"wordcount": noArg("wordcount", func(v any) (any, error) {
		return len(strings.Fields(Stringify(v))), nil
	}),
	"default": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("default requires an argument")
		}
		if Truth(v) {
			return v, nil
		}
		return arg, nil
	},
	"default_if_none": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("default_if_none requires an argument")
		}
		if v == nil {
			return arg, nil
		}
		return v, nil
	},
	"escape": noArg("escape", func(v any) (any, error) {
		return Safe(HTMLEscape(Stringify(v))), nil
	}),
	"safe": noArg("safe", func(v any) (any, error) {
		return Safe(Stringify(v)), nil
	}),
	"truncatewords": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("truncatewords requires an argument")
		}
		n, ok := asInt(arg)
		if !ok || n < 0 {
			return nil, fmt.Errorf("truncatewords argument must be a non-negative integer")
		}
		words := strings.Fields(Stringify(v))
		if len(words) <= n {
			return strings.Join(words, " "), nil
		}
		return strings.Join(words[:n], " ") + " ...", nil
	},
	"truncatechars": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("truncatechars requires an argument")
		}
		n, ok := asInt(arg)
		if !ok || n < 0 {
			return nil, fmt.Errorf("truncatechars argument must be a non-negative integer")
		}
		s := Stringify(v)
		if utf8.RuneCountInString(s) <= n {
			return s, nil
		}
		// Keep n-1 characters: end is the byte offset of the n-th.
		end := 0
		for i := range s {
			if n--; n == 0 {
				end = i
				break
			}
		}
		return s[:end] + "…", nil
	},
	"add": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("add requires an argument")
		}
		if vi, ok := asFloat(v); ok {
			if ai, ok := asFloat(arg); ok {
				sum := vi + ai
				if sum == math.Trunc(sum) {
					return int(sum), nil
				}
				return sum, nil
			}
		}
		return Stringify(v) + Stringify(arg), nil
	},
	"first": noArg("first", func(v any) (any, error) {
		return elemAt(v, 0), nil
	}),
	"last": noArg("last", func(v any) (any, error) {
		if n, ok := length(v); ok && n > 0 {
			return elemAt(v, n-1), nil
		}
		return nil, nil
	}),
	"join": func(v any, arg any, hasArg bool) (any, error) {
		sep := ", "
		if hasArg {
			sep = Stringify(arg)
		}
		seq, err := sequenceOf(v)
		if err != nil {
			return nil, err
		}
		parts := make([]string, seq.n)
		var row rowRef
		for i := range parts {
			parts[i] = Stringify(seq.at(i, &row))
		}
		return strings.Join(parts, sep), nil
	},
	"yesno": func(v any, arg any, hasArg bool) (any, error) {
		choices := []string{"yes", "no"}
		if hasArg {
			choices = strings.Split(Stringify(arg), ",")
		}
		if len(choices) < 2 {
			return nil, fmt.Errorf("yesno needs at least two comma-separated choices")
		}
		if Truth(v) {
			return choices[0], nil
		}
		if v == nil && len(choices) > 2 {
			return choices[2], nil
		}
		return choices[1], nil
	},
	"pluralize": func(v any, arg any, hasArg bool) (any, error) {
		suffixes := []string{"", "s"}
		if hasArg {
			parts := strings.Split(Stringify(arg), ",")
			if len(parts) == 1 {
				suffixes = []string{"", parts[0]}
			} else {
				suffixes = parts[:2]
			}
		}
		n, ok := asInt(v)
		if !ok {
			if l, lok := length(v); lok {
				n = l
			}
		}
		if n == 1 {
			return suffixes[0], nil
		}
		return suffixes[1], nil
	},
	"cut": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("cut requires an argument")
		}
		return strings.ReplaceAll(Stringify(v), Stringify(arg), ""), nil
	},
	"divisibleby": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("divisibleby requires an argument")
		}
		n, ok1 := asInt(v)
		d, ok2 := asInt(arg)
		if !ok1 || !ok2 || d == 0 {
			return nil, fmt.Errorf("divisibleby needs integers and a non-zero divisor")
		}
		return n%d == 0, nil
	},
	"linebreaksbr": noArg("linebreaksbr", func(v any) (any, error) {
		escaped := HTMLEscape(Stringify(v))
		return Safe(strings.ReplaceAll(escaped, "\n", "<br>")), nil
	}),
	"stringformat": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("stringformat requires an argument")
		}
		return fmt.Sprintf("%"+Stringify(arg), v), nil
	},
	"ljust": padFilter("ljust", false),
	"rjust": padFilter("rjust", true),
}

func padFilter(name string, right bool) FilterFunc {
	return func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("%s requires an argument", name)
		}
		width, ok := asInt(arg)
		if !ok || width < 0 {
			return nil, fmt.Errorf("%s argument must be a non-negative integer", name)
		}
		s := Stringify(v)
		chars := utf8.RuneCountInString(s)
		if chars >= width {
			return s, nil
		}
		pad := strings.Repeat(" ", width-chars)
		if right {
			return pad + s, nil
		}
		return s + pad, nil
	}
}

func capitalizeASCII(s string) string {
	if s == "" {
		return s
	}
	if c := s[0]; 'a' <= c && c <= 'z' {
		return string(c-('a'-'A')) + s[1:]
	}
	return s
}

func elemAt(v any, i int) any {
	switch t := v.(type) {
	case nil:
		return nil
	case string:
		return runeAt(t, i)
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		if i < rv.Len() {
			return rv.Index(i).Interface()
		}
	}
	return nil
}

// appendTitle appends s's whitespace-separated words, each with its first
// letter capitalized, joined by single spaces.
func appendTitle(dst []byte, s string) []byte {
	for first := true; ; first = false {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			return dst
		}
		end := strings.IndexFunc(s, unicode.IsSpace)
		if end < 0 {
			end = len(s)
		}
		if !first {
			dst = append(dst, ' ')
		}
		c := s[0]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(append(dst, c), s[1:end]...)
		s = s[end:]
	}
}

func appendURLEscape(dst []byte, s string) []byte {
	const hexDigits = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~' || c == '/' {
			dst = append(dst, c)
		} else {
			dst = append(dst, '%', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return dst
}
