package template

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// filter is a {{ v|name:arg }} filter: it appends its output for v to
// dst, which the page then gets HTML-escaped, so a filtered cell reaches
// the page with no string in between. hasArg distinguishes "no argument"
// from "nil argument".
type filter func(dst []byte, v, arg any, hasArg bool) ([]byte, error)

// filters are the four filters the TPC-W pages use, resolved at parse
// time so a typo fails when a template is loaded.
var filters = map[string]filter{
	"title":     noArg(appendTitle),
	"urlencode": noArg(appendURLEscape),
	"floatformat": func(dst []byte, v, arg any, hasArg bool) ([]byte, error) {
		f, ok := asFloat(v)
		if !ok {
			return dst, nil
		}
		digits := 1
		if hasArg {
			d, ok := asFloat(arg)
			if !ok {
				return dst, errors.New("argument must be numeric")
			}
			digits = int(d)
		}
		if digits < 0 {
			// Negative: only keep decimals when the value is fractional.
			if f == math.Trunc(f) {
				return strconv.AppendInt(dst, int64(f), 10), nil
			}
			digits = -digits
		}
		return appendFixed(dst, f, digits), nil
	},
	"join": func(dst []byte, v, arg any, hasArg bool) ([]byte, error) {
		sep := ", "
		if hasArg {
			sep = Stringify(arg)
		}
		seq, err := sequenceOf(v)
		if err != nil {
			return dst, err
		}
		var row rowRef
		for i := 0; i < seq.n; i++ {
			if i > 0 {
				dst = append(dst, sep...)
			}
			dst = append(dst, Stringify(seq.at(i, &row))...)
		}
		return dst, nil
	},
}

// appendFixed appends f correctly rounded to digits decimals: what
// strconv.AppendFloat(dst, f, 'f', digits, 64) appends. That call takes strconv's multiprecision path whenever digits
// is short of what f needs, a price with cents included. Below 1e9 and for
// up to 6 decimals, half an ulp of f is far less than half a unit in the
// last decimal, so when f's shortest round-tripping form has at most
// digits decimals, it is the rounded value, and padding it with zeros is
// the answer. Anything else takes the multiprecision path.
func appendFixed(dst []byte, f float64, digits int) []byte {
	if digits < 0 || digits > 6 || !(math.Abs(f) < 1e9) { // NaN fails the comparison too
		return strconv.AppendFloat(dst, f, 'f', digits, 64)
	}
	n := len(dst)
	dst = strconv.AppendFloat(dst, f, 'f', -1, 64)
	decimals := 0
	if dot := bytes.IndexByte(dst[n:], '.'); dot >= 0 {
		decimals = len(dst) - n - dot - 1
	} else if digits > 0 {
		dst = append(dst, '.')
	}
	if decimals > digits {
		return strconv.AppendFloat(dst[:n], f, 'f', digits, 64)
	}
	for ; decimals < digits; decimals++ {
		dst = append(dst, '0')
	}
	return dst
}

// noArg makes a filter of a string function that takes no argument.
func noArg(fn func(dst []byte, s string) []byte) filter {
	return func(dst []byte, v, _ any, hasArg bool) ([]byte, error) {
		if hasArg {
			return dst, errors.New("takes no argument")
		}
		return fn(dst, Stringify(v)), nil
	}
}

// asFloat coerces a number, or a string that parses as one.
func asFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case int:
		return float64(t), true
	case int64:
		return float64(t), true
	case float64:
		return t, true
	case string:
		f, err := strconv.ParseFloat(t, 64)
		return f, err == nil
	}
	return 0, false
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
