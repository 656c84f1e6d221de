package template

import (
	"fmt"
	"strconv"
	"time"
)

// Truth reports Django truthiness for the values handlers pass: nil,
// false, zero numbers, empty strings and empty lists, maps and row sets
// are false; every other value is true.
func Truth(v any) bool {
	switch t := v.(type) {
	case nil:
		return false
	case bool:
		return t
	case string:
		return t != ""
	case int:
		return t != 0
	case int64:
		return t != 0
	case float64:
		return t != 0
	case []any:
		return len(t) > 0
	case map[string]any:
		return len(t) > 0
	case RowSet:
		return t.Len() > 0
	}
	return true
}

// sequence is an indexable view of an iterable value, so that a loop can
// count it without first copying it.
type sequence struct {
	n    int
	anys []any
	rows RowSet
}

// sequenceOf views v for {% for %} and join. The shapes handlers pass
// are a []any and a RowSet; nil is empty, and anything else is an error.
func sequenceOf(v any) (sequence, error) {
	switch t := v.(type) {
	case nil:
		return sequence{}, nil
	case []any:
		return sequence{n: len(t), anys: t}, nil
	case RowSet:
		return sequence{n: t.Len(), rows: t}, nil
	}
	return sequence{}, fmt.Errorf("template: cannot iterate %T", v)
}

// at returns element i, 0 <= i < s.n. A row set's element is ref,
// pointed at row i.
func (s *sequence) at(i int, ref *rowRef) any {
	if s.rows != nil {
		ref.rows, ref.i = s.rows, i
		return ref
	}
	return s.anys[i]
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
// HTML-escaped. The types a query result's cells and a handler's own
// values have are formatted straight into dst; anything else goes
// through Stringify. The bytes are the escaped Stringify's either way.
func appendValue(dst []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return dst
	case string:
		return appendEscaped(dst, t)
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
	case bool:
		if t {
			return "True"
		}
		return "False"
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		var buf [32]byte
		return string(appendFloat(buf[:0], t))
	case fmt.Stringer:
		return t.String()
	case error:
		return t.Error()
	}
	return fmt.Sprintf("%v", v)
}

// appendFloat renders floats the way Django does: an integral value as
// "5.0", any other in the shortest form that reads back exactly.
func appendFloat(dst []byte, f float64) []byte {
	if f == float64(int64(f)) {
		return append(strconv.AppendInt(dst, int64(f), 10), ".0"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}
