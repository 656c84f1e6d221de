package sqldb

import (
	"fmt"
	"math"
	"time"
)

// ColumnType declares the storage type of a column.
type ColumnType int

// Column types.
const (
	Int ColumnType = iota + 1
	Float
	String
	Time
)

// columnTypes names every column type, indexed by ColumnType.
var columnTypes = [...]string{Int: "INT", Float: "FLOAT", String: "STRING", Time: "TIME"}

func (t ColumnType) String() string {
	if !t.valid() {
		return "UNKNOWN"
	}
	return columnTypes[t]
}

func (t ColumnType) valid() bool { return t >= Int && int(t) < len(columnTypes) }

// accepts reports whether v (normalized) is storable in a column of this
// type. NULL is storable everywhere.
func (t ColumnType) accepts(v Value) bool {
	if v == nil {
		return true
	}
	switch t {
	case Int:
		_, ok := v.(int64)
		return ok
	case Float:
		switch v.(type) {
		case float64, int64:
			return true
		}
		return false
	case String:
		_, ok := v.(string)
		return ok
	case Time:
		_, ok := v.(time.Time)
		return ok
	default:
		return false
	}
}

// Column is one column definition.
type Column struct {
	Name string
	Type ColumnType
}

// Schema declares a table: its columns, primary key, and secondary hash
// indexes (equality only). The primary key must be an Int column;
// inserting NULL as the primary key auto-assigns the next value (MySQL
// AUTO_INCREMENT). DB.CreateIndex adds a hash or ordered (equality and
// col > v ranges) index to a live table, or replaces one.
type Schema struct {
	Table      string
	Columns    []Column
	PrimaryKey string   // column name; optional
	Indexes    []string // secondary hash-indexed column names
}

// validate checks internal consistency.
func (s Schema) validate() error {
	if s.Table == "" {
		return fmt.Errorf("sqldb: schema with empty table name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("sqldb: table %q has no columns", s.Table)
	}
	if len(s.Columns) > math.MaxUint16 { // rowVersion.width
		return fmt.Errorf("sqldb: table %q has %d columns, more than %d", s.Table, len(s.Columns), math.MaxUint16)
	}
	seen := make(map[string]ColumnType, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("sqldb: table %q has an unnamed column", s.Table)
		}
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("sqldb: table %q duplicates column %q", s.Table, c.Name)
		}
		if !c.Type.valid() {
			return fmt.Errorf("sqldb: table %q column %q has unknown type %d", s.Table, c.Name, c.Type)
		}
		seen[c.Name] = c.Type
	}
	if s.PrimaryKey != "" {
		t, ok := seen[s.PrimaryKey]
		if !ok {
			return fmt.Errorf("sqldb: table %q primary key %q is not a column", s.Table, s.PrimaryKey)
		}
		if t != Int {
			return fmt.Errorf("sqldb: table %q primary key %q must be INT", s.Table, s.PrimaryKey)
		}
	}
	for _, idx := range s.Indexes {
		if _, ok := seen[idx]; !ok {
			return fmt.Errorf("sqldb: table %q index on unknown column %q", s.Table, idx)
		}
	}
	return nil
}

// colIndex returns the position of name, or -1.
func (s Schema) colIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}
