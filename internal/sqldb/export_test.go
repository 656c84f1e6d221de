package sqldb

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"unsafe"
)

// OpenChecked is Open for the tests, which cannot import webtest's
// checks: once t and its later cleanups are done, it fails t on a
// connection still open or a snapshot still pinned.
func OpenChecked(t testing.TB, opts Options) *DB {
	db := Open(opts)
	t.Cleanup(func() {
		db.snapMu.Lock()
		defer db.snapMu.Unlock()
		if n := db.OpenConns(); n != 0 || len(db.snapCount) != 0 {
			t.Errorf("%d connections open, snapshots pinned (timestamp:count) %v", n, db.snapCount)
		}
	})
	return db
}

// CostCounts exposes a statement's cost counters to the external test
// package, which can import internal/tpcw (an in-package test cannot:
// tpcw imports sqldb).
type CostCounts struct{ Scanned, Probes, Matched, Sorted, Written int }

// StatementCost executes sql through the statement cache, as Conn.Query
// and Conn.Exec do, and returns the work it counted and the rows it
// returned or affected.
func StatementCost(db *DB, sql string, args ...any) (CostCounts, int, error) {
	s, err := db.prepare(sql)
	if err != nil {
		return CostCounts{}, 0, err
	}
	ec, err := newExecCtx(args)
	if err != nil {
		return CostCounts{}, 0, err
	}
	ec.sql = sql
	var rows int
	switch t := s.(type) {
	case *selectStmt:
		var rs *ResultSet
		if rs, err = db.execSelect(t, ec); err == nil {
			rows = rs.Len()
		}
	case *insertStmt:
		var res ExecResult
		res, err = db.execInsert(t, ec)
		rows = int(res.RowsAffected)
	case *updateStmt:
		var res ExecResult
		res, err = db.execWrite(t.plan, t.Cols, ec)
		rows = int(res.RowsAffected)
	case *deleteStmt:
		var res ExecResult
		res, err = db.execWrite(t.plan, nil, ec)
		rows = int(res.RowsAffected)
	default:
		err = fmt.Errorf("StatementCost: unsupported statement %T", s)
	}
	c := ec.cost
	return CostCounts{c.scanned, c.probes, c.matched, c.sorted, c.written}, rows, err
}

// Grammar returns the grammar's tables as spelled in SQL: every keyword,
// every comparison and every column type.
func Grammar() (kws, comparisons, types []string) {
	return slices.Clone(keywords), slices.Clone(cmpOps[:]), slices.Clone(columnTypes[Int:])
}

// Words returns the keywords and punctuation of sql, spelled as in the
// grammar's tables.
func Words(sql string) ([]string, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	var words []string
	for _, t := range toks {
		if t.kind == tokKeyword || t.kind == tokPunct {
			words = append(words, t.text)
		}
	}
	return words, nil
}

// SecondaryIndexes lists the columns of table that carry a secondary
// index, hash or ordered, in name order.
func SecondaryIndexes(db *DB, table string) ([]string, error) {
	tbl, err := db.lookupTable(table)
	if err != nil {
		return nil, err
	}
	tbl.idxMu.RLock()
	defer tbl.idxMu.RUnlock()
	cols := slices.Collect(maps.Keys(tbl.indexes))
	cols = slices.AppendSeq(cols, maps.Keys(tbl.ordered))
	slices.Sort(cols)
	return cols, nil
}

// Prepared is a cached SELECT, so that benchmarks can time the
// statement-cache hit and the execution apart.
type Prepared struct {
	db *DB
	s  *selectStmt
}

// Prepare is the statement-cache lookup (parse and plan on a miss) that
// Conn.Query starts with.
func Prepare(db *DB, sql string) (Prepared, error) {
	s, err := db.prepare(sql)
	if err != nil {
		return Prepared{}, err
	}
	sel, ok := s.(*selectStmt)
	if !ok {
		return Prepared{}, fmt.Errorf("Prepare: %q is not a SELECT", sql)
	}
	return Prepared{db: db, s: sel}, nil
}

// Exec is the rest of Conn.Query: bind the arguments and execute.
func (p Prepared) Exec(args ...any) (*ResultSet, error) {
	ec, err := newExecCtx(args)
	if err != nil {
		return nil, err
	}
	return p.db.execSelect(p.s, ec)
}

// boxOf is the address of the box an interface value's data word points
// at: two cells share a box exactly when their boxOf is equal.
func boxOf(v Value) unsafe.Pointer { return (*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1] }

// StringDict reports the dictionary of a String column: how many strings
// it holds, or -1 once the column has gone plain, and whether every
// non-NULL cell visible at the latest timestamp is one of its boxes.
func StringDict(db *DB, table, column string) (entries int, shared bool, err error) {
	t, err := db.lookupTable(table)
	if err != nil {
		return 0, false, err
	}
	ci := t.schema.colIndex(column)
	if ci < 0 || t.schema.Columns[ci].Type != String {
		return 0, false, fmt.Errorf("StringDict: %s.%s is not a String column", table, column)
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	d := t.dicts[ci]
	if d == nil {
		return -1, false, nil
	}
	boxes := make(map[unsafe.Pointer]bool, len(d))
	for _, e := range d {
		boxes[boxOf(e.box)] = true
	}
	arena := t.slots.Load()
	for id := 0; id < arena.n; id++ {
		if v := arena.at(id).version(latestTS); v != nil && v.data()[ci] != nil && !boxes[boxOf(v.data()[ci])] {
			return len(d), false, nil
		}
	}
	return len(d), true, nil
}

// CodedRows counts the rows visible at the latest timestamp whose version
// carries a code for column.
func CodedRows(db *DB, table, column string) (int, error) {
	t, err := db.lookupTable(table)
	if err != nil {
		return 0, err
	}
	ci := t.schema.colIndex(column)
	if ci < 0 || t.codeSlot[ci] < 0 {
		return 0, fmt.Errorf("CodedRows: %s.%s has no code slot", table, column)
	}
	arena := t.slots.Load()
	n := 0
	for id := 0; id < arena.n; id++ {
		if v := arena.at(id).version(latestTS); v != nil && v.codes[t.codeSlot[ci]] != 0 {
			n++
		}
	}
	return n, nil
}

// CodeErrors lists every version, old ones included, whose codes
// disagree with its table's dictionaries. While a column keeps its
// dictionary, a version's code for it must be the one the dictionary
// gives its cell (0 for NULL); once the dictionary is gone, a NULL must
// carry 0, and no string two codes nor a code two strings.
func CodeErrors(db *DB) []string {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	var errs []string
	for name, t := range db.tables {
		arena := t.slots.Load()
		for ci, slot := range t.codeSlot {
			if slot < 0 {
				continue
			}
			col := name + "." + t.schema.Columns[ci].Name
			d := t.dicts[ci]
			byCode, byString := map[uint8]Value{}, map[Value]uint8{}
			for id := 0; id < arena.n; id++ {
				for v := arena.at(id).head.Load(); v != nil; v = v.prev.Load() {
					if v.cells == nil {
						continue
					}
					cell, code := v.data()[ci], v.codes[slot]
					switch {
					case cell == nil:
						if code != 0 {
							errs = append(errs, fmt.Sprintf("%s slot %d: NULL with code %d", col, id, code))
						}
					case d != nil:
						if want := d[cell.(string)].code; code != want {
							errs = append(errs, fmt.Sprintf("%s slot %d: %q with code %d, dictionary %d", col, id, cell, code, want))
						}
					case code != 0:
						if s, ok := byCode[code]; ok && s != cell {
							errs = append(errs, fmt.Sprintf("%s: code %d for %q and %q", col, code, s, cell))
						}
						if c, ok := byString[cell]; ok && c != code {
							errs = append(errs, fmt.Sprintf("%s: %q with codes %d and %d", col, cell, c, code))
						}
						byCode[code], byString[cell] = cell, code
					}
				}
			}
		}
	}
	return errs
}

// IntCellErrors lists every live version, old ones included, whose int
// slots disagree with its cells: bit s of has is set exactly when the cell
// of column intCols[s] is not NULL, and ints[s] is then that cell.
func IntCellErrors(db *DB) []string {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	var errs []string
	for name, t := range db.tables {
		arena := t.slots.Load()
		for id := 0; id < arena.n; id++ {
			for v := arena.at(id).head.Load(); v != nil; v = v.prev.Load() {
				if v.cells == nil {
					continue
				}
				for s, ci := range t.intCols {
					got, held := v.intCell(int8(s))
					want, isInt := int64(0), false
					if ci >= 0 {
						want, isInt = v.data()[ci].(int64)
					}
					if held != isInt || got != want {
						errs = append(errs, fmt.Sprintf("%s slot %d: int slot %d holds %d (%v), cell %d (%v)", name, id, s, got, held, want, isInt))
					}
				}
			}
		}
	}
	return errs
}

// IntSlotted names the columns of table whose cells ride in its row
// versions, in slot order.
func IntSlotted(db *DB, table string) ([]string, error) {
	t, err := db.lookupTable(table)
	if err != nil {
		return nil, err
	}
	var cols []string
	for _, ci := range t.intCols {
		if ci >= 0 {
			cols = append(cols, t.schema.Columns[ci].Name)
		}
	}
	return cols, nil
}

// PostingsBuilt lists the coded columns, as table.column in order, whose
// postings have been built.
func PostingsBuilt(db *DB) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var built []string
	for name, t := range db.tables {
		for ci, s := range t.codeSlot {
			if s < 0 {
				continue
			}
			if p := t.posts[s].Load(); p != nil && p != noPostings {
				built = append(built, name+"."+t.schema.Columns[ci].Name)
			}
		}
	}
	slices.Sort(built)
	return built
}

// PostingErrors lists every version, old ones included, that is missing
// from the set of its code in its column's built postings, and every code
// whose box is not the one the column's dictionary gives out.
func PostingErrors(db *DB) []string {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	var errs []string
	for name, t := range db.tables {
		arena := t.slots.Load()
		for ci, s := range t.codeSlot {
			if s < 0 {
				continue
			}
			p := t.posts[s].Load()
			if p == nil || p == noPostings {
				continue
			}
			col := name + "." + t.schema.Columns[ci].Name
			for str, e := range t.dicts[ci] {
				if int(e.code) > len(p.boxes) || p.boxes[e.code-1] != Value(str) {
					errs = append(errs, fmt.Sprintf("%s: code %d is %q in the dictionary", col, e.code, str))
				}
			}
			for id := 0; id < arena.n; id++ {
				for v := arena.at(id).head.Load(); v != nil; v = v.prev.Load() {
					if c := v.codes[s]; v.cells != nil && (int(c) >= len(p.sets) || p.sets[c][id>>6].Load()&(1<<(id&63)) == 0) {
						errs = append(errs, fmt.Sprintf("%s slot %d: a version with code %d outside its set", col, id, c))
					}
				}
			}
		}
	}
	return errs
}

// KeepPlainLike gives every column of db trigram postings that narrow
// nothing, as a column that holds no strings has: every LIKE keeps the
// plain loop, for a twin to hold the sieved evaluation to.
func KeepPlainLike(db *DB) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		for ci := range t.grams {
			t.grams[ci].Store(noPostings)
		}
	}
}

// GramsBuilt lists the columns, as table.column in order, whose trigram
// postings have been built.
func GramsBuilt(db *DB) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var built []string
	for name, t := range db.tables {
		for ci := range t.grams {
			if p := t.grams[ci].Load(); p != nil && p != noPostings {
				built = append(built, name+"."+t.schema.Columns[ci].Name)
			}
		}
	}
	slices.Sort(built)
	return built
}

// GramErrors lists every version, old ones included, with a letter
// trigram outside its set in its column's built trigram postings, and
// every postings whose trigrams are out of order or whose sets do not all
// cover every slot.
func GramErrors(db *DB) []string {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	var errs []string
	for name, t := range db.tables {
		arena := t.slots.Load()
		for ci := range t.grams {
			p := t.grams[ci].Load()
			if p == nil || p == noPostings {
				continue
			}
			col := name + "." + t.schema.Columns[ci].Name
			if len(p.grams) != len(p.sets) || !slices.IsSorted(p.grams) || len(slices.Compact(slices.Clone(p.grams))) != len(p.grams) {
				errs = append(errs, fmt.Sprintf("%s: %d trigrams %v for %d sets", col, len(p.grams), p.grams, len(p.sets)))
				continue
			}
			for k, set := range p.sets {
				if len(set) != len(p.sets[0]) || len(set) <= (arena.n-1)>>6 {
					errs = append(errs, fmt.Sprintf("%s: the set of %q is %d words for %d slots", col, gramText(p.grams[k]), len(set), arena.n))
				}
			}
			for id := 0; id < arena.n; id++ {
				for v := arena.at(id).head.Load(); v != nil; v = v.prev.Load() {
					if v.cells == nil {
						continue
					}
					s, _ := v.data()[ci].(string)
					for key := range letterGrams(s) {
						k, found := slices.BinarySearch(p.grams, key)
						if !found || len(p.sets[k]) <= id>>6 || p.sets[k][id>>6].Load()&(1<<(id&63)) == 0 {
							errs = append(errs, fmt.Sprintf("%s slot %d: %q outside the set of %q", col, id, s, gramText(key)))
						}
					}
				}
			}
		}
	}
	return errs
}

// gramText spells a letter trigram's key.
func gramText(key uint16) string {
	return string([]byte{'a' + byte(key/676), 'a' + byte(key/26%26), 'a' + byte(key%26)})
}

// ParseSQL is the parser alone, for FuzzParse.
func ParseSQL(sql string) error {
	_, err := parseSQL(sql)
	return err
}
