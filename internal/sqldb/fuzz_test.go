package sqldb_test

import (
	"testing"

	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
)

// FuzzParse feeds hostile statement text to the parser and then, with
// arguments, to Conn.Query and Conn.Exec on a small TPC-W database under
// both engines: whatever the bytes, an error and never a panic. The seeds
// are every statement of internal/tpcw/handlers.go, then one statement
// per form the grammar dropped (droppedForms). kinds picks each
// argument's type, two bits per placeholder: n, s, n/8 as a float, or
// NULL.
func FuzzParse(f *testing.F) {
	for _, sql := range handlerSQL(f) {
		f.Add(sql, uint32(0), int64(42), "ARTS")
	}
	f.Add("SELECT i_id FROM item WHERE i_subject = ? AND i_title LIKE ?", uint32(0b0101), int64(3), "%the%")
	for _, d := range droppedForms {
		f.Add(d.sql, uint32(0), int64(42), "ARTS")
	}
	var conns []*sqldb.Conn
	for _, mvcc := range []bool{false, true} {
		db := sqldb.Open(sqldb.Options{Cost: sqldb.ZeroCostModel()})
		db.SetMVCC(mvcc)
		if err := tpcw.CreateTables(db); err != nil {
			f.Fatal(err)
		}
		if _, err := tpcw.PopulateShard(db, tpcw.PopulateConfig{Items: 50, Customers: 20, Orders: 20}, nil); err != nil {
			f.Fatal(err)
		}
		c := db.Connect()
		defer c.Close()
		conns = append(conns, c)
	}
	f.Fuzz(func(t *testing.T, sql string, kinds uint32, n int64, s string) {
		if sqldb.ParseSQL(sql) != nil {
			return
		}
		args := make([]any, 16)
		for i := range args {
			switch kinds >> (2 * i) & 3 {
			case 0:
				args[i] = n
			case 1:
				args[i] = s
			case 2:
				args[i] = float64(n) / 8
			}
		}
		// Any error is an answer; only a panic fails.
		for _, c := range conns {
			_, _ = c.Query(sql, args...)
			_, _ = c.Exec(sql, args...)
		}
	})
}
