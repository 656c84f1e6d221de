package sqldb

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// pkTestKey draws a key the way tables produce them: mostly the next few
// ids of a growing table, sometimes an id already used (a re-mapped key),
// sometimes an outlier — negative, huge, or just far ahead of the table.
func pkTestKey(rng *rand.Rand, next *int64) int64 {
	switch r := rng.Intn(100); {
	case r < 60:
		*next += 1 + rng.Int63n(3)
		return *next
	case r < 75:
		return rng.Int63n(*next + 1)
	case r < 82:
		return -1 - rng.Int63n(1000)
	case r < 88:
		return math.MaxInt64 - rng.Int63n(1000)
	case r < 94:
		return *next*pkWindowFactor + pkWindowSlack + rng.Int63n(5000) // just outside the window
	default:
		return *next + rng.Int63n(pkWindowSlack) // ahead of the table, inside the window
	}
}

// TestPKIndexMatchesMap drives pkIndex and a map[int64]int with the same
// random sets and requires every get to agree, for keys that are present
// and for keys that never were.
func TestPKIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newPKIndex()
		model := map[int64]int{}
		var next int64
		check := func(key int64) {
			t.Helper()
			got, ok := p.get(key)
			want, wok := model[key]
			if ok != wok || (ok && got != want) {
				t.Fatalf("seed %d: get(%d) = %d, %v; model has %d, %v", seed, key, got, ok, want, wok)
			}
		}
		for slot := 0; slot < 20000; slot++ {
			key := pkTestKey(rng, &next)
			p.set(key, slot)
			model[key] = slot
			check(key)
			check(pkTestKey(rng, &next)) // usually absent
			if slot%4000 == 3999 {
				for k := range model {
					check(k)
				}
			}
		}
		if int(p.n) != len(model) {
			t.Fatalf("seed %d: index counts %d keys, model holds %d", seed, p.n, len(model))
		}
		// A key is in the map only while it is outside the window.
		for k := range p.sparse {
			if uint64(k) < uint64(len(*p.dense.Load())) {
				t.Fatalf("seed %d: key %d is inside the window and still in the map", seed, k)
			}
		}
		if int(p.nSparse.Load()) != len(p.sparse) {
			t.Fatalf("seed %d: nSparse = %d, map holds %d", seed, p.nSparse.Load(), len(p.sparse))
		}
	}
}

// TestPKIndexOutlierBecomesDense pins the path a far-ahead key takes: it
// starts in the map, and moves into the array once the table has grown
// enough for the window to cover it, without changing what get returns.
func TestPKIndexOutlierBecomesDense(t *testing.T) {
	p := newPKIndex()
	const far = 5000
	p.set(far, 0)
	p.set(-7, 1)
	if p.nSparse.Load() != 2 {
		t.Fatalf("nSparse = %d after two outliers, want 2", p.nSparse.Load())
	}
	for k := int64(1); k < far; k++ {
		p.set(k, int(k)+1)
	}
	if p.nSparse.Load() != 1 {
		t.Fatalf("nSparse = %d after the table grew past key %d, want 1 (the negative key)", p.nSparse.Load(), far)
	}
	if slot, ok := p.get(far); !ok || slot != 0 {
		t.Fatalf("get(%d) = %d, %v after the move; want 0, true", far, slot, ok)
	}
	if slot, ok := p.get(-7); !ok || slot != 1 {
		t.Fatalf("get(-7) = %d, %v; want 1, true", slot, ok)
	}
	// Re-mapping a key (a stale hint replaced by its newest slot).
	p.set(far, 9999)
	if slot, _ := p.get(far); slot != 9999 {
		t.Fatalf("get(%d) = %d after re-mapping, want 9999", far, slot)
	}
}

func TestPKIndexCloneIsIndependent(t *testing.T) {
	p := newPKIndex()
	for k := int64(1); k <= 300; k++ {
		p.set(k, int(k))
	}
	p.set(-1, 1000)
	p.set(math.MaxInt64, 1001)
	c := p.clone()
	for _, k := range []int64{1, 300, -1, math.MaxInt64} {
		want, _ := p.get(k)
		if got, ok := c.get(k); !ok || got != want {
			t.Fatalf("clone get(%d) = %d, %v; original has %d", k, got, ok, want)
		}
	}

	// Neither side sees the other's later sets: dense, re-mapped, outlier,
	// and a set that makes the window grow.
	p.set(301, 301)
	p.set(7, 7000)
	p.set(-2, 2000)
	c.set(302, 302)
	c.set(8, 8000)
	c.set(-3, 3000)
	c.set(5000, 5000)
	for _, k := range []int64{301, -2} {
		if _, ok := c.get(k); ok {
			t.Errorf("clone sees key %d set on the original after the clone", k)
		}
	}
	for _, k := range []int64{302, -3, 5000} {
		if _, ok := p.get(k); ok {
			t.Errorf("original sees key %d set on the clone", k)
		}
	}
	if slot, _ := c.get(7); slot != 7 {
		t.Errorf("clone get(7) = %d after the original re-mapped it, want 7", slot)
	}
	if slot, _ := p.get(8); slot != 8 {
		t.Errorf("original get(8) = %d after the clone re-mapped it, want 8", slot)
	}
}

// TestPKProbeWhileGrowing runs readers against one writer that grows the
// primary-key index through several doublings, the slot arena across
// several chunk boundaries, and an outlier in and out of the fallback
// map. A reader must find every key the writer has finished inserting,
// at the slot holding that key. Run under -race.
func TestPKProbeWhileGrowing(t *testing.T) {
	const rows = 5*slotChunkSize + 17
	const far = 3000 // an outlier until the table passes it
	db := Open(Options{Cost: ZeroCostModel(), MVCC: true})
	db.MustCreateTable(Schema{
		Table:      "g",
		Columns:    []Column{{Name: "id", Type: Int}, {Name: "v", Type: Int}},
		PrimaryKey: "id",
	})
	tbl, err := db.lookupTable("g")
	if err != nil {
		t.Fatal(err)
	}
	w := db.Connect()
	defer w.Close()
	mustExec(t, w, "INSERT INTO g (id, v) VALUES (?, ?)", far, far)
	mustExec(t, w, "INSERT INTO g (id, v) VALUES (?, ?)", -5, -5)

	var done atomic.Int64 // keys 1..done are committed
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := db.Connect()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				key := int64(far)
				switch n := done.Load(); {
				case rng.Intn(8) == 0:
					key = -5
				case n > 0 && rng.Intn(8) != 0:
					key = 1 + rng.Int63n(n)
				}
				view := tbl.view(latestTS)
				id, ok := view.lookupPK(key)
				if !ok {
					t.Errorf("key %d: no pk entry", key)
					return
				}
				if row := view.row(id); row == nil || row[0] != key {
					t.Errorf("key %d: slot %d holds %v", key, id, row)
					return
				}
				rs, err := c.Query("SELECT v FROM g WHERE id = ?", key)
				if err != nil {
					t.Errorf("key %d: %v", key, err)
					return
				}
				if rs.Len() != 1 || rs.Int(0, "v") != key {
					t.Errorf("key %d: query returned %v", key, rs.Rows)
					return
				}
			}
		}(r)
	}
	for k := int64(1); k <= rows; k++ {
		mustExec(t, w, "INSERT INTO g (id, v) VALUES (?, ?)", k, k)
		done.Store(k)
	}
	// Push the window past the outlier while the readers are still probing it.
	for k := int64(rows + 1); k <= far+10; k++ {
		if k != far {
			mustExec(t, w, "INSERT INTO g (id, v) VALUES (?, ?)", k, k)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := tbl.pk.nSparse.Load(); n != 1 {
		t.Fatalf("nSparse = %d at the end, want 1: key %d should have moved into the window", n, far)
	}
}
