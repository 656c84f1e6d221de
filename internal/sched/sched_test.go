package sched

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestReserveControllerPaperTrace reproduces Table 2 of the paper exactly:
// the 10-second t_spare trace with min t_reserve = 20.
func TestReserveControllerPaperTrace(t *testing.T) {
	rc := NewReserveController(20)
	trace := []struct {
		tspare      int
		wantReserve int // t_reserve listed for this second (before update)
		wantDelta   int // the table's delta column
	}{
		{35, 20, 0},
		{24, 20, 0},
		{17, 20, 6},
		{21, 26, 5},
		{30, 31, 1},
		{36, 32, -2},
		{38, 30, -4},
		{37, 26, -5},
		{35, 21, -1},
		{39, 20, 0},
	}
	for i, step := range trace {
		if got := rc.Reserve(); got != step.wantReserve {
			t.Fatalf("second %d: t_reserve = %d, want %d", i+1, got, step.wantReserve)
		}
		before := rc.Reserve()
		after := rc.Update(step.tspare)
		if delta := after - before; delta != step.wantDelta {
			t.Fatalf("second %d: delta = %+d, want %+d (t_spare=%d, before=%d)",
				i+1, delta, step.wantDelta, step.tspare, before)
		}
	}
	if got := rc.Reserve(); got != 20 {
		t.Fatalf("final t_reserve = %d, want 20", got)
	}
}

func TestReserveNeverBelowMin(t *testing.T) {
	rc := NewReserveController(20)
	for i := 0; i < 50; i++ {
		rc.Update(1000) // huge spare counts decay the reserve
		if rc.Reserve() < 20 {
			t.Fatalf("reserve %d fell below min", rc.Reserve())
		}
	}
	if rc.Reserve() != 20 {
		t.Fatalf("reserve = %d, want steady-state 20", rc.Reserve())
	}
}

func TestReserveSpikesGrow(t *testing.T) {
	rc := NewReserveController(20)
	// A spike: spare collapses to 0. Growth = (20-0) + (20-0) = +40.
	if got := rc.Update(0); got != 60 {
		t.Fatalf("reserve after total collapse = %d, want 60", got)
	}
}

// Property: the reserve is always >= min, and updates are monotone in the
// right direction (spare below reserve grows it, spare above shrinks it).
func TestReserveControllerProperty(t *testing.T) {
	f := func(spares []uint8) bool {
		rc := NewReserveController(10)
		for _, s := range spares {
			before := rc.Reserve()
			after := rc.Update(int(s))
			if after < 10 {
				return false
			}
			if int(s) < before && after <= before {
				return false // drop must grow the reserve
			}
			if int(s) > before && after > before {
				return false // surplus must not grow it
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a bound set, Update never leaves [min, max], whatever
// the minimum, the bound and the t_spare sequence, and a minimum of 0
// never leaves 0: t_spare is a slot count, never below it.
func TestReserveStaysWithinBounds(t *testing.T) {
	f := func(minR, span uint8, spares []uint8) bool {
		lo := int(minR)
		hi := max(lo+int(span), 1) // SetMax(0) would remove the bound
		rc, zero := NewReserveController(lo), NewReserveController(0)
		rc.SetMax(hi)
		zero.SetMax(hi)
		for _, s := range spares {
			if r := rc.Update(int(s)); r < lo || r > hi || zero.Update(int(s)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifierCutoff(t *testing.T) {
	c := NewClassifier(DefaultCutoff)
	if c.Lengthy("unknown") {
		t.Fatal("unseen page must be quick")
	}
	c.Record("home", 30*time.Millisecond)
	if c.Lengthy("home") {
		t.Fatal("30ms page classified lengthy")
	}
	c.Record("best_sellers", 8*time.Second)
	if !c.Lengthy("best_sellers") {
		t.Fatal("8s page classified quick")
	}
}

func TestClassifierMeanTracksHistory(t *testing.T) {
	c := NewClassifier(DefaultCutoff)
	c.Record("p", 1*time.Second)
	c.Record("p", 3*time.Second)
	if got := c.Mean("p"); got != 2*time.Second {
		t.Fatalf("Mean = %v, want 2s", got)
	}
	// A page drifting over the cutoff flips classification.
	c.Record("p", 10*time.Second)
	if !c.Lengthy("p") {
		t.Fatalf("mean %v should be lengthy", c.Mean("p"))
	}
}

func TestClassifierNegativeClamped(t *testing.T) {
	c := NewClassifier(DefaultCutoff)
	c.Record("p", -time.Second)
	if got := c.Mean("p"); got != 0 {
		t.Fatalf("Mean = %v, want 0", got)
	}
}

func TestClassifierConcurrent(t *testing.T) {
	c := NewClassifier(DefaultCutoff)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Record("page", time.Duration(i)*time.Millisecond)
				_ = c.Lengthy("page")
			}
		}()
	}
	wg.Wait()
	// 500 records each of 0..7 ms: a lost count or a lost addition moves
	// the mean off 3.5 ms.
	if got := c.Mean("page"); got != 3500*time.Microsecond {
		t.Fatalf("Mean = %v, want 3.5ms", got)
	}
}

// TestDispatchRules verifies Table 1 of the paper.
func TestDispatchRules(t *testing.T) {
	cls := NewClassifier(DefaultCutoff)
	cls.Record("quick_page", 10*time.Millisecond)
	cls.Record("lengthy_page", 10*time.Second)
	rc := NewReserveController(20)

	spare := 0
	d := NewDispatcher(cls, rc, func() int { return spare })

	tests := []struct {
		name   string
		key    string
		tspare int
		want   Target
	}{
		{"quick always general (low spare)", "quick_page", 0, General},
		{"quick always general (high spare)", "quick_page", 100, General},
		{"unknown page treated quick", "never_seen", 0, General},
		{"lengthy with tspare > treserve", "lengthy_page", 21, General},
		{"lengthy with tspare == treserve", "lengthy_page", 20, Lengthy},
		{"lengthy with tspare < treserve", "lengthy_page", 3, Lengthy},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spare = tt.tspare
			got, lengthy := d.Choose(tt.key)
			if got != tt.want || lengthy != (tt.key == "lengthy_page") {
				t.Fatalf("Choose(%s) with tspare=%d treserve=%d = %v, %v; want %v, %v",
					tt.key, tt.tspare, rc.Reserve(), got, lengthy, tt.want, tt.key == "lengthy_page")
			}
			// The rule the general pool applies when it releases a slot is
			// the one Choose applied to a lengthy request.
			if d.Overflow(tt.tspare) != (tt.tspare > 20) {
				t.Fatalf("Overflow(%d) with treserve=%d = %v", tt.tspare, rc.Reserve(), d.Overflow(tt.tspare))
			}
		})
	}
	// Every Choose counts once, under the pool it picked: Overflow,
	// the release-time rule, counts nothing.
	if general, lengthy := d.Dispatched(); general != 4 || lengthy != 2 {
		t.Fatalf("Dispatched() = %d general, %d lengthy; want 4, 2", general, lengthy)
	}
}

func TestDispatcherAccessors(t *testing.T) {
	cls := NewClassifier(DefaultCutoff)
	rc := NewReserveController(5)
	d := NewDispatcher(cls, rc, func() int { return 0 })
	if d.Classifier() != cls || d.ReserveController() != rc {
		t.Fatal("accessors mismatched")
	}
}

func TestInvalidConstruction(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero cutoff":    func() { NewClassifier(0) },
		"negative min":   func() { NewReserveController(-1) },
		"nil spare":      func() { NewDispatcher(NewClassifier(time.Second), NewReserveController(0), nil) },
		"nil classifier": func() { NewDispatcher(nil, NewReserveController(0), func() int { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkPerRequest times the two calls the staged server makes for
// every dynamic request: the Table 1 choice at arrival (alternating a
// quick and a lengthy page, with t_spare above t_reserve) and the
// classifier's record of the request's data-generation time.
func BenchmarkPerRequest(b *testing.B) {
	b.Run("dispatch", func(b *testing.B) {
		cls := NewClassifier(DefaultCutoff)
		cls.Record("/best_sellers", 8*time.Second)
		cls.Record("/home", 20*time.Millisecond)
		d := NewDispatcher(cls, NewReserveController(20), func() int { return 30 })
		pages := []string{"/home", "/best_sellers"}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			d.Choose(pages[i%len(pages)])
		}
	})
	b.Run("classifier-record", func(b *testing.B) {
		cls := NewClassifier(DefaultCutoff)
		pages := []string{"/home", "/new_products", "/best_sellers", "/product_detail", "/search_request", "/execute_search", "/shopping_cart"}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			cls.Record(pages[i%len(pages)], time.Duration(i%1000)*time.Millisecond)
		}
	})
}
