package metrics

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero value = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	var c Counter
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("Value = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != -1 {
		t.Fatalf("Value = %d, want -1", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	const n = 1000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			g.Inc()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			g.Dec()
		}
	}()
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("Value = %d, want 0", got)
	}
}
