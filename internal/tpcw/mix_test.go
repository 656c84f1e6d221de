package tpcw

import (
	"math/rand"
	"testing"
)

// TestMixFrequencies draws from each registered mix with a fixed seed
// and checks the empirical page frequencies against the configured
// weights within half a percentage point — the workload generator's page
// distribution is exactly the mix table.
func TestMixFrequencies(t *testing.T) {
	const draws = 200000
	for _, name := range MixNames() {
		t.Run(name, func(t *testing.T) {
			m, err := MixByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			counts := map[string]int{}
			for i := 0; i < draws; i++ {
				counts[m.Pick(rng)]++
			}
			var total float64
			for _, page := range m.pages {
				want := m.weight[page]
				total += want
				got := float64(counts[page]) / draws * 100
				if diff := got - want; diff < -0.5 || diff > 0.5 {
					t.Errorf("%s: frequency %.2f%%, want %.2f%% ± 0.5", page, got, want)
				}
			}
			// The registered mixes are percentage tables; they must sum
			// to 100 so frequencies and weights share a scale.
			if total < 99.99 || total > 100.01 {
				t.Errorf("mix weights sum to %.2f, want 100.00", total)
			}
		})
	}
}

func TestMixByName(t *testing.T) {
	if _, err := MixByName(""); err != nil {
		t.Fatalf("empty name should select browsing: %v", err)
	}
	if _, err := MixByName("no-such-mix"); err == nil {
		t.Fatal("unknown mix accepted")
	}
	names := MixNames()
	if len(names) != 3 {
		t.Fatalf("MixNames = %v, want browsing/ordering/shopping", names)
	}
}

// BenchmarkMixPick times one weighted draw from the browsing mix, which
// every emulated browser makes per interaction.
func BenchmarkMixPick(b *testing.B) {
	m := NewMix(BrowsingMix)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for b.Loop() {
		_ = m.Pick(rng)
	}
}
