package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"stagedweb/internal/clock"
)

// The output check. Inside the window every response must be 2xx/3xx
// and carry its page's marker, but with two connections racing on the
// application's rotating-promotion counter the exact bytes depend on
// interleaving. So before timing, the first goldenRequests requests of
// the seed-1 script are replayed on one connection against a fresh
// database, with a fixed clock handed to tpcw.NewApp, and every body's
// SHA-256 is compared with testdata/golden_seed1.json. The replay uses
// seed 1 whatever -seed says: it checks the program, not the inputs.

const (
	goldenRequests = 200
	goldenSeed     = 1
)

//go:embed testdata/golden_seed1.json
var goldenJSON []byte

// goldenEpoch is the instant the replay's application clock is frozen at.
var goldenEpoch = time.Date(2009, 6, 29, 12, 0, 0, 0, time.UTC)

// goldenReplay runs the replay against sys (built with a frozen
// application clock) and returns each body's SHA-256 in hex.
func goldenReplay(w workload, sys *system) ([]string, error) {
	sc := genScripts(w, sys.counts, goldenSeed)[0]
	nc, err := dialWire(sys.addr)
	if err != nil {
		return nil, err
	}
	c := wireConn{nc: nc, wbuf: make([]byte, 0, 512), rbuf: make([]byte, 64<<10)}
	defer c.close()
	var sums []string
	scID := 0
	do := func(target []byte, cart int) ([]byte, error) {
		c.wbuf = appendRequest(c.wbuf[:0], target, cart, uint64(len(sums)+1))
		status, body, err := c.roundTrip()
		if err != nil {
			return nil, err
		}
		if status < 200 || status >= 400 {
			return nil, fmt.Errorf("status %d for %q", status, target)
		}
		sum := sha256.Sum256(body)
		sums = append(sums, hex.EncodeToString(sum[:]))
		return body, nil
	}
	for i := 0; i < len(sc.steps) && len(sums) < goldenRequests; i++ {
		it := &sc.steps[i]
		if it.newSession {
			scID = 0
		}
		cart := 0
		if it.cart {
			cart = scID
		}
		body, err := do(it.target, cart)
		if err != nil {
			return nil, err
		}
		scID = nextCart(it.page, body, scID)
		for _, img := range it.images {
			if len(sums) >= goldenRequests {
				break
			}
			if _, err := do(img, 0); err != nil {
				return nil, err
			}
		}
	}
	return sums, nil
}

// goldenCheck builds a fresh system for w, replays, and returns how
// many requests were attempted and how many bodies differ from the
// committed hashes. The build is timed: it is one of setup_s's samples.
func goldenCheck(w workload) (attempted, mismatched int, setup time.Duration, err error) {
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return 0, 0, 0, fmt.Errorf("testdata/golden_seed1.json: %w", err)
	}
	want := golden[w.name]
	if len(want) != goldenRequests {
		return 0, 0, 0, fmt.Errorf("testdata/golden_seed1.json holds %d hashes for %s, want %d", len(want), w.name, goldenRequests)
	}
	got, setup, err := goldenHashes(w)
	if err != nil {
		return 0, 0, 0, err
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			mismatched++
		}
	}
	return goldenRequests, mismatched, setup, nil
}

func goldenHashes(w workload) ([]string, time.Duration, error) {
	t0 := clk.Now()
	sys, err := buildSystem(w, buildOpts{appClock: clock.NewManual(goldenEpoch)})
	if err != nil {
		return nil, 0, err
	}
	setup := clk.Since(t0)
	got, rerr := goldenReplay(w, sys)
	if err := sys.stop(); err != nil && rerr == nil {
		rerr = err
	}
	if rerr != nil {
		return nil, 0, fmt.Errorf("golden replay: %w", rerr)
	}
	return got, setup, nil
}
