package main

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"stagedweb/internal/httpwire"
	"stagedweb/internal/tpcw"
)

var testCounts = tpcw.Counts{Items: 1000, Customers: 250, Orders: 200}

func wires(w workload, seed int64) [][]byte {
	var out [][]byte
	for _, s := range genScripts(w, testCounts, seed) {
		out = append(out, s.wire(0))
	}
	return out
}

func TestScriptsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w.scriptLen = 200 // the generator is the same at any length
		a, b, c := wires(w, 1), wires(w, 1), wires(w, 2)
		if len(a) != w.conns {
			t.Fatalf("%s: %d scripts for %d connections", w.name, len(a), w.conns)
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: slot %d differs between two seed-1 generations", w.name, i)
			}
			if bytes.Equal(a[i], c[i]) {
				t.Errorf("%s: slot %d is the same for seed 1 and seed 2", w.name, i)
			}
		}
		if bytes.Equal(a[0], a[1]) {
			t.Errorf("%s: slots 0 and 1 replay the same script", w.name)
		}
	}
}

// Every generated request must parse with the server's own parser and
// name a page or a static the bookstore serves.
func TestScriptRequestsAreWellFormed(t *testing.T) {
	statics := tpcw.StaticAssets()
	for _, w := range workloads {
		w.scriptLen = 300
		sc := genScripts(w, testCounts, 3)[0]
		br := bufio.NewReader(bytes.NewReader(sc.wire(0)))
		n := 0
		for {
			req, err := httpwire.ReadRequest(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: request %d: %v", w.name, n+1, err)
			}
			n++
			if req.Header.Get("X-Bench-Id") == "" {
				t.Fatalf("%s: request %d carries no X-Bench-Id", w.name, n)
			}
			if _, page := pageIndex[req.Line.Path]; !page {
				if _, static := statics[req.Line.Path]; !static || !req.Line.IsStatic() {
					t.Fatalf("%s: request %d asks for unknown %q", w.name, n, req.Line.Path)
				}
			}
		}
		if n != sc.requests() {
			t.Errorf("%s: parsed %d requests, script counts %d", w.name, n, sc.requests())
		}
		if w.images == (n == len(sc.steps)) {
			t.Errorf("%s: images=%v but %d requests for %d interactions", w.name, w.images, n, len(sc.steps))
		}
	}
}

func TestAppendRequestSplicesTheCart(t *testing.T) {
	got := string(appendRequest(nil, []byte("GET /buy_confirm?c_id=7"), 42, 9))
	want := "GET /buy_confirm?c_id=7&sc_id=42" + reqHead + "9\r\n\r\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
