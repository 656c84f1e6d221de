package main

import "testing"

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{id: 1, kind: spanRequest, start: 0, end: 100},
		{id: 2, parent: 1, kind: spanHandler, start: 10, end: 80},
		{id: 3, parent: 2, kind: spanStmt, start: 20, end: 30},
		{id: 4, parent: 2, kind: spanStmt, start: 25, end: 45}, // overlaps 3: covered once
		{id: 5, parent: 2, kind: spanStmt, start: 70, end: 90}, // runs past its parent: clipped
		{id: 6, kind: spanHandler, start: 200, end: 260},       // no parent known, no children
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 30, // 100 - handler's 70
		2: 35, // 70 - [20,45) - [70,80)
		3: 10, 4: 20, 5: 20,
		6: 60,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestExpectationRejectsWrongPages(t *testing.T) {
	home := expectation{marker: pageMarkers[pageIndex["/home"]]}
	body := []byte("<html><head><title>TPC-W Bookstore - Home</title></head></html>")
	if !home.check(200, body) {
		t.Error("a correct home page was rejected")
	}
	if home.check(500, body) || home.check(200, []byte("<title>TPC-W Bookstore - Search</title>")) {
		t.Error("a wrong status or page was accepted")
	}
	thumb := imageExpectation(thumb(3))
	gif := append([]byte("GIF89a"), make([]byte, 1530)...)
	if !thumb.check(200, gif) || thumb.check(200, gif[:100]) {
		t.Error("thumbnail size check is wrong")
	}
}
