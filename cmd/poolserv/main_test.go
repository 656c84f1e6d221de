package main

import (
	"strings"
	"testing"

	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
)

func TestMain(m *testing.M) { webtest.Main(m) }

// TestUnknownMode: a -mode that names no variant fails before the
// database is populated, and the error lists every variant name.
func TestUnknownMode(t *testing.T) {
	err := run([]string{"-mode", "staged"})
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	for _, name := range variant.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
