// Command vetcheck is the repo's invariant checker: the wallclock and
// locksleep analyzers in internal/analysis plus the lintallow
// escape-comment auditor, run over package patterns:
//
//	go run ./cmd/vetcheck ./...
//
// It loads the packages itself through framework.Standalone (`go list
// -export`), prints every diagnostic, and exits 1 if there is any. See
// the README "Static analysis" section for the invariants and the
// //lint:allow escape-hatch syntax. Its tests add the whole-program
// checks: the module analyzes clean and every exported name has a
// reader. The tests of internal/analysis/catalog hold every probe name
// and settings key to the README.
package main

import (
	"flag"
	"fmt"
	"os"

	"stagedweb/internal/analysis/framework"
	"stagedweb/internal/analysis/locksleep"
	"stagedweb/internal/analysis/wallclock"
)

// analyzers is the suite vetcheck runs, shared with the self-check test
// that asserts the repo is clean.
func analyzers() []*framework.Analyzer {
	suite := []*framework.Analyzer{
		wallclock.Analyzer,
		locksleep.Analyzer,
	}
	names := make([]string, len(suite))
	for i, a := range suite {
		names[i] = a.Name
	}
	return append(suite, framework.LintAllow(names...))
}

func main() {
	suite := analyzers()
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: vetcheck [package pattern ...]")
		for _, a := range suite {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	findings, err := framework.Standalone("", suite, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
