package wallclock

import (
	"testing"

	"stagedweb/internal/analysis/analysistest"
	"stagedweb/internal/analysis/framework"
)

// TestFixtures proves the analyzer catches the load generator's pre-fix
// population-controller violation (the fixture mirrors that control
// loop) and stays silent on time.Time method calls and duration
// arithmetic.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, ".", []*framework.Analyzer{Analyzer}, "wallclock")
}

// TestEscapeHatch proves //lint:allow wallclock(reason) suppresses the
// diagnostic (same-line and line-above forms), that an allow comment
// suppressing nothing is itself reported, and that lintallow rejects
// malformed, unknown-analyzer, and reasonless entries.
func TestEscapeHatch(t *testing.T) {
	suite := []*framework.Analyzer{Analyzer, framework.LintAllow(Analyzer.Name)}
	analysistest.Run(t, ".", suite, "wallclockallow", "lintallowbad")
}
