package template_test

import (
	"strings"
	"testing"

	"stagedweb/internal/template"
	"stagedweb/internal/tpcw"
)

// TestPagesUseEveryFilterAndTag holds the language to the pages it
// exists for: every filter in the table and every tag keyword the parser
// accepts appears in at least one page of tpcw.Templates(). A filter or
// tag that no page uses fails here instead of growing back unread.
func TestPagesUseEveryFilterAndTag(t *testing.T) {
	var all strings.Builder
	for _, src := range tpcw.Templates() {
		all.WriteString(src)
	}
	pages := all.String()
	filters, words := template.Grammar()
	if len(filters) == 0 || len(words) == 0 {
		t.Fatalf("grammar lists %d filters and %d tag keywords", len(filters), len(words))
	}
	for _, name := range filters {
		if !strings.Contains(pages, "|"+name+" ") && !strings.Contains(pages, "|"+name+":") {
			t.Errorf("filter %q is in the table but no page uses it", name)
		}
	}
	for _, word := range words {
		if !strings.Contains(pages, "{% "+word+" ") {
			t.Errorf("tag keyword %q is accepted but no page uses it", word)
		}
	}
}
