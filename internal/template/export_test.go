package template

import (
	"maps"
	"slices"
)

// Grammar returns the filter names and the tag keywords the parser
// accepts, for the external test that holds them to the TPC-W pages.
func Grammar() (filterNames, tagWords []string) {
	for word, t := range tags {
		tagWords = append(tagWords, word)
		for _, w := range []string{t.mid, t.end} {
			if w != "" {
				tagWords = append(tagWords, w)
			}
		}
	}
	return slices.Sorted(maps.Keys(filters)), tagWords
}
