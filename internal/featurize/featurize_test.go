package featurize

import (
	"testing"

	"qoadvisor/internal/rules"
)

func TestContextFeaturesIncludeCoOccurrence(t *testing.T) {
	var span rules.Bitset
	span.Set(3)
	span.Set(7)
	span.Set(9)
	ctx := Context(span, 1e6, 0)
	want := map[uint64]string{
		feat1(tagSpan, 3):                      "span:3",
		feat1(tagSpan, 7):                      "span:7",
		feat1(tagSpan, 9):                      "span:9",
		feat2(tagSpan2, 3, 7):                  "span2:3,7",
		feat2(tagSpan2, 3, 9):                  "span2:3,9",
		feat2(tagSpan2, 7, 9):                  "span2:7,9",
		feat3(tagSpan3, 3, 7, 9):               "span3:3,7,9",
		feat1(tagRows, uint64(logBucket(1e6))): "rows:6",
	}
	have := make(map[uint64]bool, len(ctx.IDs))
	for _, id := range ctx.IDs {
		if have[id] {
			t.Errorf("duplicate feature ID %#x", id)
		}
		have[id] = true
	}
	for id, name := range want {
		if !have[id] {
			t.Errorf("missing context feature %s (ID %#x) in %v", name, id, ctx.IDs)
		}
	}
	// Basic shares the tag space: its rows and bytes IDs are Context's.
	basic := Basic(1e6, 0, 12)
	if basic.IDs[0] != feat1(tagRows, 6) || basic.IDs[1] != feat1(tagBytes, 0) || basic.IDs[2] != feat1(tagVertices, 1) {
		t.Errorf("Basic(1e6, 0, 12) = %v, want rows:6, bytes:0, vertices:1", basic.IDs)
	}
}

// TestContextFeaturesSizedToSpan: the event log keeps a context for the
// life of its event, so the slice carries no spare capacity — from one
// bit, through the pair and triple caps, to the full catalog.
func TestContextFeaturesSizedToSpan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 12, 40, rules.NumRules} {
		var span rules.Bitset
		for b := 0; b < n; b++ {
			span.Set((b * 37) % rules.NumRules) // 37 is coprime to 256: n distinct bits
		}
		ids := Context(span, 0, 0).IDs
		want := n + min(n*(n-1)/2, 60) + min(n*(n-1)*(n-2)/6, 40) + 3
		if len(ids) != want || cap(ids) != want {
			t.Errorf("%d-bit span: %d context IDs in a slice of %d, want exactly %d", n, len(ids), cap(ids), want)
		}
	}
}

// TestSpanActionsShareTheCatalogTable: two action sets of one catalog
// alias the same feature IDs, and every flip action is named by its
// flip's hint-file form.
func TestSpanActionsShareTheCatalogTable(t *testing.T) {
	cat := rules.NewCatalog()
	var span rules.Bitset
	span.Set(20)
	span.Set(100)
	a, b := Actions(cat, span), Actions(cat, span)
	if len(a) != 3 || a[0].ID != "noop" {
		t.Fatalf("Actions = %+v, want noop plus 2 flips", a)
	}
	for i := range a {
		if &a[i].IDs[0] != &b[i].IDs[0] {
			t.Errorf("action %d: feature IDs are copied per call, want one shared table", i)
		}
	}
	for i, bit := range span.Bits() {
		if want := cat.FlipFor(bit).String(); a[i+1].ID != want {
			t.Errorf("action %d is named %q, its flip is %s", i+1, a[i+1].ID, want)
		}
	}
}
