package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/rules"
)

var update = flag.Bool("update", false, "rewrite testdata/features.golden from the current featurizer")

// hashFeaturization folds everything the featurizer emits for one job
// into h: context IDs, and per action its name, feature IDs and flip —
// each list length-prefixed so a moved boundary cannot hash the same.
func hashFeaturization(h hash.Hash, cat *rules.Catalog, f *JobFeatures) {
	var w [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	ctx := ContextFeatures(f)
	word(uint64(len(ctx.IDs)))
	for _, id := range ctx.IDs {
		word(id)
	}
	actions, flips := ActionsFor(cat, f)
	word(uint64(len(actions)))
	word(uint64(len(flips)))
	for i, a := range actions {
		fmt.Fprintf(h, "%s|%s|%d|%v|", a.ID, flips[i], flips[i].RuleID, flips[i].Enable)
		word(uint64(len(a.IDs)))
		for _, id := range a.IDs {
			word(id)
		}
	}
}

// TestFeatureGolden pins the feature-ID space: the IDs, their order,
// the action names and the flips of every single-bit span and of 2,000
// seeded spans of 2–40 bits. The IDs are what trained weights, journal
// records and snapshots are keyed by, so a featurizer change that moves
// this hash orphans every persisted model. The golden was generated
// before the featurizer was optimized; regenerate it (go test -run
// TestFeatureGolden ./internal/core -update) only on purpose.
func TestFeatureGolden(t *testing.T) {
	cat := rules.NewCatalog()
	var out bytes.Buffer

	h := sha256.New()
	for b := 0; b < rules.NumRules; b++ {
		f := &JobFeatures{RowCount: float64(b) * 1e3, BytesRead: float64(b) * 1e7}
		f.Span.Set(b)
		hashFeaturization(h, cat, f)
	}
	fmt.Fprintf(&out, "single-bit spans (%d) %x\n", rules.NumRules, h.Sum(nil))

	const seeded = 2000
	h = sha256.New()
	for i := 0; i < seeded; i++ {
		r := bandit.Mix64(uint64(i) + 0x5eed)
		n := 2 + int(r%39) // 2..40 bits
		f := &JobFeatures{}
		for f.Span.Count() < n {
			r = bandit.Mix64(r + bandit.MixGamma)
			f.Span.Set(int(r % rules.NumRules))
		}
		r = bandit.Mix64(r + bandit.MixGamma)
		f.RowCount = float64(r % 1e12)
		f.BytesRead = float64(r>>20) / 7
		hashFeaturization(h, cat, f)
	}
	fmt.Fprintf(&out, "seeded spans of 2-40 bits (%d) %x\n", seeded, h.Sum(nil))

	path := filepath.Join("testdata", "features.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("feature IDs moved:\n--- got\n%s--- want\n%s", out.Bytes(), want)
	}
}
