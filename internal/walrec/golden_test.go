package walrec

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
)

var update = flag.Bool("update", false, "rewrite testdata/records.golden from the current encoders")

// goldenRecords is what records.golden pins: one sample record per
// tag, in tag order, and a rollover whose hints carry an empty template
// ID, a 300-byte one (a two-byte length prefix) and a day of 1<<40 (a
// six-byte varint).
func goldenRecords() (names []string, recs [][]byte) {
	samples := sampleRecords()
	for tag := TagRank; tag <= TagQuarantine; tag++ {
		names = append(names, Name(tag))
		recs = append(recs, samples[tag])
	}
	names = append(names, "hint_rollover_edges")
	recs = append(recs, EncodeHintRollover(1<<33, []sis.Hint{
		{TemplateHash: 0x0123456789abcdef, TemplateID: "", Flip: rules.Flip{RuleID: 0, Enable: true}, Day: 0},
		{TemplateHash: ^uint64(0), TemplateID: strings.Repeat("T", 300), Flip: rules.Flip{RuleID: 255}, Day: 1 << 40},
	}))
	return names, recs
}

// canonicalQuarantine returns a quarantine record with its 9-byte
// template entries in ascending byte order, the form the golden holds: it
// was written while the encoder wrote them in map order. Other records
// come back as they are.
func canonicalQuarantine(p []byte) []byte {
	if len(p) < 2 || p[0] != TagQuarantine {
		return p
	}
	_, rest, err := takeUvarint(p[2:])
	if err != nil || len(rest)%9 != 0 {
		return p
	}
	head := p[:len(p)-len(rest)]
	var entries [][]byte
	for ; len(rest) > 0; rest = rest[9:] {
		entries = append(entries, rest[:9])
	}
	slices.SortFunc(entries, bytes.Compare)
	return append(bytes.Clone(head), bytes.Join(entries, nil)...)
}

// TestRecordsGolden pins the journal's record bytes, one record per tag
// (testdata/records.golden, the hex of each). Every journal on disk and
// every follower's stream is in this format, so an encoder change that
// moves a byte orphans them; the golden was written by the encoders that
// wrote those journals. Regenerate it (go test -run TestRecordsGolden
// ./internal/walrec -update) only for a deliberate format break.
func TestRecordsGolden(t *testing.T) {
	var out bytes.Buffer
	names, recs := goldenRecords()
	for i, p := range recs {
		fmt.Fprintf(&out, "%s %s\n", names[i], hex.EncodeToString(canonicalQuarantine(p)))
	}
	path := filepath.Join("testdata", "records.golden")
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
		t.Errorf("journal record bytes moved:\n--- got\n%s--- want\n%s", out.Bytes(), want)
	}
}
