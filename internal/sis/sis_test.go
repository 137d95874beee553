package sis

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"qoadvisor/internal/rules"
)

func sampleFile(cat *rules.Catalog) File {
	on := cat.Rules(rules.OnByDefault)[0]
	off := cat.Rules(rules.OffByDefault)[0]
	return File{
		Day: 5,
		Hints: []Hint{
			{TemplateHash: 0xabc123, TemplateID: "T001", Flip: rules.Flip{RuleID: on.ID, Enable: false}, Day: 5},
			{TemplateHash: 0xdef456, TemplateID: "T002", Flip: rules.Flip{RuleID: off.ID, Enable: true}, Day: 5},
		},
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	cat := rules.NewCatalog()
	f := sampleFile(cat)
	var sb strings.Builder
	if err := Serialize(&sb, f); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Day != f.Day || len(got.Hints) != len(f.Hints) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range f.Hints {
		if got.Hints[i] != f.Hints[i] {
			t.Errorf("hint %d: %+v != %+v", i, got.Hints[i], f.Hints[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage header\n",
		"qoadvisor-hints v1 day=1\nonly,three,fields\n",
		"qoadvisor-hints v1 day=1\nzzzz,T001,+R001,1\n",  // bad hash (not hex is actually ok for z? no: z invalid)
		"qoadvisor-hints v1 day=1\n00ab,T001,flip,1\n",   // bad flip
		"qoadvisor-hints v1 day=1\n00ab,T001,+R001,xx\n", // bad day
		"qoadvisor-hints v1 day=1\n00ab,T001,+R999,1\n",  // rule out of range
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// A flip with bytes after its rule id used to parse as the id alone, so
// a corrupted upload installed a hint for the wrong rule.
func TestParseRejectsTrailingBytesInFlip(t *testing.T) {
	src := "qoadvisor-hints v1 day=1\n00ab,T001,+R001,1\n\n00ac,T002,+R12abc,1\n"
	_, err := Parse(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("Parse = %v, want an error naming line 4", err)
	}
}

func TestParseSkipsBlankLines(t *testing.T) {
	src := "qoadvisor-hints v1 day=2\n\n00000000000000ab,T001,+R050,2\n\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Hints) != 1 {
		t.Fatalf("hints = %d", len(f.Hints))
	}
}

func TestValidate(t *testing.T) {
	cat := rules.NewCatalog()
	good := sampleFile(cat)
	if err := Validate(good, cat); err != nil {
		t.Errorf("valid file rejected: %v", err)
	}
	dup := good
	dup.Hints = append(dup.Hints, dup.Hints[0])
	if err := Validate(dup, cat); err == nil {
		t.Error("duplicate template should be rejected")
	}
	req := cat.Rules(rules.Required)[0]
	bad := File{Hints: []Hint{{TemplateHash: 1, Flip: rules.Flip{RuleID: req.ID, Enable: false}}}}
	if err := Validate(bad, cat); err == nil {
		t.Error("flipping a required rule should be rejected")
	}
	oor := File{Hints: []Hint{{TemplateHash: 1, Flip: rules.Flip{RuleID: 300}}}}
	if err := Validate(oor, cat); err == nil {
		t.Error("out-of-range rule should be rejected")
	}
}

func TestStoreUploadAndLookup(t *testing.T) {
	cat := rules.NewCatalog()
	s := NewStore(cat)
	if s.Version() != 0 || s.Size() != 0 {
		t.Fatal("new store should be empty")
	}
	f := sampleFile(cat)
	if err := s.Upload(f); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 || s.Size() != 2 {
		t.Errorf("version=%d size=%d", s.Version(), s.Size())
	}
	h, ok := s.Lookup(0xabc123)
	if !ok || h.TemplateID != "T001" {
		t.Errorf("lookup = %+v ok=%v", h, ok)
	}
	if _, ok := s.Lookup(0x999); ok {
		t.Error("unknown template should miss")
	}
}

func TestStoreUploadReplacesVersion(t *testing.T) {
	cat := rules.NewCatalog()
	s := NewStore(cat)
	f1 := sampleFile(cat)
	if err := s.Upload(f1); err != nil {
		t.Fatal(err)
	}
	f2 := File{Day: 6, Hints: []Hint{f1.Hints[1]}}
	if err := s.Upload(f2); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 2 {
		t.Errorf("version = %d", s.Version())
	}
	if _, ok := s.Lookup(0xabc123); ok {
		t.Error("old hints should be replaced by the new version")
	}
	if _, ok := s.Lookup(0xdef456); !ok {
		t.Error("new hints should be present")
	}
	if len(s.History()) != 2 {
		t.Errorf("history = %d", len(s.History()))
	}
}

func TestStoreRejectsInvalidUpload(t *testing.T) {
	cat := rules.NewCatalog()
	s := NewStore(cat)
	req := cat.Rules(rules.Required)[0]
	bad := File{Hints: []Hint{{TemplateHash: 1, Flip: rules.Flip{RuleID: req.ID}}}}
	if err := s.Upload(bad); err == nil {
		t.Fatal("invalid upload should fail")
	}
	if s.Version() != 0 {
		t.Error("failed upload must not install a version")
	}
}

func TestConfigFor(t *testing.T) {
	cat := rules.NewCatalog()
	s := NewStore(cat)
	def := cat.DefaultConfig()
	// No hint: default config unchanged.
	if got := s.ConfigFor(42, def); !got.Equal(def.Bitset) {
		t.Error("missing hint should return the default config")
	}
	f := sampleFile(cat)
	if err := s.Upload(f); err != nil {
		t.Fatal(err)
	}
	got := s.ConfigFor(0xabc123, def)
	flip := f.Hints[0].Flip
	if got.Enabled(flip.RuleID) != flip.Enable {
		t.Errorf("hint not applied: rule %d enabled=%v", flip.RuleID, got.Enabled(flip.RuleID))
	}
	if got != def.WithFlip(flip) {
		t.Errorf("hinted config %v should be the default with one flip, %v", got, flip)
	}
}

func TestNewStoreNilCatalog(t *testing.T) {
	s := NewStore(nil)
	if s == nil {
		t.Fatal("nil store")
	}
	if err := s.Upload(File{Day: 1}); err != nil {
		t.Fatalf("empty upload should be fine: %v", err)
	}
}

// TestParseMatchesReference holds Parse to parseRef — result and error
// text, line numbers included — on the inputs where reading fields out of
// the scanner's buffer could differ from splitting a string: padding that
// is not ASCII, empty fields, fields too long for a stack buffer, the
// wrong number of fields.
func TestParseMatchesReference(t *testing.T) {
	const head = "qoadvisor-hints v1 day=3\n"
	long := strings.Repeat("0", 40)
	for _, src := range []string{
		"", "garbage header\n", head, head + "\n\n",
		head + "00ab,T001,+R001,3\n",
		head + "  00ab,T001,+R001,3 \t\r\n   00ac,T002,-R002,3\n",
		head + " 00ab,T001,+R001,3\n",
		head + "00ab, T001 ,+R001,3\n",
		head + "00ab,,+R001,3\n",
		head + ",,,\n",
		head + ",\n",
		head + "00ab,T001,+R001,3,\n",
		head + "00ab,T001,+R001\n",
		head + "\n\n00ab,T001,+R001,3\n\nzz,T002,+R001,3\n",
		head + long + "ab,T001,+R001,3\n",
		head + long + "ab" + long + ",T001,+R001,3\n",
		head + "00ab,T001,+R001" + long + ",3\n",
		head + "00ab,T001,+R001," + long + "7\n",
		head + "00ab,T001,+R001,9" + long + long + "\n",
		head + "00ab,T001,+R12abc,3\n",
		head + "00ab,T001,+R256,3\n",
		head + "00ab,T001,+R001,-4\n",
		head + "00ab,\xff\xfe,+R001,3\n",
		head + "00ab,T001,+R001,3", // no final newline
	} {
		got, err := Parse(strings.NewReader(src))
		if msg := sameAsReference([]byte(src), got, err); msg != "" {
			t.Error(msg)
		}
	}
}

// BenchmarkParse parses a file the size of qobench cluster_mixed's
// mid-body rollover (45,875 hints); allocs/op over that count is the
// parser's allocations per line.
func BenchmarkParse(b *testing.B) {
	const n = 45875
	f := File{Day: 2, Hints: make([]Hint, n)}
	for i := range f.Hints {
		f.Hints[i] = Hint{
			TemplateHash: uint64(i)*0x9e3779b97f4a7c15 + 1,
			TemplateID:   "T" + strconv.Itoa(100000+i),
			Flip:         rules.Flip{RuleID: 40 + i%100, Enable: i%2 == 0},
			Day:          2,
		}
	}
	var sb strings.Builder
	if err := Serialize(&sb, f); err != nil {
		b.Fatal(err)
	}
	src := sb.String()
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Parse(strings.NewReader(src))
		if err != nil || len(got.Hints) != n {
			b.Fatalf("Parse: %d hints, %v", len(got.Hints), err)
		}
	}
}

// TestDecodedStringsOutliveTheDecoder: the template IDs of a parsed file
// stay as they were after the bytes they were read from are overwritten
// and another file is parsed, and a file's IDs share a few arena strings
// instead of one each: 600 IDs of 20 bytes, back to back but for the
// three places a block fills (a 1 KiB first block, each next twice as
// large).
func TestDecodedStringsOutliveTheDecoder(t *testing.T) {
	var src strings.Builder
	src.WriteString("qoadvisor-hints v1 day=3\n")
	want := make([]string, 600)
	for i := range want {
		want[i] = fmt.Sprintf("T%019d", i)
		fmt.Fprintf(&src, "%016x,%s,-R040,3\n", i+1, want[i])
	}
	in := []byte(src.String())
	f, err := Parse(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = ','
	}
	if _, err := Parse(strings.NewReader("qoadvisor-hints v1 day=4\n0000000000000001,Tother,+R001,4\n")); err != nil {
		t.Fatal(err)
	}
	breaks := 0
	for i, h := range f.Hints {
		if h.TemplateID != want[i] {
			t.Fatalf("hint %d's ID is %q after its input was overwritten, want %q", i, h.TemplateID, want[i])
		}
		prev := f.Hints[max(i-1, 0)].TemplateID
		if i > 0 && unsafe.StringData(h.TemplateID) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev))) {
			breaks++
		}
	}
	if breaks != 3 {
		t.Errorf("600 IDs of 20 bytes sit in %d blocks, want 4", breaks+1)
	}
}
