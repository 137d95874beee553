package walrec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"qoadvisor/internal/drift"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
)

// sampleRecords is one encoded record per registered tag, each with
// enough content that every field and length prefix is exercised.
func sampleRecords() map[byte][]byte {
	return map[byte][]byte{
		TagRank: AppendRank(nil, "ev1f00-00000007", 0.925, []uint64{1, 1 << 40, ^uint64(0)}, []uint64{7, 9}),
		TagRewardBatch: EncodeRewardBatch([]RewardEntry{
			{EventID: "ev1f00-00000007", Value: 1.5}, {EventID: "", Value: -0.25}, {EventID: "ev-long-" + string(make([]byte, 200)), Value: 0},
		}),
		TagTrainMark: EncodeTrainMark(),
		TagHintRollover: EncodeHintRollover(300, []sis.Hint{
			{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: rules.Flip{RuleID: 40}, Day: 7},
			{TemplateHash: 0, TemplateID: "", Flip: rules.Flip{RuleID: 200, Enable: true}, Day: 1 << 20},
		}),
		TagQuarantine: EncodeQuarantine(sampleQuarantine(), true, true),
	}
}

func sampleQuarantine() map[uint64]drift.State {
	return map[uint64]drift.State{0x1001: drift.StateQuarantined, 0x1002: drift.StateProbation, 0: drift.StateProbation}
}

// TestEncodeDecodeRoundTrip: every tag's encoder output decodes back to
// the values that went in, under the tag's registered name.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := sampleRecords()
	if len(recs) != len(tagNames) {
		t.Fatalf("samples cover %d tags, registry has %d", len(recs), len(tagNames))
	}
	wantNames := map[byte]string{
		TagRank: "rank", TagRewardBatch: "reward_batch", TagTrainMark: "train_mark",
		TagHintRollover: "hint_rollover", TagQuarantine: "quarantine",
	}
	for tag := range tagNames {
		rec, err := Decode(recs[tag])
		if err != nil {
			t.Fatalf("tag %d: Decode: %v", tag, err)
		}
		if rec.Tag != tag || Name(rec.Tag) != wantNames[tag] {
			t.Errorf("tag %d decoded as tag %d name %q", tag, rec.Tag, Name(rec.Tag))
		}
		if back, err := ParseTag(Name(tag)); err != nil || back != tag {
			t.Errorf("ParseTag(%q) = %d, %v", Name(tag), back, err)
		}
		// Re-encoding the decoded form must reproduce the record
		// (quarantine maps encode in unspecified order, so that tag
		// compares decoded forms instead).
		if tag == TagQuarantine {
			want := Quarantine{States: sampleQuarantine(), Snapshot: true, Manual: true}
			if !reflect.DeepEqual(*rec.Quarantine, want) {
				t.Errorf("quarantine decoded as %+v, want %+v", *rec.Quarantine, want)
			}
			continue
		}
		again := encode(rec)
		if !bytes.Equal(again, recs[tag]) {
			t.Errorf("tag %d: encode(decode(x)) != x", tag)
		}
	}
	if _, err := Decode([]byte{0x7f}); err == nil || Name(0x7f) != "" {
		t.Error("unregistered tag 0x7f must fail Decode and have no name")
	}
}

// TestHintRolloverRecordRoundTrip: a rollover decodes to the generation
// and the very hints that went in, and a truncated one fails loudly
// rather than installing a partial table.
// TestEncodeQuarantineIsCanonical: one quarantine table, its maps built
// in three insertion orders, encodes to one byte string whose entries
// ascend by hash, non-durable states dropped; the sort is in place, so
// the record is the encoder's one allocation.
func TestEncodeQuarantineIsCanonical(t *testing.T) {
	var hashes []uint64
	for i := uint64(0); i < 64; i++ {
		hashes = append(hashes, i*0x9e3779b97f4a7c15, ^i)
	}
	build := func(order []uint64) map[uint64]drift.State {
		states := make(map[uint64]drift.State, len(order))
		for _, h := range order {
			st := drift.StateQuarantined
			switch h % 3 {
			case 1:
				st = drift.StateProbation
			case 2:
				st = drift.StateHealthy
			}
			states[h] = st
		}
		return states
	}
	ascending := slices.Sorted(slices.Values(hashes))
	descending := slices.Clone(ascending)
	slices.Reverse(descending)
	var want []byte
	for i, order := range [][]uint64{ascending, descending, hashes} {
		got := EncodeQuarantine(build(order), true, false)
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("insertion order %d encodes to\n%x\nthe first to\n%x", i, got, want)
		}
	}
	_, entries, err := takeUvarint(want[2:])
	if err != nil {
		t.Fatal(err)
	}
	durable := 0
	for _, st := range build(hashes) {
		if st.Durable() {
			durable++
		}
	}
	if len(entries) != 9*durable {
		t.Fatalf("%d entry bytes, want %d durable entries of 9", len(entries), durable)
	}
	var prev uint64
	for i := 0; i < len(entries); i += 9 {
		h := binary.LittleEndian.Uint64(entries[i:])
		if i > 0 && h <= prev {
			t.Fatalf("entry %d: hash %016x after %016x, not ascending", i/9, h, prev)
		}
		prev = h
	}
	if !raceEnabled {
		table := build(hashes)
		if got := testing.AllocsPerRun(100, func() { EncodeQuarantine(table, false, true) }); got != 1 {
			t.Errorf("EncodeQuarantine makes %.0f allocations, want its record's 1", got)
		}
	}
}

func TestHintRolloverRecordRoundTrip(t *testing.T) {
	cat := rules.NewCatalog()
	hints := make([]sis.Hint, 17)
	for i := range hints {
		hints[i] = sis.Hint{TemplateHash: uint64(0x1000 + i), TemplateID: fmt.Sprintf("T%04d", i), Flip: cat.FlipFor(40 + i%40), Day: 5}
	}
	rec := EncodeHintRollover(3, hints)
	got, err := DecodeHintRollover(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 3 || !slices.Equal(got.Hints, hints) {
		t.Fatalf("decoded generation %d, hints %+v; want 3, %+v", got.Gen, got.Hints, hints)
	}
	for cut := 1; cut < len(rec); cut += 7 {
		if _, err := DecodeHintRollover(rec[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded cleanly", cut)
		}
	}
}

// TestDecodeRejectsEveryStrictPrefix: a record cut anywhere — the torn
// tail a crash leaves, or a short network read — is an error, never a
// panic and never a shorter record that happens to parse.
func TestDecodeRejectsEveryStrictPrefix(t *testing.T) {
	for tag, rec := range sampleRecords() {
		for cut := 0; cut < len(rec); cut++ {
			if got, err := Decode(rec[:cut]); err == nil {
				t.Errorf("tag %d: %d-byte prefix of a %d-byte record decoded as %+v", tag, cut, len(rec), got)
			}
		}
	}
}

// FuzzDecode: no input makes Decode panic or allocate from an
// unchecked count; a flip Decode accepts names a catalog rule and a
// quarantine state it accepts is durable; and whatever Decode accepts is
// a fixed point of its tag's encoder: re-encoded and decoded again, it
// is the same record.
// Decoded forms are compared, not bytes: Decode accepts trailing bytes
// and non-minimal varints, which no encoder writes.
func FuzzDecode(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(rec)
	}
	// Counts chosen so that count*width wraps to a small number.
	f.Add(append(append([]byte{TagRank, 0}, make([]byte, 8)...), binary.AppendUvarint(nil, 1<<61)...))
	f.Add(append([]byte{TagRewardBatch, 1}, binary.AppendUvarint(nil, ^uint64(0)-7)...))
	// A flip and a state Decode refuses.
	f.Add(bytes.Replace(sampleRecords()[TagHintRollover], []byte("\x05-R040"), []byte("\x03F40"), 1))
	f.Add(append([]byte{TagQuarantine, 0, 1}, 0, 0, 0, 0, 0, 0, 0, 0, byte(drift.StateSuspect)))
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := Decode(p)
		if err != nil {
			return
		}
		stringsOutlive(t, p)
		if rec.HintRollover != nil {
			for _, h := range rec.HintRollover.Hints {
				if h.Flip.RuleID < 0 || h.Flip.RuleID >= rules.NumRules {
					t.Fatalf("decoded flip %+v names no catalog rule", h.Flip)
				}
			}
		}
		if rec.Quarantine != nil {
			for hash, st := range rec.Quarantine.States {
				if !st.Durable() {
					t.Fatalf("decoded state %v for template %016x is not durable", st, hash)
				}
			}
		}
		again, err := Decode(encode(rec))
		if err != nil {
			t.Fatalf("re-encoded %s record does not decode: %v", Name(rec.Tag), err)
		}
		if !sameRecord(again, rec) {
			t.Errorf("%s record changed across re-encoding:\n%+v\n%+v", Name(rec.Tag), rec, again)
		}
	})
}

// stringsOutlive decodes p from a buffer of its own, overwrites the
// buffer and decodes another record: the first record's strings must
// not have moved.
func stringsOutlive(t *testing.T, p []byte) {
	t.Helper()
	buf := bytes.Clone(p)
	rec, err := Decode(buf)
	if err != nil {
		t.Fatalf("decoding a copy of an accepted record: %v", err)
	}
	want := recordStrings(rec)
	for i := range want {
		want[i] = strings.Clone(want[i])
	}
	for i := range buf {
		buf[i] = 0xa5
	}
	Decode(p)
	if got := recordStrings(rec); !slices.Equal(got, want) {
		t.Fatalf("%s record's strings changed after its payload was overwritten:\nwas %q\nnow %q", Name(rec.Tag), want, got)
	}
}

// recordStrings lists every string a decoded record holds.
func recordStrings(rec Record) []string {
	var out []string
	if rec.Rank != nil {
		out = append(out, rec.Rank.EventID)
	}
	for _, e := range rec.RewardBatch {
		out = append(out, e.EventID)
	}
	if rec.HintRollover != nil {
		for _, h := range rec.HintRollover.Hints {
			out = append(out, h.TemplateID)
		}
	}
	return out
}

// TestDecodedStringsOutliveTheDecoder runs every sample record through
// stringsOutlive, and checks that a rollover's and a reward batch's
// strings are cut from one string each: strings that sit back to back.
func TestDecodedStringsOutliveTheDecoder(t *testing.T) {
	for _, p := range sampleRecords() {
		stringsOutlive(t, p)
	}
	for _, p := range [][]byte{
		EncodeRewardBatch([]RewardEntry{{EventID: "ev-a-0001", Value: 1}, {EventID: "ev-b-00002", Value: 2}, {EventID: "ev-c-3", Value: 3}}),
		EncodeHintRollover(4, []sis.Hint{{TemplateID: "T1", Flip: rules.Flip{RuleID: 40}}, {TemplateID: "T22", Flip: rules.Flip{RuleID: 1, Enable: true}}}),
	} {
		rec, err := Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		strs := recordStrings(rec)
		for i := 1; i < len(strs); i++ {
			prev := unsafe.Add(unsafe.Pointer(unsafe.StringData(strs[i-1])), len(strs[i-1]))
			if unsafe.Pointer(unsafe.StringData(strs[i])) != prev {
				t.Errorf("%s record: string %d (%q) does not follow string %d in one arena", Name(rec.Tag), i, strs[i], i-1)
			}
		}
	}
}

// TestDecodedStringRetainedHeap keeps one 8-byte string from each of
// 1,000 decodes of three 64 KB records — a rank record of 8,192 context
// IDs, and a reward batch and a rollover of one entry each followed by
// bytes Decode ignores: what stays live must be the strings, not the
// payloads (about 192 MB).
func TestDecodedStringRetainedHeap(t *testing.T) {
	pad := make([]byte, 64<<10)
	recs := [][]byte{
		AppendRank(nil, "ev-00000", 0.5, make([]uint64, 8<<10), nil),
		append(EncodeRewardBatch([]RewardEntry{{EventID: "ev-00000", Value: 1}}), pad...),
		append(EncodeHintRollover(1, []sis.Hint{{TemplateID: "ev-00000", Flip: rules.Flip{RuleID: 40}}}), pad...),
	}
	kept := make([]string, 0, 1000*len(recs))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		for _, p := range recs {
			rec, err := Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, recordStrings(rec)[0])
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Errorf("%d kept 8-byte strings hold %.1f MB live, want under 1 MB", len(kept), float64(grown)/(1<<20))
	}
	for _, id := range kept {
		if id != "ev-00000" {
			t.Fatalf("kept string %q", id)
		}
	}
}

// encode frames a decoded record with its tag's encoder.
func encode(rec Record) []byte {
	switch rec.Tag {
	case TagRank:
		return AppendRank(nil, rec.Rank.EventID, rec.Rank.Prob, rec.Rank.CtxIDs, rec.Rank.ActIDs)
	case TagRewardBatch:
		return EncodeRewardBatch(rec.RewardBatch)
	case TagTrainMark:
		return EncodeTrainMark()
	case TagHintRollover:
		return EncodeHintRollover(rec.HintRollover.Gen, rec.HintRollover.Hints)
	case TagQuarantine:
		return EncodeQuarantine(rec.Quarantine.States, rec.Quarantine.Snapshot, rec.Quarantine.Manual)
	}
	panic(fmt.Sprintf("walrec: no encoder for tag %d", rec.Tag))
}

// sameRecord is reflect.DeepEqual with floats compared by their bits: a
// NaN reward or propensity is a payload like any other, and NaN != NaN.
func sameRecord(a, b Record) bool {
	if a.Tag != b.Tag {
		return false
	}
	sameFloat := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch a.Tag {
	case TagRank:
		x, y := a.Rank, b.Rank
		return x.EventID == y.EventID && sameFloat(x.Prob, y.Prob) &&
			reflect.DeepEqual(x.CtxIDs, y.CtxIDs) && reflect.DeepEqual(x.ActIDs, y.ActIDs)
	case TagRewardBatch:
		return slices.EqualFunc(a.RewardBatch, b.RewardBatch, func(x, y RewardEntry) bool {
			return x.EventID == y.EventID && sameFloat(x.Value, y.Value)
		})
	}
	return reflect.DeepEqual(a, b)
}
