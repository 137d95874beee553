package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"qoadvisor/internal/budget"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// refHintTable is the hint table as it was before it had a layout of its
// own: a Go map keyed by template hash, the last duplicate winning. It is
// the oracle TestHintTableMatchesMap and FuzzHintTable hold hintTable to.
type refHintTable map[uint64]sis.Hint

func newRefHintTable(hints []sis.Hint) refHintTable {
	m := make(map[uint64]sis.Hint, len(hints))
	for _, h := range hints {
		m[h.TemplateHash] = h
	}
	return m
}

func (m refHintTable) export() []sis.Hint {
	out := make([]sis.Hint, 0, len(m))
	for _, h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TemplateHash < out[j].TemplateHash })
	return out
}

// checkHintTable installs hints both ways and requires the cache to answer
// as the map does: size, generation, export order and contents, a lookup
// of every installed hash and of every probe key. It returns what
// differs, or "".
func checkHintTable(hints []sis.Hint, probes []uint64) string {
	ref := newRefHintTable(hints)
	c := NewHintCache()
	c.Restore(hints, 7)
	if c.Size() != len(ref) || c.Generation() != 7 {
		return fmt.Sprintf("Size %d, Generation %d; the map holds %d at generation 7", c.Size(), c.Generation(), len(ref))
	}
	got, gen := c.Export()
	if want := ref.export(); gen != 7 || !slices.Equal(got, want) {
		return fmt.Sprintf("Export (generation %d)\n%+v\nthe map exports\n%+v", gen, got, want)
	}
	keys := slices.Clone(probes)
	for _, h := range hints {
		keys = append(keys, h.TemplateHash)
	}
	for _, k := range keys {
		got, gen, ok := c.lookup(k)
		want, wantOK := ref[k]
		if ok != wantOK || got != want || gen != 7 {
			return fmt.Sprintf("lookup(%#x) = %+v, %d, %v; the map has %+v, %v", k, got, gen, ok, want, wantOK)
		}
	}
	if gen := c.Replace(hints); gen != 8 || c.Size() != len(ref) {
		return fmt.Sprintf("Replace minted generation %d with %d hints, want 8 with %d", gen, c.Size(), len(ref))
	}
	return ""
}

// sameBucket returns n hashes that all land in bucket b of a table built
// from size hints. The table's bucket count depends only on how many
// hints it is given, so a table of size copies of one hint has it.
func sameBucket(size int, b uint64, n int) []uint64 {
	t := newHintTable(make([]sis.Hint, size), 0)
	var out []uint64
	for h := uint64(1); len(out) < n; h++ {
		if t.bucket(h) == b {
			out = append(out, h)
		}
	}
	return out
}

// checkBuckets holds a table to its layout: the directory rises from 0
// to the entry count, every entry sits in its hash's bucket, a bucket's
// hashes strictly ascend, and every value number and ID is in range. It
// returns what is wrong, or "".
func checkBuckets(t *hintTable) string {
	if len(t.entries) == 0 {
		return ""
	}
	if nb := 1 << (64 - t.shift); len(t.dir) != nb+1 || t.dir[0] != 0 || int(t.dir[nb]) != len(t.entries) {
		return fmt.Sprintf("directory of %d words for %d buckets runs %d..%d over %d entries", len(t.dir), nb, t.dir[0], t.dir[len(t.dir)-1], len(t.entries))
	}
	for b := 0; b+1 < len(t.dir); b++ {
		if t.dir[b] > t.dir[b+1] {
			return fmt.Sprintf("bucket %d starts at %d and ends at %d", b, t.dir[b], t.dir[b+1])
		}
		for i := t.dir[b]; i < t.dir[b+1]; i++ {
			e := t.entries[i]
			if t.bucket(e.hash) != uint64(b) || (i > t.dir[b] && t.entries[i-1].hash >= e.hash) ||
				int(e.val) >= len(t.vals) || int(e.idOff)+int(t.vals[e.val].idLen) > len(t.ids) {
				return fmt.Sprintf("entry %d of bucket %d: %+v", i, b, e)
			}
		}
	}
	return ""
}

func TestHintTableMatchesMap(t *testing.T) {
	hint := func(hash uint64, id string, rule int, enable bool, day int) sis.Hint {
		return sis.Hint{TemplateHash: hash, TemplateID: id, Flip: rules.Flip{RuleID: rule, Enable: enable}, Day: day}
	}
	a, b, c := hint(11, "Ta", 41, true, 1), hint(22, "Tb", 42, false, 2), hint(33, "Tc", 43, true, 3)
	a2 := hint(11, "Ta-again", 77, false, 9)
	long := strings.Repeat("template/", 9000) // past a uint16 length

	// Tables of n = 64 hints have 32 buckets. crowd puts every hint in
	// one bucket, so a lookup scans all of them; two more hashes of that
	// bucket stay absent and scan it too. edges fills only the first and
	// the last bucket, leaving thirty empty between them.
	const n, last = 64, 31
	bucketHints := func(keys []uint64) (hints []sis.Hint) {
		for i, h := range keys {
			hints = append(hints, hint(h, fmt.Sprint("B", i), i, i%2 == 0, i%3))
		}
		return hints
	}
	inMiddle := sameBucket(n, 7, n+2)
	crowd, absent := bucketHints(inMiddle[:n]), inMiddle[n:]
	first, lastKeys := sameBucket(n, 0, n/2+1), sameBucket(n, last, n/2+1)
	edges := bucketHints(append(slices.Clone(first[:n/2]), lastKeys[:n/2]...))
	edgeAbsent := []uint64{first[n/2], lastKeys[n/2], inMiddle[0]}
	// compact adds eight hashes of bucket 7 to spread twice each, once
	// adds them a single time with the second copies' values. Both are
	// 33 to 64 hints, so both tables have 32 buckets, and dropping the
	// first copies closes bucket 7 up: every later bucket starts where
	// once's does.
	spread := mkHints(n-16, 3)
	compact, once := slices.Clone(spread), slices.Clone(spread)
	for i, h := range inMiddle[:8] {
		compact = append(compact, hint(h, "first", 1, true, 1))
		once = append(once, hint(h, fmt.Sprint("again", i), 2, false, i))
	}
	compact = append(compact, once[len(spread):]...)

	for _, tc := range []struct {
		name   string
		hints  []sis.Hint
		probes []uint64
	}{
		{"empty", nil, []uint64{0, 1, math.MaxUint64}},
		{"empty non-nil", []sis.Hint{}, []uint64{0}},
		{"one", []sis.Hint{a}, []uint64{0, 10, 12}},
		{"duplicate first and last", []sis.Hint{a, b, c, a2}, nil},
		{"duplicate adjacent at the start", []sis.Hint{a, a2, b, c}, nil},
		{"duplicate adjacent at the end", []sis.Hint{b, c, a, a2}, nil},
		{"duplicate in the middle", []sis.Hint{b, a, c, a2, b}, nil},
		{"all duplicates", []sis.Hint{a, a2, a, a2, a}, []uint64{22}},
		{"duplicate back to the first value", []sis.Hint{a, b, a2, a}, nil},
		{"hash 0", []sis.Hint{hint(0, "zero", 5, true, 4), b}, []uint64{0, 1}},
		{"hash 0 absent", []sis.Hint{a, b}, []uint64{0}},
		{"hash 0 duplicated", []sis.Hint{hint(0, "x", 5, true, 4), hint(0, "", 6, false, 5)}, nil},
		{"empty and long IDs", []sis.Hint{hint(1, "", 1, true, 1), hint(2, long, 2, false, 2), hint(3, "", 3, true, 3), hint(4, "T", 4, false, 4)}, nil},
		{"long ID overwritten", []sis.Hint{hint(2, long, 2, false, 2), hint(2, "short", 3, true, 3), b}, nil},
		{"extreme days", []sis.Hint{
			hint(1, "a", 1, true, math.MinInt64), hint(2, "b", 1, false, math.MaxInt64), hint(3, "c", 1, true, -1),
			hint(4, "d", 1, false, math.MaxInt32+1), hint(5, "e", 1, true, math.MinInt32-1),
		}, nil},
		{"extreme rules", []sis.Hint{
			hint(1, "a", math.MinInt64, true, 1), hint(2, "b", math.MaxInt64, false, 1), hint(3, "c", -1, true, 1),
			hint(4, "d", rules.NumRules, false, 1), hint(5, "e", 1<<16, true, 1), hint(6, "f", -1<<31, false, 1),
			hint(7, "g", math.MinInt64, false, math.MinInt64), hint(8, "h", math.MaxInt64, true, math.MaxInt64),
		}, nil},
		{"every hash in one bucket", crowd, absent},
		{"first and last buckets only", edges, edgeAbsent},
		{"one bucket with a duplicate", append(slices.Clone(crowd), hint(crowd[n-1].TemplateHash, "again", 99, true, 99), hint(crowd[0].TemplateHash, "", 98, false, 98)), absent},
		{"duplicates compact a bucket", compact, []uint64{inMiddle[8], 0}},
		{"sequential hashes", testHints(rules.NewCatalog(), 1000, 3), []uint64{0xfff, 0x1000 + 1000}},
		{"spread hashes", mkHints(1000, 3), []uint64{0, 2, 0xdeadbeef}},
		{"all duplicates of one hash, many times", slices.Repeat([]sis.Hint{a, a2}, 5000), []uint64{22}},
	} {
		if msg := checkHintTable(tc.hints, tc.probes); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
		if msg := checkBuckets(newHintTable(tc.hints, 1)); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}

	// The bucket cases are what they say.
	if tab := newHintTable(crowd, 1); tab.dir[7] != 0 || tab.dir[8] != n || tab.dir[len(tab.dir)-1] != n {
		t.Errorf("crowd: bucket 7 spans %d..%d, want every one of %d entries", tab.dir[7], tab.dir[8], n)
	}
	if tab := newHintTable(edges, 1); tab.dir[1] != n/2 || tab.dir[last] != n/2 || len(tab.dir) != last+2 {
		t.Errorf("edges: directory %v, want %d entries in bucket 0, %d in bucket %d and none between", tab.dir, n/2, n/2, last)
	}
	if packed, placed := newHintTable(compact, 1), newHintTable(once, 1); !slices.Equal(packed.dir, placed.dir) || len(packed.dir) != last+2 {
		t.Errorf("compact: directory %v, want %v, the directory without the first copies", packed.dir, placed.dir)
	}
}

// TestHintValuePackIsLossless: the value dictionary's packed key. A value
// packs exactly when each field fits its bits, and two values that pack
// share a key only if they are equal — over negative, huge and
// equal-but-for-one-field values of every field. A table of hints with
// such values, packing and not, numbers each distinct value once and
// answers as the map does.
func TestHintValuePackIsLossless(t *testing.T) {
	days := []int{0, 1, -1, 7, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1, 1<<32 + 7, -1<<32 + 7, 1<<33 + 1, math.MaxInt, math.MinInt}
	ruleIDs := []int{0, 1, 40, 1<<15 - 1, 1 << 15, 1<<17 + 40, -1, -1 << 15, math.MaxInt, math.MinInt}
	idLens := []uint32{0, 1, 7, 1<<16 - 1, 1 << 16, 1<<17 + 7, math.MaxUint32}
	keys := make(map[uint64]hintValue)
	packs := 0
	for _, day := range days {
		for _, rule := range ruleIDs {
			for _, idLen := range idLens {
				for _, enable := range []bool{false, true} {
					v := hintValue{day, rule, idLen, enable}
					k, ok := v.pack()
					fits := day >= math.MinInt32 && day <= math.MaxInt32 && rule >= 0 && rule < 1<<15 && idLen < 1<<16
					if ok != fits {
						t.Fatalf("%+v packs %v, want %v", v, ok, fits)
					}
					if !ok {
						continue
					}
					packs++
					if w, dup := keys[k]; dup {
						t.Fatalf("%+v and %+v share the key %#x", v, w, k)
					}
					keys[k] = v
				}
			}
		}
	}
	if packs == 0 || packs == len(days)*len(ruleIDs)*len(idLens)*2 {
		t.Fatalf("%d values pack; want some that do and some that do not", packs)
	}

	var hints []sis.Hint
	distinct := make(map[hintValue]bool)
	for _, day := range days {
		for _, rule := range ruleIDs {
			for _, idLen := range []int{0, 3, 1<<16 - 1, 1 << 16} {
				if idLen > 3 && (day != 7 || rule != 40) {
					continue // long IDs only at one day and rule
				}
				for _, enable := range []bool{false, true} {
					id := strings.Repeat("T", idLen)
					hints = append(hints, sis.Hint{TemplateHash: uint64(len(hints)) + 1, TemplateID: id, Flip: rules.Flip{RuleID: rule, Enable: enable}, Day: day})
					distinct[hintValue{day, rule, uint32(idLen), enable}] = true
				}
			}
		}
	}
	// The same values again, under other hashes: each must find its entry.
	for _, h := range slices.Clone(hints) {
		h.TemplateHash += 1 << 40
		hints = append(hints, h)
	}
	if got := len(newHintTable(hints, 1).vals); got != len(distinct) {
		t.Errorf("the dictionary holds %d values, want the %d distinct ones", got, len(distinct))
	}
	if diff := checkHintTable(hints, nil); diff != "" {
		t.Error(diff)
	}
}

// fuzzHints decodes fuzz bytes into an install list and probe keys. Each
// record starts with an op byte: bit 0 picks a one-byte hash (so
// duplicates and absent neighbours are common) or an eight-byte one, bit 1
// makes it a probe instead of a hint; a hint takes Enable from bit 2, an
// ID of op>>3 bytes, and Day and RuleID as signed varints.
func fuzzHints(data []byte) (hints []sis.Hint, probes []uint64) {
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	varint := func() int {
		v, n := binary.Varint(data)
		if n <= 0 {
			n = min(1, len(data)) // overflow or short: skip a byte, keep what was read
		}
		data = data[n:]
		return int(v)
	}
	for len(data) > 0 {
		op := take(1)[0]
		var hash uint64
		if op&1 == 0 {
			if b := take(1); len(b) == 1 {
				hash = uint64(b[0])
			}
		} else {
			var w [8]byte
			copy(w[:], take(8))
			hash = binary.LittleEndian.Uint64(w[:])
		}
		if op&2 != 0 {
			probes = append(probes, hash)
			continue
		}
		h := sis.Hint{TemplateHash: hash, TemplateID: string(take(int(op >> 3)))}
		h.Flip.Enable = op&4 != 0
		h.Day = varint()
		h.Flip.RuleID = varint()
		hints = append(hints, h)
	}
	return hints, probes
}

// FuzzHintTable holds the compact table to the map it replaced on
// arbitrary install lists: lookup, Size, and Export's order and contents.
// The committed corpus (testdata/fuzz/FuzzHintTable) holds the empty
// list, one hint, a duplicated one-byte hash, hash 0, extreme varints,
// and a probe-only input.
func FuzzHintTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		hints, probes := fuzzHints(data)
		if msg := checkHintTable(hints, probes); msg != "" {
			t.Fatalf("%d hints, %d probes: %s", len(hints), len(probes), msg)
		}
	})
}

// TestHintLookupZeroAlloc pins the serving hot path: a lookup, hit or
// miss, allocates nothing — the returned hint's ID is a substring of the
// table's arena.
func TestHintLookupZeroAlloc(t *testing.T) {
	hints := benchTableHints(4096)
	c := NewHintCache()
	c.Replace(hints)
	i := 0
	budget.Allocs(t, "serve.hint_lookup.hit", 1000, func() {
		h, ok := c.Lookup(hints[i%len(hints)].TemplateHash)
		if !ok || h.TemplateID != hints[i%len(hints)].TemplateID {
			t.Fatalf("Lookup(%#x) = %+v, %v", hints[i%len(hints)].TemplateHash, h, ok)
		}
		i++
	})
	budget.Allocs(t, "serve.hint_lookup.miss", 1000, func() {
		if _, ok := c.Lookup(uint64(i) * 2); ok { // installed hashes are odd multiples plus one of an odd constant; small even keys are absent
			t.Fatalf("Lookup(%#x) hit", uint64(i)*2)
		}
		i++
	})
}

// TestHintTableBytesPerHint pins the table's resident size at the scale
// qobench's hint_hit installs (262,144 hints, seven-byte IDs): 16 bytes
// of entry, 2 of bucket directory and 7 of arena; the value dictionary
// is 200 entries. The layout before it read
// ≈ 47 (a 32-byte entry and an open-addressed index at load 0.5), the
// map before that ≈ 131.
func TestHintTableBytesPerHint(t *testing.T) {
	hints := benchTableHints(262144)
	var tab *hintTable
	budget.Retained(t, "serve.hint_table", func() int {
		tab = newHintTable(hints, 1)
		return len(hints)
	})
	if len(tab.entries) != len(hints) {
		t.Fatalf("table holds %d entries, want %d", len(tab.entries), len(hints))
	}
	runtime.KeepAlive(hints)
}

// TestInstallHintsRefusesUnaddressableTable: IDs totalling more than the
// arena's uint32 offsets reach is an error from InstallHints, not a panic
// in the build, and the serving table stays as it was.
func TestInstallHintsRefusesUnaddressableTable(t *testing.T) {
	cat := rules.NewCatalog()
	srv := New(Config{Seed: 1})
	defer srv.Close()
	if _, err := srv.InstallHints(testHints(cat, 3, 1)); err != nil {
		t.Fatal(err)
	}
	id := strings.Repeat("x", 1<<20) // shared by every hint: 1 MiB resident, 4 GiB + 1 MiB to copy
	hints := testHints(cat, 4097, 2)
	for i := range hints {
		hints[i].TemplateID = id
	}
	gen, err := srv.InstallHints(hints)
	if err == nil || gen != 1 || srv.Cache().Size() != 3 {
		t.Fatalf("InstallHints = generation %d, %v with %d hints serving; want an error and table 1 untouched", gen, err, srv.Cache().Size())
	}
}

// TestRolloverRecordBytesUnchanged holds the journal's hint-rollover
// records to walrec.EncodeHintRollover byte for byte (whose bytes
// walrec's records.golden pins), on both writers: InstallHints journals
// the caller's install order and the checkpoint's re-journal the table's
// export, in ascending hash order.
func TestRolloverRecordBytesUnchanged(t *testing.T) {
	r := newWALRig(t, 1<<20)
	cat := rules.NewCatalog()
	hints := testHints(cat, 40, 6)
	slices.Reverse(hints) // install order is not hash order
	hints[3].TemplateID = ""
	hints[5].TemplateID = strings.Repeat("long/", 60) // a two-byte length prefix
	hints[7].Day = 1 << 40
	if _, err := r.srv.InstallHints(hints); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.Checkpoint(r.snap); err != nil {
		t.Fatal(err)
	}
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if _, err := (wal.DirSource{Dir: r.dir}).Replay(0, func(_ uint64, p []byte) error {
		if len(p) > 0 && p[0] == walrec.TagHintRollover {
			got = append(got, slices.Clone(p))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(hints)
	slices.Reverse(sorted)
	want := [][]byte{walrec.EncodeHintRollover(1, hints), walrec.EncodeHintRollover(1, sorted)}
	if len(got) != len(want) {
		t.Fatalf("journal holds %d rollover records, want the install and the checkpoint's re-journal", len(got))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("rollover record %d: %d bytes differ from walrec.EncodeHintRollover's %d", i, len(got[i]), len(want[i]))
		}
	}
}

// TestHintOnlyServerRetainedHeap: a node that only serves hints holds the
// hint table and no bandit weights — the learner allocates its weight
// vector (2 MiB at the default Dim) on its first write, and a hint hit
// writes none.
func TestHintOnlyServerRetainedHeap(t *testing.T) {
	hints := benchTableHints(4096)
	var srv *Server
	budget.Retained(t, "serve.hint_only_server", func() int {
		srv = New(Config{Seed: 1})
		if _, err := srv.InstallHints(hints); err != nil {
			t.Fatal(err)
		}
		for i := range hints {
			if h, ok := srv.Cache().Lookup(hints[i].TemplateHash); !ok || h != hints[i] {
				t.Fatalf("Lookup(%#x) = %+v, %v", hints[i].TemplateHash, h, ok)
			}
		}
		return 1
	})
	srv.Close()
	runtime.KeepAlive(hints)
}
