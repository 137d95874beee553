package bandit

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the snapshot v3 loader — a follower
// reads exactly this format off the network, and every restart off disk.
// Load never panics, and a snapshot it accepts is stable under the
// format: what Save writes for it loads again and saves to the same
// bytes. The seeds are testdata/parent_v3.snap (weights and 71 open
// events) and the committed corpus (testdata/fuzz/FuzzLoad): a bare
// header, an event line cut short, a weight index at Dim, a zero and an
// unallocatable dimension, and the retired v2 header.
func FuzzLoad(f *testing.F) {
	parent, err := os.ReadFile("testdata/parent_v3.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Fuzz(func(t *testing.T, data []byte) {
		svc, err := Load(bytes.NewReader(data), 1)
		// A dimension past the default is accepted, but the round trip
		// below would walk every weight of it twice per input.
		if err != nil || svc.cfg.Dim > 1<<18 {
			return
		}
		var first bytes.Buffer
		if err := svc.Save(&first); err != nil {
			t.Fatalf("Save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()), 1)
		if err != nil {
			t.Fatalf("Load rejects what Save wrote for an accepted snapshot: %v\n%q", err, data)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save is not a fixed point of load-then-save for %q:\n%s\nthen\n%s", data, first.Bytes(), second.Bytes())
		}
	})
}
