package wal

import "testing"

// BenchmarkWALAppend measures the durable reward journal's raw append
// path per durability mode: off (buffer only), async (group-commit
// window in the background), and sync (the caller waits for the group
// fsync — run with -cpu to see group commit amortize concurrent
// committers into shared syncs).
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, mode := range []Mode{ModeOff, ModeAsync, ModeSync} {
		b.Run("mode="+mode.String(), func(b *testing.B) {
			w, err := Open(Options{Dir: b.TempDir(), Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					lsn, err := w.Append(payload)
					if err != nil {
						b.Error(err)
						return
					}
					if err := w.Commit(lsn); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := w.Stats()
			b.ReportMetric(float64(st.Appends)/b.Elapsed().Seconds(), "appends/s")
			if st.Appends > 0 {
				b.ReportMetric(float64(st.Syncs)/float64(st.Appends), "syncs/append")
			}
		})
	}
}
