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

// BenchmarkTruncateBefore measures what compaction costs the
// checkpoint that runs it: the time TruncateBefore takes to drop two
// fsynced 1 MiB segments. The unlinks and the directory fsync run on the
// reclaimer after it returns (on a filesystem mounted with discard one
// unlink of a written-back segment can take a large fraction of a
// second), so none of that is timed here.
func BenchmarkTruncateBefore(b *testing.B) {
	payload := make([]byte, 64<<10)
	w, err := Open(Options{Dir: b.TempDir(), Mode: ModeSync, SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	dropped := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Sync mode: the committer fsyncs each segment it seals.
		for want := w.Stats().Segments + 2; w.Stats().Segments < want; {
			lsn, err := w.Append(payload)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Commit(lsn); err != nil {
				b.Fatal(err)
			}
		}
		last := w.LastLSN()
		b.StartTimer()
		dropped += w.TruncateBefore(last)
	}
	b.StopTimer()
	b.ReportMetric(float64(dropped)/float64(b.N), "segments/op")
}
