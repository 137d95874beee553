package audit_test

import (
	"os"
	"sync"
	"testing"

	"qoadvisor/internal/audit"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// The benchmarks share one ≥100k-record multi-segment journal — the
// same fixture the skip test pins — so the cold/indexed comparison and
// the index build rate are measured against a realistic shape. It is
// built once per `go test` process.
var (
	benchOnce sync.Once
	benchDir  string
	benchTmpl uint64
	benchN    int
)

func benchJournal(b *testing.B) (string, uint64) {
	b.Helper()
	benchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "audit-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		benchN = 100_000
		benchTmpl = buildBigJournal(b, dir, benchN, 512<<10)
		benchDir = dir
	})
	if benchDir == "" {
		b.Fatal("bench journal fixture failed to build")
	}
	return benchDir, benchTmpl
}

func dropSidecars(b *testing.B, dir string) {
	b.Helper()
	segs, err := wal.Segments(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range segs {
		if err := os.Remove(wal.SidecarPath(s.Path)); err != nil && !os.IsNotExist(err) {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuditIndexBuild measures the sidecar build rate: a full
// scan-and-index of every sealed segment, reported in records/sec.
func BenchmarkAuditIndexBuild(b *testing.B) {
	dir, _ := benchJournal(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dropSidecars(b, dir)
		eng, err := audit.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.BuildSidecars(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchN)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// templateQuery runs the key-filtered rollover listing both query
// benchmarks time — the index's showcase query: two matching records
// buried in a 100k-record journal.
func templateQuery(b *testing.B, eng *audit.Engine, tmpl uint64) {
	b.Helper()
	it, err := eng.Run(audit.Query{
		Tags:     []byte{walrec.TagHintRollover},
		Template: tmpl, HasTemplate: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer it.Close()
	matches := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		matches++
	}
	if matches != 2 {
		b.Fatalf("query found %d rollovers, want 2", matches)
	}
}

// BenchmarkAuditColdQuery measures the template-filtered query with no
// sidecars on disk: every segment is scanned and indexed inline.
func BenchmarkAuditColdQuery(b *testing.B) {
	dir, tmpl := benchJournal(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dropSidecars(b, dir)
		eng, err := audit.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		templateQuery(b, eng, tmpl)
	}
}

// BenchmarkAuditIndexedQuery measures the same query against prebuilt
// sidecars loaded from disk by a fresh engine — the planner prunes the
// non-matching segments instead of scanning them.
func BenchmarkAuditIndexedQuery(b *testing.B) {
	dir, tmpl := benchJournal(b)
	warm, err := audit.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.BuildSidecars(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := audit.Open(dir) // fresh engine: sidecars come from disk
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		templateQuery(b, eng, tmpl)
	}
}

// BenchmarkAuditAsOf measures a from-scratch point-in-time model
// reconstruction over the full journal (no snapshot seed — the
// worst case).
func BenchmarkAuditAsOf(b *testing.B) {
	dir, _ := benchJournal(b)
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		b.Fatalf("segments: %v", err)
	}
	eng, err := audit.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	// Reconstruct as of the middle of the journal so the LSN bound is
	// doing real work too.
	target := segs[len(segs)/2].FirstLSN
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.AsOf(target, audit.AsOfOptions{TrainEvery: 256, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Snapshot) == 0 {
			b.Fatal("empty reconstruction")
		}
	}
	b.ReportMetric(float64(target), "records_replayed")
}

// BenchmarkAuditTrace measures the decision trace of an event three
// quarters into the journal: the keyed pass, the train-mark probe, and
// the two lineage passes over the prefix below the decision.
func BenchmarkAuditTrace(b *testing.B) {
	dir, _ := benchJournal(b)
	eng, err := audit.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := eng.Trace("ev00075000")
		if err != nil {
			b.Fatal(err)
		}
		if tr.Rank == nil || len(tr.Lineage) == 0 {
			b.Fatal("empty trace")
		}
	}
}
