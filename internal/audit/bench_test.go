package audit_test

import (
	"os"
	"sync"
	"testing"

	"qoadvisor/internal/audit"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// The benchmarks share one ≥100k-record multi-segment journal — the
// fixture queries.golden pins — built once per `go test` process.
var (
	benchOnce sync.Once
	benchDir  string
	benchTmpl uint64
)

func benchJournal(b *testing.B) (string, uint64) {
	b.Helper()
	benchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "audit-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		benchTmpl = buildBigJournal(b, dir, 100_000, 512<<10)
		benchDir = dir
	})
	if benchDir == "" {
		b.Fatal("bench journal fixture failed to build")
	}
	return benchDir, benchTmpl
}

// BenchmarkAuditKeyedQuery measures the key-filtered rollover listing:
// two matching records buried in a 100k-record journal, found by the
// per-record tag and key filters over a full scan.
func BenchmarkAuditKeyedQuery(b *testing.B) {
	dir, tmpl := benchJournal(b)
	eng, err := audit.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.Run(audit.Query{
			Tags:     []byte{walrec.TagHintRollover},
			Template: tmpl, HasTemplate: true,
		}, func(audit.Result) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		if st.RecordsMatched != 2 {
			b.Fatalf("query found %d rollovers, want 2", st.RecordsMatched)
		}
	}
}

// BenchmarkAuditAsOf measures a from-scratch point-in-time model
// reconstruction (no snapshot seed — the worst case) as of the middle
// of the journal, so the LSN bound is doing real work too.
func BenchmarkAuditAsOf(b *testing.B) {
	dir, _ := benchJournal(b)
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		b.Fatalf("segments: %v", err)
	}
	target := segs[len(segs)/2].FirstLSN
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := serve.RecoverAsOf(wal.DirSource{Dir: dir}, "", target)
		if err != nil {
			b.Fatal(err)
		}
		if len(saved(b, res.Service)) == 0 {
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
		if !tr.Found || len(tr.Lineage) == 0 {
			b.Fatal("empty trace")
		}
	}
}
