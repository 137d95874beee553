package workload_test

import (
	"testing"

	"qoadvisor/internal/workload"
)

// BenchmarkJobsForDay times one day of qobench pipeline_day's workload,
// 222 templates at its offline seed, built fresh: every iteration asks
// for a date the instance memo has never held (New already built day
// 1's), so each (template, date) is instantiated, not looked up.
func BenchmarkJobsForDay(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 20211101, NumTemplates: 222})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for date := 2; b.Loop(); date++ {
		if _, err := gen.JobsForDay(date); err != nil {
			b.Fatal(err)
		}
	}
}
