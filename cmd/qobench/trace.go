package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span names. An op span is the root of one op; every other span names
// its op span as parent and shares its op id.
const (
	spanOp = iota
	spanClientRank
	spanClientReward
	spanServeHTTPRank
	spanServeHTTPReward
	spanServeRank
	spanCoreFeaturize
	spanBanditRank
	spanCacheLookup
	spanAPICodec
	spanWALAppendCommit
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "client.rank_batch", "client.reward_batch",
	"serve.ServeHTTP(/v2/rank)", "serve.ServeHTTP(/v2/reward)", "serve.Rank",
	"core.ContextFeatures+ActionsFor", "bandit.Rank", "serve.HintCache.Lookup",
	"api.json", "wal.Append+Commit",
}

type span struct {
	name       uint8
	op         int32
	parent     int32 // span id, 0 = root
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in per-lane buffers allocated up front (one lane
// per load worker, so recording takes no lock) and writes them out once,
// when the benchmark ends.
type tracer struct {
	epoch time.Time
	lanes [][]span
}

const laneStride = 1 << 24 // span id = lane*laneStride + index + 1

func newTracer(lanes, perLane int) *tracer {
	t := &tracer{epoch: time.Now(), lanes: make([][]span, lanes)}
	for i := range t.lanes {
		t.lanes[i] = make([]span, 0, perLane)
	}
	return t
}

// add records one span and returns its id. A full lane drops the span
// (and returns 0) rather than growing inside a measured pass.
func (t *tracer) add(lane, name, op int, parent int32, start, end time.Time) int32 {
	l := t.lanes[lane]
	if len(l) == cap(l) {
		return 0
	}
	t.lanes[lane] = append(l, span{
		name: uint8(name), op: int32(op), parent: parent,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
	})
	return int32(lane*laneStride + len(l) + 1)
}

// patchEnd sets the end of an already recorded span (an op span is
// opened before its children and closed after them).
func (t *tracer) patchEnd(id int32, end time.Time) {
	if id == 0 {
		return
	}
	i := int(id) - 1
	t.lanes[i/laneStride][i%laneStride].end = int64(end.Sub(t.epoch))
}

// meanUs is the mean duration of the spans with the given name, in µs.
func (t *tracer) meanUs(name int) float64 {
	var sum, n int64
	for _, l := range t.lanes {
		for _, s := range l {
			if int(s.name) == name {
				sum += s.end - s.start
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

func (t *tracer) count() int {
	n := 0
	for _, l := range t.lanes {
		n += len(l)
	}
	return n
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, ts/dur in µs), the object form /v2/traces emits, so the file
// loads in chrome://tracing and Perfetto. args carries the span's id,
// its parent's id and the op id.
func (t *tracer) writeChrome(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"workload":%q,"traceEvents":[`, workload)
	first := true
	for lane, l := range t.lanes {
		for i, s := range l {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"cat":"qobench","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"id":"%d","parent":"%d","op":"%d"}}`,
				spanNames[s.name], float64(s.start)/1e3, float64(s.end-s.start)/1e3, lane,
				lane*laneStride+i+1, s.parent, s.op)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
