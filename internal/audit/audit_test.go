package audit_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/audit"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

const asOfSeed = 42

// checkpointCopy checkpoints srv into its journal's directory and
// squirrels the snapshot file away, returning the copy's path and the
// checkpoint watermark.
func checkpointCopy(t *testing.T, srv *serve.Server, j *wal.WAL, name string) (string, uint64) {
	t.Helper()
	snap := filepath.Join(j.Dir(), "model.snap")
	info, err := srv.Checkpoint(snap)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(j.Dir(), name)
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return cp, info.LSN
}

// TestAsOfByteIdentical pins the reconstruction contract through real
// segments: replaying to a checkpoint's LSN from the PREVIOUS
// checkpoint's snapshot must reproduce the later checkpoint's file
// byte for byte — including a reward batch that straddles the first
// checkpoint (events ranked before it, rewarded after, so the open
// events travel via the snapshot and the rewards via the journal).
func TestAsOfByteIdentical(t *testing.T) {
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 1024}) // tiny segments: the window spans many files
	srv := serve.New(serve.Config{Seed: asOfSeed, WAL: j})
	_, cl := nodetest.Serve(t, srv)
	cat := rules.NewCatalog()

	// Phase A: decisions and some rewards, then checkpoint 1.
	idsA := nodetest.Rank(t, cl, 20, 1)
	nodetest.Reward(t, cl, idsA[:10], 0.5)
	if _, err := srv.InstallHints([]sis.Hint{
		{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: cat.FlipFor(40), Day: 3},
	}); err != nil {
		t.Fatal(err)
	}
	snap1, w1 := checkpointCopy(t, srv, j, "snap1.copy")

	// Phase B: the straddling batch — rewards for phase-A events land
	// after checkpoint 1 — plus fresh decisions, rewards, and a hint
	// rollover. Then checkpoint 2: the reconstruction target. The
	// window holds more than bandit.DefaultTrainEvery rewards, so the
	// replay crosses a count-based training boundary.
	nodetest.Reward(t, cl, idsA[10:], 0.9)
	idsB := nodetest.Rank(t, cl, 300, 2)
	nodetest.Reward(t, cl, idsB[:290], 0.25)
	if _, err := srv.InstallHints([]sis.Hint{
		{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: cat.FlipFor(41), Day: 4},
		{TemplateHash: 0xdef456, TemplateID: "T0099", Flip: cat.FlipFor(42), Day: 4},
	}); err != nil {
		t.Fatal(err)
	}
	// The target checkpoint runs the same barrier as Checkpoint but
	// truncates nothing (BootstrapSnapshot), so the journal keeps the
	// window (w1, l] the reconstruction needs — time travel only works
	// over history that compaction has not eaten.
	var snap2buf bytes.Buffer
	l, err := srv.BootstrapSnapshot(&snap2buf)
	if err != nil {
		t.Fatal(err)
	}
	want := snap2buf.Bytes()
	if l <= w1 {
		t.Fatalf("checkpoint LSNs did not advance: w1=%d l=%d", w1, l)
	}
	snap2 := filepath.Join(j.Dir(), "snap2.copy")
	if err := os.WriteFile(snap2, want, 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase C: the journal moves on past L.
	idsC := nodetest.Rank(t, cl, 9, 3)
	nodetest.Reward(t, cl, idsC, 0.7)
	srv.Ingestor().Drain()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	res, err := serve.RecoverAsOf(wal.DirSource{Dir: j.Dir()}, snap1, l)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotLoaded || res.FromLSN != w1 {
		t.Fatalf("reconstruction did not seed from snapshot 1: seeded=%v from=%d want=%d", res.SnapshotLoaded, res.FromLSN, w1)
	}
	// Every train mark is a training run; a run beyond them is a
	// count-based pass inside the window.
	if res.Replay.TrainRuns <= res.Replay.TrainMarks {
		t.Fatalf("as-of ran %d training passes for %d train marks: no count-based boundary in the window", res.Replay.TrainRuns, res.Replay.TrainMarks)
	}
	if got := saved(t, res.Service); !bytes.Equal(got, want) {
		t.Fatalf("as-of(%d) reconstruction differs from the live checkpoint at %d:\n--- as-of (%d bytes)\n%s\n--- checkpoint (%d bytes)\n%s",
			l, l, len(got), firstDiff(got, want), len(want), firstDiff(want, got))
	}
	if res.Hints == nil || res.HintGen == 0 {
		t.Errorf("as-of window lost the hint rollover: gen=%d hints=%d", res.HintGen, len(res.Hints))
	}

	// A later snapshot must never seed an earlier reconstruction. (The
	// first checkpoint compacted the start of the journal away, so this
	// one cannot complete either — but it must fail for that reason,
	// not succeed from the wrong seed.)
	nodetest.WaitReclaimed(t, j)
	res2, err := serve.RecoverAsOf(wal.DirSource{Dir: j.Dir()}, snap2, w1)
	if res2.SnapshotLoaded {
		t.Error("reconstruction at an LSN below the snapshot's watermark must not seed from it")
	}
	var ae *api.Error
	if first, _ := j.Window(); first > 1 && (!errors.As(err, &ae) || ae.Code != api.CodeInvalidRequest) {
		t.Errorf("as-of(%d) over a journal compacted to start at %d: err = %v, want invalid_request", w1, first, err)
	}
}

// saved renders a model in the snapshot file format.
func saved(t testing.TB, svc *bandit.Service) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAsOfAtJournalEndThenFlushIsRecover: the two entry points share
// one fold, so they can differ only in what Recover adds — the
// drain-equivalent tail flush. As-of at the journal's last record plus
// that flush is Recover's model, byte for byte.
func TestAsOfAtJournalEndThenFlushIsRecover(t *testing.T) {
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 1024})
	srv := serve.New(serve.Config{Seed: asOfSeed, WAL: j})
	_, cl := nodetest.Serve(t, srv)
	ids := nodetest.Rank(t, cl, 30, 5)
	nodetest.Reward(t, cl, ids[:21], 0.4) // below the training cadence: the snapshot barrier trains them
	// A bootstrap snapshot is the checkpoint barrier without compaction,
	// so the from-scratch arm below still has the whole history.
	var ckpt bytes.Buffer
	if _, err := srv.BootstrapSnapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "ckpt.snap")
	if err := os.WriteFile(snap, ckpt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	more := nodetest.Rank(t, cl, 12, 6)
	nodetest.Reward(t, cl, append(ids[21:], more[:6]...), 0.8)
	srv.Ingestor().Quiesce()()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	src := wal.DirSource{Dir: j.Dir()}
	for _, seed := range []string{"", snap} {
		rec, err := serve.Recover(src, seed, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		asof, err := serve.RecoverAsOf(src, seed, j.LastLSN())
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(saved(t, asof.Service), saved(t, rec.Service)) {
			t.Errorf("seed %q: as-of at the journal end already equals Recover; the rig left nothing for the tail flush", seed)
		}
		asof.Service.Train()
		if got, want := saved(t, asof.Service), saved(t, rec.Service); !bytes.Equal(got, want) {
			t.Errorf("seed %q: as-of(end) + tail flush differs from Recover: %s", seed, firstDiff(got, want))
		}
	}
}

// firstDiff excerpts the first divergent region for failure output.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hi := i + 40
			if hi > len(a) {
				hi = len(a)
			}
			return fmt.Sprintf("(diff at byte %d) ...%q...", i, a[lo:hi])
		}
	}
	return fmt.Sprintf("(equal prefix, lengths %d vs %d)", len(a), len(b))
}

// buildBigJournal writes a synthetic multi-segment journal: nRanks
// rank records with periodic reward batches and train marks, plus
// hint-rollover records mentioning wantTemplate only inside a couple
// of segments (and a decoy template elsewhere). Returns that hash.
func buildBigJournal(tb testing.TB, dir string, nRanks int, segBytes int64) (wantTemplate uint64) {
	tb.Helper()
	// ModeSync with a periodic Commit: segment rolls happen on the
	// committer goroutine, so an uncommitted Append firehose would
	// outrun them and pile everything into one oversized segment.
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: segBytes})
	if err != nil {
		tb.Fatal(err)
	}
	commitEvery := func(lsn uint64) {
		if lsn%256 == 0 {
			if err := j.Commit(lsn); err != nil {
				tb.Fatal(err)
			}
		}
	}
	wantTemplate = 0xfeedface
	const decoy = 0x0ddba11
	var pending []walrec.RewardEntry
	for i := 0; i < nRanks; i++ {
		ev := fmt.Sprintf("ev%08d", i)
		ctx := []uint64{uint64(i) * 3, uint64(i)*3 + 1, uint64(i)*3 + 2}
		act := []uint64{uint64(i % 97), uint64(i%89) + 1000}
		lsn, err := j.Append(walrec.AppendRank(nil, ev, 0.5, ctx, act))
		if err != nil {
			tb.Fatal(err)
		}
		commitEvery(lsn)
		pending = append(pending, walrec.RewardEntry{EventID: ev, Value: float64(i%10) / 10})
		if len(pending) == 64 {
			if _, err := j.Append(walrec.EncodeRewardBatch(pending)); err != nil {
				tb.Fatal(err)
			}
			pending = pending[:0]
		}
		if i%4096 == 4095 {
			if _, err := j.Append(walrec.EncodeTrainMark()); err != nil {
				tb.Fatal(err)
			}
		}
		// The wanted template's rollovers cluster at ~1/4 and ~3/4 of
		// the journal; decoys appear elsewhere so a key filter has
		// something a tag filter alone would let through.
		switch {
		case i == nRanks/4 || i == 3*nRanks/4:
			hints := []sis.Hint{{TemplateHash: wantTemplate, TemplateID: "Twant", Flip: rules.Flip{RuleID: 40}, Day: i / 1000}}
			if _, err := j.Append(walrec.EncodeHintRollover(uint64(i), hints)); err != nil {
				tb.Fatal(err)
			}
		case i%(nRanks/8) == nRanks/16:
			hints := []sis.Hint{{TemplateHash: decoy, TemplateID: "Tdecoy", Flip: rules.Flip{RuleID: 41}, Day: i / 1000}}
			if _, err := j.Append(walrec.EncodeHintRollover(uint64(i), hints)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	lsn, err := j.Append(walrec.EncodeRewardBatch(pending))
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.Commit(lsn); err != nil {
		tb.Fatal(err)
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	return wantTemplate
}

// TestTraceAnswersWhy pins the decision-trace canned query on a live
// journal: the rank, its rewards, the absorbing train mark, and a
// bounded lineage.
func TestTraceAnswersWhy(t *testing.T) {
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 4096})
	srv := serve.New(serve.Config{Seed: asOfSeed, WAL: j})
	_, cl := nodetest.Serve(t, srv)
	ids := nodetest.Rank(t, cl, 24, 7)
	nodetest.Reward(t, cl, ids, 0.6)
	// Drain journals a train mark after the rewards. (A checkpoint
	// would too, but it also compacts the segments holding the rank
	// records — history a trace needs.)
	srv.Ingestor().Drain()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	eng, err := audit.Open(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Trace(ids[5])
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Found {
		t.Fatalf("trace found no rank record for %s", ids[5])
	}
	var rank api.AuditRecord
	if _, err := eng.Run(audit.Query{Tags: []byte{walrec.TagRank}, EventID: ids[5]}, func(r audit.Result) error {
		rank = r.Row()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rank.EventID != ids[5] || tr.RankLSN != rank.LSN {
		t.Fatalf("trace resolved the wrong event: rank at lsn %d, %s's rank record is at lsn %d", tr.RankLSN, ids[5], rank.LSN)
	}
	if len(tr.Rewards) != 1 {
		t.Fatalf("trace found %d rewards, want 1", len(tr.Rewards))
	}
	if tr.TrainedAtLSN == 0 || tr.TrainedAtLSN <= tr.Rewards[0].LSN {
		t.Errorf("training boundary %d does not follow reward at %d", tr.TrainedAtLSN, tr.Rewards[0].LSN)
	}

	missing, err := eng.Trace("ev-no-such-event")
	if err != nil {
		t.Fatal(err)
	}
	if missing.Found || len(missing.Rewards) != 0 {
		t.Error("unknown event produced a non-empty trace")
	}
}

// journalRecord is one decoded record of a brute-force reference scan.
type journalRecord struct {
	lsn uint64
	rec walrec.Record
}

// readAll is the reference reader: every record of the journal through
// the plain replay, decoded, in memory.
func readAll(t *testing.T, dir string) []journalRecord {
	t.Helper()
	var all []journalRecord
	if _, err := (wal.DirSource{Dir: dir}).Replay(0, func(lsn uint64, payload []byte) error {
		rec, err := walrec.Decode(payload)
		if err != nil {
			return err
		}
		all = append(all, journalRecord{lsn, rec})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return all
}

// bruteRecords answers a records query the slow, obvious way: decode
// everything, test each clause on the decoded record.
func bruteRecords(all []journalRecord, q audit.Query) []string {
	var rows []string
	for _, r := range all {
		if r.lsn < q.FromLSN || (q.ToLSN != 0 && r.lsn > q.ToLSN) {
			continue
		}
		if len(q.Tags) > 0 && !bytes.Contains(q.Tags, []byte{r.rec.Tag}) {
			continue
		}
		if q.HasTemplate {
			hit := false
			if r.rec.HintRollover != nil {
				for _, h := range r.rec.HintRollover.Hints {
					hit = hit || h.TemplateHash == q.Template
				}
			}
			if r.rec.Quarantine != nil {
				_, in := r.rec.Quarantine.States[q.Template]
				hit = hit || in
			}
			if !hit {
				continue
			}
		}
		if q.EventID != "" {
			hit := r.rec.Rank != nil && r.rec.Rank.EventID == q.EventID
			for _, e := range r.rec.RewardBatch {
				hit = hit || e.EventID == q.EventID
			}
			if !hit {
				continue
			}
		}
		rows = append(rows, recordRow(audit.Result{LSN: r.lsn, Rec: r.rec}))
		if len(rows) == q.Limit {
			break
		}
	}
	return rows
}

// bruteDecision is decisionRows' reference, over the in-memory journal.
func bruteDecision(all []journalRecord, event string) []string {
	var rank *journalRecord
	for i := range all {
		if r := &all[i]; rank == nil && r.rec.Rank != nil && r.rec.Rank.EventID == event {
			rank = r
		}
	}
	if rank == nil {
		return []string{fmt.Sprintf("event %s: no rank record in the journal (never ranked, or compacted away)", event)}
	}
	rows := []string{
		fmt.Sprintf("event:    %s", event),
		fmt.Sprintf("decision: lsn=%d prob=%.4f ctxFeatures=%d actFeatures=%d",
			rank.lsn, rank.rec.Rank.Prob, len(rank.rec.Rank.CtxIDs), len(rank.rec.Rank.ActIDs)),
	}
	lastReward := uint64(0)
	for _, r := range all {
		for _, e := range r.rec.RewardBatch {
			if e.EventID == event {
				rows = append(rows, fmt.Sprintf("reward:   lsn=%d value=%.4f", r.lsn, e.Value))
				lastReward = r.lsn
			}
		}
	}
	if lastReward == 0 {
		rows = append(rows, "reward:   none journaled")
	} else {
		for _, r := range all {
			if r.lsn > lastReward && r.rec.Tag == walrec.TagTrainMark {
				rows = append(rows, fmt.Sprintf("trained:  by lsn=%d at the latest (first train mark after the last reward)", r.lsn))
				break
			}
		}
	}
	shares := func(other *walrec.Rank) bool {
		for _, a := range other.ActIDs {
			for _, b := range rank.rec.Rank.ActIDs {
				if a == b {
					return true
				}
			}
		}
		return false
	}
	related := map[string]bool{}
	var lineage []string
	for _, r := range all {
		if r.lsn >= rank.lsn {
			break
		}
		if r.rec.Rank != nil && shares(r.rec.Rank) {
			related[r.rec.Rank.EventID] = true
		}
	}
	for _, r := range all {
		if r.lsn >= rank.lsn {
			break
		}
		for _, e := range r.rec.RewardBatch {
			if related[e.EventID] {
				lineage = append(lineage, fmt.Sprintf("lineage:  lsn=%d event=%s value=%.4f", r.lsn, e.EventID, e.Value))
			}
		}
	}
	for i := len(lineage) - 1; i >= 0 && len(lineage)-i <= 64; i-- {
		rows = append(rows, lineage[i])
	}
	if len(lineage) > 64 {
		rows = append(rows, "lineage:  (truncated at cap)")
	}
	return rows
}

// bruteTemplate is templateRows' reference: the table each wholesale
// record holds for the template, with repeats collapsed.
func bruteTemplate(all []journalRecord, hash uint64) []string {
	rows := []string{fmt.Sprintf("template: %016x", hash)}
	events, rollovers, quarantines := 0, 0, 0
	hint, quar := "", ""
	for _, r := range all {
		switch {
		case r.rec.HintRollover != nil:
			rollovers++
			now := ""
			for _, h := range r.rec.HintRollover.Hints {
				if h.TemplateHash == hash && now == "" {
					now = fmt.Sprintf("flip=%s day=%d", h.Flip, h.Day)
				}
			}
			switch {
			case now != "" && now != hint:
				rows = append(rows, fmt.Sprintf("%10d  hint %s generation=%d", r.lsn, now, r.rec.HintRollover.Gen))
				events++
			case now == "" && hint != "":
				rows = append(rows, fmt.Sprintf("%10d  hint removed (generation %d)", r.lsn, r.rec.HintRollover.Gen))
				events++
			}
			hint = now
		case r.rec.Quarantine != nil:
			quarantines++
			now := ""
			if st, in := r.rec.Quarantine.States[hash]; in {
				now = st.String()
			}
			kind := "transition"
			if r.rec.Quarantine.Snapshot {
				kind = "checkpoint re-journal"
			}
			switch {
			case now != "" && now != quar:
				rows = append(rows, fmt.Sprintf("%10d  quarantine state=%s (%s)", r.lsn, now, kind))
				events++
			case now == "" && quar != "":
				rows = append(rows, fmt.Sprintf("%10d  quarantine cleared", r.lsn))
				events++
			}
			quar = now
		}
	}
	return append(rows, fmt.Sprintf("history:  %d events from %d rollovers, %d quarantine records", events, rollovers, quarantines))
}

// TestQueriesMatchBruteForce holds every query kind to an equivalent
// execution: the engine's filtered, window-pruned, early-stopping pass
// must answer exactly what decoding the whole journal and testing each
// clause on the decoded records answers — on the 100k-record fixture
// and on the scripted live journal (which has quarantine records).
func TestQueriesMatchBruteForce(t *testing.T) {
	check := func(t *testing.T, what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d rows, brute force has %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s row %d:\n  engine      %s\n  brute force %s", what, i, got[i], want[i])
				return
			}
		}
	}
	run := func(t *testing.T, dir string, queries []audit.Query, events []string, templates []uint64) {
		eng, err := audit.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		all := readAll(t, dir)
		for _, q := range queries {
			check(t, fmt.Sprintf("records %+v", q), recordRows(t, eng, q), bruteRecords(all, q))
		}
		for _, ev := range events {
			check(t, "decision "+ev, decisionRows(t, eng, ev), bruteDecision(all, ev))
		}
		for _, h := range templates {
			check(t, fmt.Sprintf("template %x", h), templateRows(t, eng, h), bruteTemplate(all, h))
		}
	}

	t.Run("big", func(t *testing.T) {
		dir := t.TempDir()
		tmpl := buildBigJournal(t, dir, 100_000, 512<<10)
		segs, err := wal.Segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) < 8 {
			t.Fatalf("fixture built only %d segments; need a multi-segment journal", len(segs))
		}
		edge := segs[3].FirstLSN // a segment's first record: both window edges land on it below
		run(t, dir, []audit.Query{
			{},
			{Limit: 7},
			{Tags: []byte{walrec.TagRank}},
			{Tags: []byte{walrec.TagTrainMark, walrec.TagHintRollover}},
			{Tags: []byte{walrec.TagHintRollover}, Template: tmpl, HasTemplate: true},
			{Template: 0x0ddba11, HasTemplate: true},
			{Template: 0x5eed, HasTemplate: true},
			{EventID: "ev00031337"},
			{EventID: "ev00099999", Tags: []byte{walrec.TagRewardBatch}},
			{EventID: "ev-no-such-event"},
			{FromLSN: 50_000, ToLSN: 50_030},
			{FromLSN: edge, ToLSN: edge},
			{FromLSN: edge - 1, ToLSN: edge - 1},
			{ToLSN: edge - 1, Tags: []byte{walrec.TagTrainMark}},
			{FromLSN: edge, Tags: []byte{walrec.TagRewardBatch}, Limit: 3},
			{FromLSN: 9, ToLSN: 3},
			{FromLSN: 1 << 40},
		}, []string{"ev00000000", "ev00000500", "ev00075000", "ev-no-such-event"}, []uint64{tmpl, 0x0ddba11, 0x5eed})
	})

	t.Run("rig", func(t *testing.T) {
		j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 1024})
		srv := serve.New(serve.Config{Seed: asOfSeed, WAL: j})
		_, cl := nodetest.Serve(t, srv)
		ids := nodetest.Rank(t, cl, 20, 1)
		nodetest.Reward(t, cl, ids[:15], 0.5)
		for _, action := range []string{api.QuarantineActionQuarantine, api.QuarantineActionRestore} {
			if _, err := srv.InstallHints([]sis.Hint{{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: rules.NewCatalog().FlipFor(40), Day: len(action)}}); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Quarantine(context.Background(), 0xabc123, action); err != nil {
				t.Fatal(err)
			}
			var sink bytes.Buffer
			if _, err := srv.BootstrapSnapshot(&sink); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.InstallHints(nil); err != nil {
			t.Fatal(err)
		}
		nodetest.Reward(t, cl, ids[15:], 0.9)
		srv.Ingestor().Drain()
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		run(t, j.Dir(), []audit.Query{
			{},
			{Tags: []byte{walrec.TagQuarantine}},
			{Template: 0xabc123, HasTemplate: true},
			{EventID: ids[17]},
			{FromLSN: 21, ToLSN: 30, Limit: 4},
		}, []string{ids[0], ids[17]}, []uint64{0xabc123, 0x5eed})
	})
}

// TestScanCountersAndDamageRule: an LSN window is pruned on segment
// headers (segments before it are not opened, the pass stops at its
// last record), and the journal's one damage rule reaches audit
// unchanged — a torn tail on the final segment ends a query cleanly
// with Truncated set, the same damage mid-log is an error.
func TestScanCountersAndDamageRule(t *testing.T) {
	dir := t.TempDir()
	buildBigJournal(t, dir, 4_000, 32<<10)
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("want >=4 segments, got %d", len(segs))
	}
	eng, err := audit.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	count := func(q audit.Query) (api.AuditScanStats, error) {
		return eng.Run(q, func(audit.Result) error { return nil })
	}

	full, err := count(audit.Query{})
	if err != nil || full.SegmentsScanned != int64(len(segs)) || full.SegmentsSkipped != 0 || full.Truncated {
		t.Fatalf("full scan: %+v, %v", full, err)
	}
	from, to := segs[2].FirstLSN, segs[3].FirstLSN-1 // exactly the third segment
	st, err := count(audit.Query{FromLSN: from, ToLSN: to})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsTotal != int64(len(segs)) || st.SegmentsScanned != 1 || st.SegmentsSkipped != int64(len(segs))-1 {
		t.Errorf("one-segment window scanned %d and skipped %d of %d segments", st.SegmentsScanned, st.SegmentsSkipped, st.SegmentsTotal)
	}
	if n := int64(to - from + 1); st.RecordsScanned != n || st.RecordsMatched != n {
		t.Errorf("one-segment window read %d and matched %d records, want %d", st.RecordsScanned, st.RecordsMatched, n)
	}
	if tot := eng.Totals(); tot.Queries != 2 || tot.SegmentsSkipped != st.SegmentsSkipped || tot.RecordsMatched != full.RecordsMatched+st.RecordsMatched {
		t.Errorf("totals after two queries: %+v", tot)
	}

	// The journal grows under the same engine: nothing is cached.
	j := nodetest.Journal(t, wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: 32 << 10})
	lsn, err := j.Append(walrec.EncodeTrainMark())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if grown, err := count(audit.Query{}); err != nil || grown.RecordsMatched != full.RecordsMatched+1 {
		t.Fatalf("after one append: %+v, %v; want %d records", grown, err, full.RecordsMatched+1)
	}

	chop := func(path string) {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ = wal.Segments(dir)
	chop(segs[len(segs)-1].Path)
	torn, err := count(audit.Query{})
	if err != nil || !torn.Truncated || torn.RecordsMatched != full.RecordsMatched {
		t.Errorf("torn tail: %+v, %v; want a clean end after %d records with Truncated set", torn, err, full.RecordsMatched)
	}
	chop(segs[1].Path)
	if _, err := count(audit.Query{}); err == nil {
		t.Error("mid-log damage must fail the query, not shorten the answer")
	}
	if _, err := eng.Trace("ev00003000"); err == nil {
		t.Error("mid-log damage must fail a trace")
	}
	if st, err := count(audit.Query{FromLSN: segs[2].FirstLSN, ToLSN: segs[3].FirstLSN - 1}); err != nil || st.SegmentsScanned != 1 {
		t.Errorf("a window that never opens the damaged segment: %+v, %v", st, err)
	}
}

// TestAuditAndRecoveryRefuseTheSameRecords: a rollover whose flip does
// not parse ("F40") and a quarantine record that holds a state which is
// never journaled (suspect) are refused by the one record decoder, and so
// by audit and recovery alike. walrec.Decode fails; audit lists the
// record as undecoded and finds the template in no record and no history
// event; serve.Recover fails. Each bad record differs from a good one
// only in the refused field.
func TestAuditAndRecoveryRefuseTheSameRecords(t *testing.T) {
	const hash = 0xabc123
	rollover := walrec.EncodeHintRollover(1, []sis.Hint{{TemplateHash: hash, TemplateID: "T0042", Flip: rules.Flip{RuleID: 40}, Day: 7}})
	quarantine := walrec.EncodeQuarantine(map[uint64]drift.State{hash: drift.StateQuarantined}, false, false)
	badQuarantine := bytes.Clone(quarantine)
	badQuarantine[len(badQuarantine)-1] = byte(drift.StateSuspect)
	for _, tc := range []struct {
		name      string
		good, bad []byte
	}{
		{"flip F40", rollover, bytes.Replace(rollover, []byte("\x05-R040"), []byte("\x03F40"), 1)},
		{"suspect state", quarantine, badQuarantine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := walrec.Decode(tc.good); err != nil {
				t.Fatalf("the good record does not decode: %v", err)
			}
			if bytes.Equal(tc.good, tc.bad) {
				t.Fatal("the bad record is the good one")
			}
			if rec, err := walrec.Decode(tc.bad); err == nil {
				t.Fatalf("walrec.Decode accepted %+v", rec)
			}

			j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync})
			dir := j.Dir()
			lsn, err := j.Append(tc.bad)
			if err == nil {
				err = j.Commit(lsn)
			}
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}

			eng, err := audit.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var listed []string
			if _, err := eng.Run(audit.Query{}, func(r audit.Result) error {
				listed = append(listed, r.Row().Summary)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := walrec.Name(tc.bad[0]) + " (undecoded)"
			if len(listed) != 1 || listed[0] != want {
				t.Errorf("audit records lists %q, want [%q]", listed, want)
			}
			if _, err := eng.Run(audit.Query{Template: hash, HasTemplate: true}, func(r audit.Result) error {
				t.Errorf("audit records template=%x matched lsn %d: %s", hash, r.LSN, r.Row().Summary)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			th, err := eng.Template(hash)
			if err != nil {
				t.Fatal(err)
			}
			if len(th.Events) != 0 || th.Rollovers != 0 || th.QuarantineRecords != 0 {
				t.Errorf("audit template reads the record: %d events, %d rollovers, %d quarantine records", len(th.Events), th.Rollovers, th.QuarantineRecords)
			}

			if _, err := serve.Recover(wal.DirSource{Dir: dir}, "", 0, 0, 42); err == nil {
				t.Error("serve.Recover accepted the record")
			}
		})
	}
}
