package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

// newDriftPrimary is a drift-detecting primary on a sync journal, plus
// two installed hints to regress and spare.
func newDriftPrimary(t *testing.T, segBytes int64) (*primaryRig, uint64, uint64) {
	t.Helper()
	dc := drift.DefaultConfig()
	p := servePrimary(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: segBytes}, serve.Config{Seed: 42, Drift: &dc})
	const sick, healthy = uint64(0xabc123), uint64(0xdef456)
	if _, err := p.srv.InstallHints([]sis.Hint{
		{TemplateHash: sick, TemplateID: "T0042", Flip: p.cat.FlipFor(40), Day: 7},
		{TemplateHash: healthy, TemplateID: "T0043", Flip: p.cat.FlipFor(55), Day: 7},
	}); err != nil {
		t.Fatal(err)
	}
	return p, sick, healthy
}

// regress drives the hash from a healthy reward baseline into
// quarantine on the primary.
func regress(t *testing.T, p *primaryRig, hash uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(hash)))
	for i := 0; i < 64; i++ {
		if err := p.srv.ObserveReward(hash, 1.0+0.05*rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	table := p.srv.QuarantineTable()
	for i := 0; i < 200 && !table.Blocked(hash); i++ {
		if err := p.srv.ObserveReward(hash, 0.05*rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if !table.Blocked(hash) {
		t.Fatal("primary never quarantined the regressed template")
	}
}

// TestFollowerReplicatesQuarantine covers the cluster acceptance for
// the safeguard: a follower that bootstraps across a quarantine-bearing
// journal refuses the same hint the primary does (byte-identical rank
// responses), a transition applied after bootstrap arrives over the
// live tail, and a re-bootstrap after compaction does not resurrect a
// restored template.
func TestFollowerReplicatesQuarantine(t *testing.T) {
	p, sick, healthy := newDriftPrimary(t, 1024) // tiny segments: checkpoints compact
	p.traffic(t, 20, 1, 0.5)
	regress(t, p, sick)
	p.settle(t)

	// Bootstrap carries the state: the snapshot's quarantine re-journal
	// plus the tail both land on the follower.
	f := startFollower(t, p)
	caughtUp(t, f)
	if !f.Server().QuarantineTable().Blocked(sick) {
		t.Fatal("bootstrap did not carry the quarantine state")
	}
	if f.Server().QuarantineTable().Blocked(healthy) {
		t.Fatal("follower blocks a healthy template")
	}

	// Same decision on both nodes, byte for byte: the quarantined
	// template falls to the (deterministic, greedy-on-follower) bandit
	// path on the primary too, so pin the hint-path agreement on the
	// healthy template and the refusal on the sick one.
	body, err := json.Marshal(api.BatchRankRequest{Jobs: []api.RankRequest{
		{TemplateHash: api.TemplateHash(healthy), Span: []int{5, 55}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fts, _ := nodetest.Serve(t, f)
	pst, praw := postRaw(t, p.ts.URL+api.RouteV2Rank, "quar-1", body)
	fst, fraw := postRaw(t, fts.URL+api.RouteV2Rank, "quar-1", body)
	if pst != http.StatusOK || fst != http.StatusOK || !bytes.Equal(praw, fraw) {
		t.Fatalf("healthy-template responses diverged (%d/%d)\nprimary:  %s\nfollower: %s", pst, fst, praw, fraw)
	}
	fresp, err := f.Server().Rank(api.RankRequest{TemplateHash: api.TemplateHash(sick), Span: []int{5, 55}})
	if err != nil {
		t.Fatal(err)
	}
	if fresp.Source != api.SourceBandit {
		t.Fatalf("follower served the quarantined hint: %+v", fresp)
	}
	// The follower's admin surface reflects the replicated table.
	list, err := client.New(fts.URL).QuarantineList(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Templates) != 1 || uint64(list.Templates[0].TemplateHash) != sick {
		t.Fatalf("follower quarantine list = %+v", list.Templates)
	}

	// Live tail: a manual restore on the primary lifts the block on the
	// follower without a re-bootstrap.
	if _, err := p.srv.Quarantine(sick, false); err != nil {
		t.Fatal(err)
	}
	p.settle(t)
	caughtUp(t, f)
	deadline := time.Now().Add(10 * time.Second)
	for f.Server().QuarantineTable().Blocked(sick) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if f.Server().QuarantineTable().Blocked(sick) {
		t.Fatal("restore did not replicate over the live tail")
	}

	// No resurrection: checkpoints compact the journal past every
	// quarantine record; a follower forced to re-bootstrap from the
	// fresh snapshot must come back with an EMPTY table, not the
	// pre-restore state.
	for round := 0; round < 4; round++ {
		p.traffic(t, 25, 40+round, 0.8)
		if _, err := p.srv.Checkpoint(p.snap); err != nil {
			t.Fatal(err)
		}
	}
	if first, _ := p.j.Window(); first <= 2 {
		t.Fatalf("compaction did not advance the retained window (first=%d); test is vacuous", first)
	}
	p.settle(t)
	// Park the follower below the retained window once its open stream
	// has nothing left to deliver: its next tail asks from LSN 1.
	caughtUp(t, f)
	f.applied.Store(1)
	deadline = time.Now().Add(15 * time.Second)
	for f.resyncs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if f.resyncs.Load() == 0 {
		t.Fatal("follower never re-bootstrapped after compaction gap")
	}
	caughtUp(t, f)
	if f.Server().QuarantineTable().Blocked(sick) {
		t.Fatal("re-bootstrap resurrected a restored template's quarantine")
	}
	if n := len(f.Server().QuarantineTable().Snapshot()); n != 0 {
		t.Fatalf("re-bootstrapped quarantine table has %d entries, want 0", n)
	}
}
