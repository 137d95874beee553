package audit_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"qoadvisor/internal/audit"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

var update = flag.Bool("update", false, "rewrite testdata/queries.golden from the running code")

// eventNonce matches the per-process part of a live event ID
// ("ev<nonce>-<seq>": the nonce is clock-derived). The golden replaces
// it so two runs of the scripted rig render the same rows and hash the
// same snapshot bytes.
var eventNonce = regexp.MustCompile(`ev[0-9a-f]+-`)

func scrub(b []byte) []byte { return eventNonce.ReplaceAll(b, []byte("evN-")) }

// goldenOut collects the golden's lines. A listing longer than
// maxGoldenRows is pinned by its row count and the sha256 of its rows,
// so a 100k-row answer costs one line.
type goldenOut struct{ buf bytes.Buffer }

const maxGoldenRows = 40

func (g *goldenOut) section(name string, rows []string) {
	fmt.Fprintf(&g.buf, "== %s\n", name)
	if len(rows) > maxGoldenRows {
		sum := sha256.Sum256([]byte(strings.Join(rows, "\n")))
		fmt.Fprintf(&g.buf, "%d rows sha256=%x\n", len(rows), sum)
		return
	}
	for _, r := range rows {
		fmt.Fprintln(&g.buf, r)
	}
}

// recordRows, decisionRows and templateRows are what `qoserved audit
// records|decision|template` print on stdout: the engine's answer put
// through the CLI's renderer (scan counters go to stderr there and are
// left out here).
func recordRows(t *testing.T, eng *audit.Engine, q audit.Query) []string {
	t.Helper()
	var rows []string
	if _, err := eng.Run(q, func(res audit.Result) error {
		rows = append(rows, recordRow(res))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func recordRow(res audit.Result) string {
	var b strings.Builder
	audit.WriteRecord(&b, res.Row())
	return strings.TrimSuffix(b.String(), "\n")
}

func decisionRows(t *testing.T, eng *audit.Engine, event string) []string {
	t.Helper()
	tr, err := eng.Trace(event)
	if err != nil {
		t.Fatal(err)
	}
	return rendered(t, func(w io.Writer) error { return audit.WriteDecision(w, tr) })
}

func templateRows(t *testing.T, eng *audit.Engine, hash uint64) []string {
	t.Helper()
	th, err := eng.Template(hash)
	if err != nil {
		t.Fatal(err)
	}
	return rendered(t, func(w io.Writer) error { return audit.WriteTemplate(w, th) })
}

// rendered runs a renderer and returns what it printed, line by line.
func rendered(t *testing.T, render func(io.Writer) error) []string {
	t.Helper()
	var b strings.Builder
	if err := render(&b); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
}

// asOfSnapshot reconstructs the model as of lsn, seeded from snapshot
// (empty: from the journal's first record), in the snapshot file format.
func asOfSnapshot(t *testing.T, dir, snapshot string, lsn uint64) []byte {
	t.Helper()
	res, err := serve.RecoverAsOf(wal.DirSource{Dir: dir}, snapshot, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if (snapshot != "") != res.SnapshotLoaded {
		t.Fatalf("as-of(%d) with snapshot %q: seeded=%v", lsn, snapshot, res.SnapshotLoaded)
	}
	return saved(t, res.Service)
}

// scrubbed renders rows with the event-ID nonce replaced.
func scrubbed(rows []string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(scrub([]byte(r)))
	}
	return out
}

// TestQueriesGolden pins every audit answer — each `records` filter,
// `decision`, `template`, and the as-of model digest at every
// checkpointed LSN — over two journals: the scripted live rig (real
// HTTP traffic, hint rollovers, three checkpoint barriers) and the
// 100k-record multi-segment fixture. The file was generated while the
// engine still kept a derived index beside the journal and its own copy
// of the recovery fold; deleting both, and any later change to the read
// path, must leave it byte for byte. Regenerate with `go test -run TestQueriesGolden ./internal/audit
// -update` only when an answer is meant to move.
func TestQueriesGolden(t *testing.T) {
	var g goldenOut

	// The steering session over real HTTP. Every reward batch is applied
	// before the next request (Quiesce), so each rank sees the same
	// weights on every run; its checkpoints are bootstrap snapshots — the
	// same barrier as Checkpoint, no compaction — so the whole history
	// stays queryable.
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 1024})
	srv := serve.New(serve.Config{Seed: asOfSeed, WAL: j})
	_, cl := nodetest.Serve(t, srv)
	s := nodetest.Steer(t, cl, srv, func() { srv.Ingestor().Quiesce()() })
	srv.Ingestor().Drain()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(s.Barriers))
	for i, ck := range s.Barriers {
		paths[i] = filepath.Join(t.TempDir(), fmt.Sprintf("ckpt%d.snap", i+1))
		if err := os.WriteFile(paths[i], ck.Snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	eng, err := audit.Open(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	rig := func(name string, rows []string) { g.section("rig "+name, scrubbed(rows)) }
	rig("records", recordRows(t, eng, audit.Query{}))
	rig("records type=reward_batch,train_mark", recordRows(t, eng, audit.Query{Tags: []byte{walrec.TagRewardBatch, walrec.TagTrainMark}}))
	rig("records type=hint_rollover template=abc123", recordRows(t, eng, audit.Query{Tags: []byte{walrec.TagHintRollover}, Template: 0xabc123, HasTemplate: true}))
	rig("records template=abc123", recordRows(t, eng, audit.Query{Template: 0xabc123, HasTemplate: true}))
	rig("records event=idsA[12]", recordRows(t, eng, audit.Query{EventID: s.A[12]}))
	rig("records from=ckpt1+1 to=ckpt2", recordRows(t, eng, audit.Query{FromLSN: s.Barriers[0].LSN + 1, ToLSN: s.Barriers[1].LSN}))
	rig("records type=rank limit=5", recordRows(t, eng, audit.Query{Tags: []byte{walrec.TagRank}, Limit: 5}))
	rig("decision idsA[12]", decisionRows(t, eng, s.A[12]))
	rig("decision idsB[15]", decisionRows(t, eng, s.B[15]))
	rig("decision idsC[8]", decisionRows(t, eng, s.C[8]))
	rig("decision unknown", decisionRows(t, eng, "ev-no-such-event"))
	rig("template abc123", templateRows(t, eng, 0xabc123))
	rig("template def456", templateRows(t, eng, 0xdef456))
	rig("template never-hinted", templateRows(t, eng, 0x5eed))

	// As-of at every checkpointed LSN: from the journal's first record
	// and seeded from the previous checkpoint, the reconstruction is the
	// checkpoint's own bytes.
	var asof []string
	for i, ck := range s.Barriers {
		if got := asOfSnapshot(t, j.Dir(), "", ck.LSN); !bytes.Equal(got, ck.Snapshot) {
			t.Errorf("as-of(%d) from scratch differs from checkpoint %d: %s", ck.LSN, i+1, firstDiff(got, ck.Snapshot))
		}
		if i > 0 {
			if got := asOfSnapshot(t, j.Dir(), paths[i-1], ck.LSN); !bytes.Equal(got, ck.Snapshot) {
				t.Errorf("as-of(%d) seeded from checkpoint %d differs from checkpoint %d: %s", ck.LSN, i, i+1, firstDiff(got, ck.Snapshot))
			}
		}
		model := scrub(ck.Snapshot)
		asof = append(asof, fmt.Sprintf("asof:     lsn=%d model: %d bytes, sha256=%x", ck.LSN, len(model), sha256.Sum256(model)))
	}
	rig("asof at each checkpoint", asof)

	// The 100k-record fixture (synthetic event IDs: nothing to scrub).
	bigDir := t.TempDir()
	tmpl := buildBigJournal(t, bigDir, 100_000, 512<<10)
	big, err := audit.Open(bigDir)
	if err != nil {
		t.Fatal(err)
	}
	g.section("big records", recordRows(t, big, audit.Query{}))
	g.section("big records limit=12", recordRows(t, big, audit.Query{Limit: 12}))
	g.section("big records type=rank", recordRows(t, big, audit.Query{Tags: []byte{walrec.TagRank}}))
	g.section("big records type=train_mark", recordRows(t, big, audit.Query{Tags: []byte{walrec.TagTrainMark}}))
	g.section("big records type=hint_rollover", recordRows(t, big, audit.Query{Tags: []byte{walrec.TagHintRollover}}))
	g.section("big records type=hint_rollover template=feedface", recordRows(t, big, audit.Query{Tags: []byte{walrec.TagHintRollover}, Template: tmpl, HasTemplate: true}))
	g.section("big records template=0ddba11", recordRows(t, big, audit.Query{Template: 0x0ddba11, HasTemplate: true}))
	g.section("big records event=ev00031337", recordRows(t, big, audit.Query{EventID: "ev00031337"}))
	g.section("big records event=ev00099999 type=reward_batch", recordRows(t, big, audit.Query{EventID: "ev00099999", Tags: []byte{walrec.TagRewardBatch}}))
	g.section("big records from=50000 to=50030", recordRows(t, big, audit.Query{FromLSN: 50_000, ToLSN: 50_030}))
	g.section("big records from=101000", recordRows(t, big, audit.Query{FromLSN: 101_000}))
	g.section("big records to=7", recordRows(t, big, audit.Query{ToLSN: 7}))
	g.section("big records type=reward_batch from=20000 limit=3", recordRows(t, big, audit.Query{Tags: []byte{walrec.TagRewardBatch}, FromLSN: 20_000, Limit: 3}))
	g.section("big decision ev00000000", decisionRows(t, big, "ev00000000"))
	g.section("big decision ev00000500", decisionRows(t, big, "ev00000500"))
	g.section("big decision ev00075000", decisionRows(t, big, "ev00075000"))
	g.section("big template feedface", templateRows(t, big, tmpl))
	g.section("big template 0ddba11", templateRows(t, big, 0x0ddba11))
	model := asOfSnapshot(t, bigDir, "", 60_000)
	g.section("big asof from scratch", []string{fmt.Sprintf("asof:     lsn=60000 model: %d bytes, sha256=%x", len(model), sha256.Sum256(model))})

	path := filepath.Join("testdata", "queries.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, g.buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.buf.Bytes(), want) {
		t.Errorf("audit answers moved from %s: %s\n(-update after the package path only if an answer is meant to move)", path, firstDiff(g.buf.Bytes(), want))
	}
}
