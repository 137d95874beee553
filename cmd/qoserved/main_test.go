package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/replicate"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden and testdata/config.golden from the current code")

// childEnv marks a re-executed test binary that should run main() on
// the space-separated arguments it carries instead of the tests — the
// only way to observe main's exit code.
const childEnv = "QOSERVED_TEST_ARGV"

func TestMain(m *testing.M) {
	if argv, ok := os.LookupEnv(childEnv); ok {
		os.Args = append([]string{"qoserved"}, strings.Fields(argv)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagsGolden pins the operator surface: per subcommand, every
// flag's name, default and usage string, sorted. Regenerate with
// `go test ./cmd/qoserved -run TestFlagsGolden -update`.
func TestFlagsGolden(t *testing.T) {
	var got bytes.Buffer
	defaults := map[string]string{}
	for _, c := range commands {
		fmt.Fprintf(&got, "qoserved %s\n", strings.TrimSpace(c.name+" "+c.operand))
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.new().register(fs)
		fs.VisitAll(func(f *flag.Flag) {
			fmt.Fprintf(&got, "  -%s\t%q\t%s\n", f.Name, f.DefValue, f.Usage)
			if d, seen := defaults[f.Name]; seen && d != f.DefValue {
				t.Errorf("-%s defaults to %q in %s and %q elsewhere", f.Name, f.DefValue, c.name, d)
			}
			defaults[f.Name] = f.DefValue
		})
	}
	if len(defaults) != 19 {
		t.Errorf("%d distinct flag names across all subcommands, want 19", len(defaults))
	}
	const path = "testdata/flags.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flag surface moved; rerun with -update if intended\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// TestConfigGolden pins the settable surface of the serving stack
// under the flags: the name and type of every exported field of
// serve.Config, replicate.Config and wal.Options. A new setting moves
// this golden, as a new flag moves flags.golden. Regenerate with
// `go test ./cmd/qoserved -run TestConfigGolden -update`.
func TestConfigGolden(t *testing.T) {
	var got bytes.Buffer
	for _, v := range []any{serve.Config{}, replicate.Config{}, wal.Options{}} {
		typ := reflect.TypeOf(v)
		fmt.Fprintf(&got, "%s\n", typ)
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				fmt.Fprintf(&got, "  %s\t%s\n", f.Name, f.Type)
			}
		}
	}
	const path = "testdata/config.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("config surface moved; rerun with -update if intended\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// TestParseBuildsEachMode builds every mode's configuration from argv;
// parse opens no socket and no journal.
func TestParseBuildsEachMode(t *testing.T) {
	node := nodeFlags{addr: ":1", logLevel: "info", level: slog.LevelInfo}
	for _, tc := range []struct {
		argv string
		want mode
	}{
		{"serve -addr :1 -wal-dir d -wal-sync sync -drift -seed 7", &serveMode{
			nodeFlags: node, seed: 7, drift: true,
			walDir: "d", walSync: "sync", walMode: wal.ModeSync,
		}},
		{"follow http://p:1 -addr :1", &followMode{nodeFlags: node, primary: "http://p:1"}},
		{"cluster http://a:1,,http://b:1", &clusterMode{endpoints: []string{"http://a:1", "http://b:1"}}},
		{"cluster http://h:1", &clusterMode{endpoints: []string{"http://h:1"}}},
		{"push-hints http://h:1 -hints f.hints", &pushHintsMode{url: "http://h:1", hints: "f.hints"}},
		{"audit asof -wal-dir d -audit-out out.model", &auditMode{
			walDir: "d", model: "d/model.snap", query: "asof", out: "out.model",
		}},
		{"audit template -wal-dir d -template-hash a11ce", &auditMode{
			walDir: "d", model: "d/model.snap", query: "template", hash: 0xa11ce, hasTemplate: true,
		}},
		{"audit records -wal-dir d -audit-type rank,reward_batch -audit-limit 3", &auditMode{
			walDir: "d", model: "d/model.snap", query: "records", tags: []byte{1, 2}, limit: 3,
		}},
		{"version", versionMode{}},
	} {
		var stderr bytes.Buffer
		got, err := parse(strings.Fields(tc.argv), &stderr)
		if err != nil {
			t.Errorf("qoserved %s: %v\n%s", tc.argv, err, stderr.Bytes())
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("qoserved %s:\n got %+v\nwant %+v", tc.argv, got, tc.want)
		}
	}
}

// TestServeConstants pins serve's fixed cadence: a checkpoint every 5
// minutes.
func TestServeConstants(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"checkpointEvery", checkpointEvery, 5 * time.Minute},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestParseLevel holds -log-level to the values it has always accepted.
func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError, "ERROR": slog.LevelError,
	} {
		if got, err := parseLevel(s); err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseLevel("loud"); err == nil {
		t.Error("parseLevel accepted garbage")
	}
}

// TestParseRejects: a flag another mode owns, a missing required input,
// an old mode-flag spelling and an unknown subcommand all fail at parse
// time, with the reason and a usage text on stderr.
func TestParseRejects(t *testing.T) {
	const undefined = "flag provided but not defined"
	cases := [][2]string{
		{"follow http://p:1 -wal-dir d", undefined},
		{"follow http://p:1 -hints f", undefined},
		{"follow http://p:1 -seed 7", undefined},
		{"audit asof -wal-dir d -seed 7", undefined},
		{"serve -trace-out t.json", undefined},
		{"follow http://p:1 -trace-sample 1", undefined},
		{"follow", "missing <primary>"},
		{"follow -addr :1 http://p:1", "missing <primary>"},
		{"replay out.model -wal-dir d", "unknown subcommand"},
		{"check http://h:1", "unknown subcommand"},
		{"push-hints http://h:1", "needs -hints"},
		{"audit asof", "needs -wal-dir"},
		{"audit decision -wal-dir d", "needs -event"},
		{"audit template -wal-dir d", "needs -template-hash"},
		{"audit template -wal-dir d -template-hash xyz", "invalid value"},
		{"audit records -wal-dir d -audit-type bogus", "bogus"},
		{"audit records -wal-dir d -audit-limit -1", "-audit-limit -1"},
		{"audit bogus -wal-dir d", "unknown query"},
		{"serve -wal-sync bogus", "bad -wal-sync"},
		{"serve -log-level loud", "unknown log level"},
		{"serve http://h:1", "unexpected argument"},
		{"cluster http://h:1 -log-level debug", undefined},
		{"cluster ,", "no endpoints"},
		{"version -v", undefined},
		{"-check http://h:1", "unknown subcommand"},
		{"bogus", "unknown subcommand"},
		{"", "unknown subcommand"},
	}
	// A follower's state is the primary's: every flag the old conflict
	// table policed is simply not in follow's set.
	for _, name := range []string{
		"hints", "model", "uniform", "queue", "workers",
		"wal-sync", "drift", "incident-dir",
	} {
		cases = append(cases, [2]string{"follow http://p:1 -" + name + "=1", undefined})
	}
	// The old mode flags, the four deleted knobs, the serve-time bootstrap
	// (now qoadvisor -hints/-model), the trace file (now /v2/traces), the
	// replay values (now constants: the training cadence and the
	// event-log cap), the safeguard and trace tuning (now constants:
	// the drift windows, the incident triggers, the trace cutoff) and the
	// journal's segment size and checkpoint cadence (now constants too)
	// exist nowhere.
	for _, c := range commands {
		operand := ""
		if c.operand != "" {
			operand = " x"
		}
		for _, old := range []string{"follow", "check", "cluster", "push-hints", "replay", "audit", "version", "workers", "shards", "rank-workers", "queue", "bootstrap-days", "templates", "trace-out", "trace-sample", "train-every", "max-log",
			"drift-threshold", "drift-quarantine-after", "drift-restore-after", "drift-max-templates",
			"incident-burn-threshold", "incident-cooldown", "trace-retain-ms",
			"snapshot-every", "wal-segment-mb"} {
			cases = append(cases, [2]string{c.name + operand + " -" + old + "=1", undefined})
		}
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		m, err := parse(strings.Fields(tc[0]), &stderr)
		if err == nil {
			t.Errorf("qoserved %s: parsed as %+v, want a usage error", tc[0], m)
			continue
		}
		if out := stderr.String(); !strings.Contains(out, tc[1]) || !strings.Contains(out, "usage: qoserved") {
			t.Errorf("qoserved %s: stderr lacks %q or the usage text:\n%s", tc[0], tc[1], out)
		}
	}
}

// TestExitCodes runs main itself: usage errors exit 2 before anything
// starts — the deleted replay and check modes and -trace-out among them
// — help and version exit 0.
func TestExitCodes(t *testing.T) {
	for argv, want := range map[string]int{
		"-check http://127.0.0.1:1":           2,
		"follow http://127.0.0.1:1 -hints f":  2,
		"replay out.model":                    2,
		"check http://127.0.0.1:1":            2,
		"serve -trace-out f":                  2,
		"cluster http://127.0.0.1:1 extra":    2,
		"serve -h":                            0,
		"-h":                                  0,
		"version":                             0,
		"cluster http://127.0.0.1:1":          1, // parsed, ran, nothing listening
		"audit asof -wal-dir /nonexistent/qo": 1,
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), childEnv+"="+argv)
		out, err := cmd.CombinedOutput()
		got := 0
		if ee, ok := err.(*exec.ExitError); ok {
			got = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("qoserved %s: exit %d, want %d\n%s", argv, got, want, out)
		}
	}
}

// auditJournal journals a short steering session — ranks, rewards, a
// hint rollover, checkpoints to <dir>/model.snap — and returns the
// directory, one journaled event ID and the last checkpoint's
// watermark. segBytes 1 seals a segment per record, so checkpoints can
// compact the whole history away; that variant installs no hints, since
// a checkpoint re-journals a live hint table above its watermark.
func auditJournal(t *testing.T, segBytes int64) (dir, event string, watermark uint64) {
	t.Helper()
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: segBytes})
	dir = j.Dir()
	snap := filepath.Join(dir, serve.SnapshotFile)
	srv, _, err := serve.Open(serve.Config{Seed: 42, WAL: j})
	if err != nil {
		t.Fatal(err)
	}
	session := func(salt int) {
		for i := 0; i < 6; i++ {
			resp, err := srv.Rank(api.RankRequest{TemplateHash: api.TemplateHash(salt*100 + i), Span: []int{5, 21 + i}})
			if err != nil {
				t.Fatal(err)
			}
			event = resp.EventID
			if n, err := srv.Ingestor().EnqueueBatch([]walrec.RewardEntry{{EventID: event, Value: 0.5}}); n != 1 || err != nil {
				t.Fatalf("reward rejected: %d accepted, %v", n, err)
			}
		}
	}
	session(1)
	if segBytes > 1 {
		if _, err := srv.InstallHints([]sis.Hint{{TemplateHash: 0xa11ce, TemplateID: "T1", Flip: rules.NewCatalog().FlipFor(40), Day: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	for first, next := j.Window(); watermark == 0 || (segBytes == 1 && first < next); first, next = j.Window() {
		info, err := srv.Checkpoint(snap)
		if err != nil {
			t.Fatal(err)
		}
		if watermark = info.LSN; watermark > 100 {
			t.Fatalf("journal never fully compacted (window %d..%d)", first, next)
		}
	}
	if segBytes > 1 {
		session(2) // a suffix above the checkpoint for as-of to replay
	}
	srv.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, event, watermark
}

// runQuiet parses and runs one invocation in-process with stderr
// discarded, and returns what it printed on stdout (the audit queries
// print their rows there).
func runQuiet(t *testing.T, argv ...string) (string, error) {
	t.Helper()
	m, err := parse(argv, new(bytes.Buffer))
	if err != nil {
		t.Fatalf("qoserved %v: %v", argv, err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	defer func(stdout, stderr *os.File) { os.Stdout, os.Stderr = stdout, stderr }(os.Stdout, os.Stderr)
	os.Stdout, os.Stderr = out, null
	runErr := m.run()
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), runErr
}

// TestAuditWritesNothing holds `qoserved audit -h`'s promise that the
// journal directory is "never written": the four offline queries leave
// its file list and every byte in it as they found them.
func TestAuditWritesNothing(t *testing.T) {
	dir, event, _ := auditJournal(t, 512)
	listing := func() map[string][sha256.Size]byte {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][sha256.Size]byte{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = sha256.Sum256(data)
		}
		return files
	}
	before := listing()
	if len(before) < 3 {
		t.Fatalf("journal directory holds %d files; want several segments and a snapshot", len(before))
	}
	for _, argv := range [][]string{
		{"audit", "records", "-wal-dir", dir, "-audit-type", "rank,hint_rollover", "-audit-from", "3"},
		{"audit", "decision", "-wal-dir", dir, "-event", event},
		{"audit", "template", "-wal-dir", dir, "-template-hash", "a11ce"},
		{"audit", "asof", "-wal-dir", dir},
	} {
		if _, err := runQuiet(t, argv...); err != nil {
			t.Fatalf("qoserved %v: %v", argv, err)
		}
		if after := listing(); !reflect.DeepEqual(after, before) {
			t.Fatalf("qoserved %v changed the journal directory:\nbefore %v\nafter  %v", argv[:2], names(before), names(after))
		}
	}
}

func names(files map[string][sha256.Size]byte) []string {
	out := make([]string, 0, len(files))
	for name := range files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestAuditAsOfRejectsCompactedHistory is the offline twin of serve's
// TestAuditAsOfRejectsFullyCompactedHistory — both reach the one rule
// in serve.RecoverAsOf: below the checkpoint the snapshot is from the
// future and the records are gone, so the answer is an error, not a
// model rebuilt from nothing; at the watermark the snapshot alone is
// the answer.
func TestAuditAsOfRejectsCompactedHistory(t *testing.T) {
	dir, _, watermark := auditJournal(t, 1)
	_, err := runQuiet(t, "audit", "asof", "-wal-dir", dir, "-lsn", "2")
	if err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Fatalf("as-of below a fully compacted journal's checkpoint: err = %v, want the compacted-history error", err)
	}
	if _, err := runQuiet(t, "audit", "asof", "-wal-dir", dir, "-lsn", fmt.Sprint(watermark)); err != nil {
		t.Fatalf("as-of at the checkpoint watermark %d: %v", watermark, err)
	}
}

// TestAsOfRefusesCompactedJournal: checkpoints compacted the start of
// the journal, so an as-of without the checkpoint's snapshot would
// rebuild a model missing those records. It is refused with the remedy
// and writes no -audit-out file; with -model the rebuild succeeds.
func TestAsOfRefusesCompactedJournal(t *testing.T) {
	dir, _, _ := auditJournal(t, 512)
	snap := filepath.Join(t.TempDir(), serve.SnapshotFile)
	if err := os.Rename(filepath.Join(dir, serve.SnapshotFile), snap); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.model")
	_, err := runQuiet(t, "audit", "asof", "-wal-dir", dir, "-audit-out", out)
	if err == nil || !strings.Contains(err.Error(), "compacted") || !strings.Contains(err.Error(), "-model") {
		t.Fatalf("as-of of a compacted journal without its snapshot: err = %v, want the compacted-history error naming -model", err)
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Fatalf("refused as-of wrote %s (stat: %v)", out, statErr)
	}
	if _, err := runQuiet(t, "audit", "asof", "-wal-dir", dir, "-model", snap, "-audit-out", out); err != nil {
		t.Fatalf("as-of with the checkpoint snapshot: %v", err)
	}
}

// TestAsOfAuditOutIsTheDigestedModel: -audit-out writes, through the
// journal's atomic file write, exactly the bytes whose sha256 asof
// prints, and leaves nothing else behind; a refused run writes nothing.
func TestAsOfAuditOutIsTheDigestedModel(t *testing.T) {
	dir, _, watermark := auditJournal(t, 1)
	outDir := t.TempDir()
	out := filepath.Join(outDir, "asof.model")
	if _, err := runQuiet(t, "audit", "asof", "-wal-dir", dir, "-lsn", "2", "-audit-out", out); err == nil {
		t.Fatal("as-of below a compacted checkpoint succeeded")
	}
	if entries, _ := os.ReadDir(outDir); len(entries) != 0 {
		t.Fatalf("refused as-of left %d files in the output directory", len(entries))
	}
	printed, err := runQuiet(t, "audit", "asof", "-wal-dir", dir, "-lsn", fmt.Sprint(watermark), "-audit-out", out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("sha256=%x", sha256.Sum256(data)); !strings.Contains(printed, sum) {
		t.Fatalf("written model's %s is not the printed digest:\n%s", sum, printed)
	}
	if entries, _ := os.ReadDir(outDir); len(entries) != 1 {
		t.Fatalf("as-of left %d files in the output directory, want the model alone", len(entries))
	}
	// At a checkpoint LSN the rebuild is that checkpoint's file.
	if want, err := os.ReadFile(filepath.Join(dir, serve.SnapshotFile)); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("as-of at checkpoint LSN %d differs from the checkpoint's snapshot (read err %v)", watermark, err)
	}
}

// TestAsOfAtJournalEndLeavesRewardsPending pins what folding the old
// offline replay into audit asof dropped: replay was as-of at the
// journal end plus one training pass over the pending rewards. The
// as-of file keeps those rewards pending — a server started from it
// trains them at its next boundary — and that one pass is all that
// separates it from Recover's model.
func TestAsOfAtJournalEndLeavesRewardsPending(t *testing.T) {
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync})
	dir := j.Dir()
	srv, _, err := serve.Open(serve.Config{Seed: 42, WAL: j})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for i := 0; i < 6; i++ { // below the training cadence: all 6 pending at the journal end
		resp, err := srv.Rank(api.RankRequest{TemplateHash: api.TemplateHash(i + 1), Span: []int{5, 21 + i}})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := srv.Ingestor().EnqueueBatch([]walrec.RewardEntry{{EventID: resp.EventID, Value: 0.5}}); n != 1 || err != nil {
			t.Fatalf("reward rejected: %d accepted, %v", n, err)
		}
	}
	srv.Ingestor().Quiesce()()

	out := filepath.Join(t.TempDir(), "asof.model")
	if _, err := runQuiet(t, "audit", "asof", "-wal-dir", dir, "-audit-out", out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := bandit.Load(f, 42)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := svc.Train(); n == 0 {
		t.Fatal("as-of at the journal end left no reward pending; the journal tests nothing")
	}
	rec, err := serve.Recover(wal.DirSource{Dir: dir}, filepath.Join(dir, serve.SnapshotFile), 0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := svc.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := rec.Service.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("as-of file plus one Train differs from Recover's model")
	}
}

// TestClusterFailsOnDegradedNode: cluster is the node gate. A node
// whose /v2/healthz answers 503 "degraded" — a stale follower — is
// reachable, prints its detail, and fails the run; a healthy one passes.
func TestClusterFailsOnDegradedNode(t *testing.T) {
	srv := serve.New(serve.Config{Seed: 1})
	healthy, _ := nodetest.Serve(t, srv)
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc(api.RouteV2Healthz, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, `{"status":%q}`, api.HealthDegraded)
	})
	degraded := httptest.NewServer(mux)
	t.Cleanup(degraded.Close)

	if printed, err := runQuiet(t, "cluster", healthy.URL); err != nil || !strings.Contains(printed, "health:     ok") {
		t.Fatalf("cluster over one healthy node: err = %v\n%s", err, printed)
	}
	printed, err := runQuiet(t, "cluster", healthy.URL+","+degraded.URL)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 nodes unreachable or degraded") {
		t.Fatalf("cluster with a degraded node: err = %v, want the gate to fail", err)
	}
	if !strings.Contains(printed, "health:     degraded") {
		t.Fatalf("cluster did not print the degraded node's health:\n%s", printed)
	}
}

// TestServingBinariesDoNotLinkSimulator holds the line between the two
// programs of the deployment: the steering service reads the offline
// pipeline's hint and model files and links none of the simulator that
// produces them. cmd/qobench is exempt: its pipeline_day workload runs
// the pipeline in-process.
func TestServingBinariesDoNotLinkSimulator(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	simulator := map[string]bool{}
	for _, name := range []string{"scope", "optimizer", "exec", "workload", "flighting", "regression", "span", "core"} {
		simulator["qoadvisor/internal/"+name] = true
	}
	for _, pkg := range []string{"./cmd/qoserved", "./cmd/qoload", "./internal/serve", "./internal/replicate"} {
		cmd := exec.Command(goTool, "list", "-deps", pkg)
		cmd.Dir = "../.."
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, dep := range strings.Fields(string(out)) {
			if simulator[dep] {
				t.Errorf("%s links simulator package %s", pkg, dep)
			}
		}
	}
}
