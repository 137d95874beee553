package bandit

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"qoadvisor/internal/budget"
)

// trainedService builds a service with learned, non-trivial weights.
func trainedService(t *testing.T) (*Service, Context, []Action) {
	t.Helper()
	svc := New(Config{Dim: 1 << 12, Epsilon: 0.2, LearningRate: 0.1, MaxIPSWeight: 20, Seed: 3})
	ctx := Context{IDs: HashFeatures([]string{"span:3", "span:17", "rows:5"})}
	actions := []Action{
		{ID: "noop", IDs: HashFeatures([]string{"act:noop"})},
		{ID: "+R010", IDs: HashFeatures([]string{"rule:10", "cat:off-by-default"})},
		{ID: "-R042", IDs: HashFeatures([]string{"rule:42", "cat:on-by-default"})},
	}
	for i := 0; i < 40; i++ {
		ranked, err := svc.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Reward(ranked.EventID, 1.0+0.3*float64(ranked.Chosen)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			svc.Train()
		}
	}
	svc.Train()
	return svc, ctx, actions
}

// TestSaveLoadPreservesScoresAndPropensities complements the basic
// round-trip test in bandit_test.go: beyond bit-identical scores, the
// restored config must reproduce the original's rank propensities, and a
// resave must be byte-identical.
func TestSaveLoadPreservesScoresAndPropensities(t *testing.T) {
	svc, ctx, actions := trainedService(t)

	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), 99)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Scores must be bit-identical: the model is fully determined by the
	// saved weights and config.
	for _, a := range actions {
		want, got := svc.Score(ctx, a), loaded.Score(ctx, a)
		if want != got {
			t.Errorf("Score(%s): loaded %v, want %v", a.ID, got, want)
		}
	}

	// A second save of the loaded service reproduces the same bytes.
	// (Checked before any new ranks: v3 snapshots carry open events, so
	// ranking would legitimately grow the saved state.)
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("save(load(save(x))) != save(x)")
	}

	// Propensities must round-trip too: with the same epsilon and action
	// count, greedy and exploratory ranks report the same probabilities.
	k := float64(len(actions))
	wantGreedy := (1 - 0.2) + 0.2/k
	seenGreedy := false
	for i := 0; i < 50; i++ {
		r, err := loaded.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if r.Prob != wantGreedy && r.Prob != 0.2/k {
			t.Fatalf("Rank prob = %v, want %v (greedy) or %v (explore)", r.Prob, wantGreedy, 0.2/k)
		}
		if r.Prob == wantGreedy {
			seenGreedy = true
		}
	}
	if !seenGreedy {
		t.Error("loaded service never ranked greedily in 50 tries")
	}
	u, err := loaded.RankUniform(ctx, actions)
	if err != nil {
		t.Fatal(err)
	}
	if u.Prob != 1/k {
		t.Errorf("RankUniform prob = %v, want %v", u.Prob, 1/k)
	}
}

// TestLoadMalformedEdgeCases extends TestLoadErrors with the header and
// index shapes the serve layer can encounter on a corrupted snapshot.
func TestLoadMalformedEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"truncated header", "qoadvisor-bandit v3 dim=4096\n"},
		{"wrong field count", "qoadvisor-bandit v3 dim=4096 epsilon=0.1 lr=0.05 clip=50 wal=0\n12 0.5 extra\n"},
		{"negative index", "qoadvisor-bandit v3 dim=4096 epsilon=0.1 lr=0.05 clip=50 wal=0\n-3 0.5\n"},
		{"index equals dim", "qoadvisor-bandit v3 dim=4096 epsilon=0.1 lr=0.05 clip=50 wal=0\n4096 0.5\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tc.data), 1); err == nil {
				t.Errorf("Load(%q) succeeded, want error", tc.data)
			}
		})
	}
}

func TestLoadSkipsBlankLinesAndRestoresConfig(t *testing.T) {
	data := "qoadvisor-bandit v3 dim=1024 epsilon=0.25 lr=0.07 clip=30 wal=0\n" +
		"5 1.5\n\n   \n9 -0.25\n"
	svc, err := Load(strings.NewReader(data), 1)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wantHeader := "qoadvisor-bandit v3 dim=1024 epsilon=0.25 lr=0.07 clip=30 wal=0"
	if got := strings.SplitN(buf.String(), "\n", 2)[0]; got != wantHeader {
		t.Errorf("resaved header = %q, want %q", got, wantHeader)
	}
	for _, want := range []string{"5 1.5\n", "9 -0.25\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("resaved model missing %q:\n%s", want, buf.String())
		}
	}
	if n := strings.Count(buf.String(), "\n"); n != 3 {
		t.Errorf("resaved model has %d lines, want 3:\n%s", n, buf.String())
	}
}

// TestLoadRejectsUnknownVersion: only v3 loads. The pre-WAL v1/v2
// headers are refused like any other version — v1 weights were indexed
// by a different hashing and would score unrelated feature pairs.
func TestLoadRejectsUnknownVersion(t *testing.T) {
	for _, header := range []string{
		"qoadvisor-bandit v4 dim=1024 epsilon=0.25 lr=0.07 clip=30 wal=0\n",
		"qoadvisor-bandit v2 dim=1024 epsilon=0.25 lr=0.07 clip=30\n5 1.5\n",
		"qoadvisor-bandit v1 dim=1024 epsilon=0.25 lr=0.07 clip=30\n5 1.5\n",
	} {
		_, err := Load(strings.NewReader(header), 1)
		if err == nil || !strings.Contains(err.Error(), "unsupported model version") {
			t.Errorf("Load(%q) = %v, want an unsupported-version error", header, err)
		}
	}
}

func TestLoadRejectsV3WithoutWALField(t *testing.T) {
	data := "qoadvisor-bandit v3 dim=1024 epsilon=0.25 lr=0.07 clip=30\n"
	if _, err := Load(strings.NewReader(data), 1); err == nil {
		t.Error("v3 snapshot without wal= field should be rejected")
	}
}

// TestLoadAllocsPerWeightLine gates what Load allocates per weight line:
// it splits and parses each line in the scanner's buffer, so a dense
// snapshot of the default Dim — every one of 2^18 weights a line — costs
// the header, the service and the weight vector, and nothing per line.
func TestLoadAllocsPerWeightLine(t *testing.T) {
	s := New(DefaultConfig(1))
	s.w = make([]float64, s.cfg.Dim)
	for i := range s.w {
		s.w[i] = float64(i%977-488) / 7 * float64(int64(1)<<(i%40))
		if s.w[i] == 0 {
			s.w[i] = 1e-300
		}
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	var loaded *Service
	budget.Gate(t, "bandit.load_per_line", func() float64 {
		return testing.AllocsPerRun(3, func() {
			var err error
			if loaded, err = Load(bytes.NewReader(snap.Bytes()), 1); err != nil {
				t.Fatal(err)
			}
		}) / float64(s.cfg.Dim)
	})
	if !slices.Equal(loaded.w, s.w) {
		t.Fatal("Load restored other weights than the snapshot's")
	}
}
