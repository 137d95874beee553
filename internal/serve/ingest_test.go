package serve

import (
	"testing"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/walrec"
)

func rankEvents(t *testing.T, svc *bandit.Service, n int) []string {
	t.Helper()
	ctx := bandit.Context{IDs: []uint64{1, 9}}
	actions := []bandit.Action{
		{ID: "noop", IDs: []uint64{100}},
		{ID: "+R030", IDs: []uint64{30}},
	}
	ids := make([]string, n)
	for i := range ids {
		r, err := svc.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = r.EventID
	}
	return ids
}

func TestIngestorAppliesAndTrains(t *testing.T) {
	svc := bandit.New(bandit.DefaultConfig(5))
	in := newIngestor(svc, nil, &stageHists{})
	defer in.Close()

	// Two count-based passes, then Drain's flush trains the rest.
	const n = 2*bandit.DefaultTrainEvery + 64
	ids := rankEvents(t, svc, n)
	for _, id := range ids {
		if n, err := in.EnqueueBatch([]walrec.RewardEntry{{EventID: id, Value: 1.5}}); n != 1 || err != nil {
			t.Fatalf("EnqueueBatch(%s) rejected with capacity to spare: %v", id, err)
		}
	}
	in.Drain()

	st := in.Stats()
	if st.Applied != n {
		t.Errorf("Applied = %d, want %d", st.Applied, n)
	}
	if st.Dropped != 0 || st.UnknownEvents != 0 {
		t.Errorf("Dropped=%d Unknown=%d, want 0/0", st.Dropped, st.UnknownEvents)
	}
	if st.TrainedEvents != n {
		t.Errorf("TrainedEvents = %d, want %d (all rewards consumed by training)", st.TrainedEvents, n)
	}
	if st.TrainRuns != 3 {
		t.Errorf("TrainRuns = %d, want 3: two every %d applied rewards, one at Drain", st.TrainRuns, bandit.DefaultTrainEvery)
	}
	// Training must actually have moved the model.
	ctx := bandit.Context{IDs: []uint64{1, 9}}
	a := bandit.Action{ID: "+R030", IDs: []uint64{30}}
	if svc.Score(ctx, a) == 0 {
		t.Error("model weights untouched after ingestion training")
	}
}

func TestIngestorUnknownEvents(t *testing.T) {
	svc := bandit.New(bandit.DefaultConfig(5))
	in := newIngestor(svc, nil, &stageHists{})
	defer in.Close()
	in.EnqueueBatch([]walrec.RewardEntry{{EventID: "ev-no-such", Value: 1.0}})
	in.Drain()
	if st := in.Stats(); st.UnknownEvents != 1 || st.Applied != 0 {
		t.Errorf("Unknown=%d Applied=%d, want 1/0", st.UnknownEvents, st.Applied)
	}
}

// TestIngestorBackpressure uses a worker-less ingestor (white box) so the
// bounded queue fills deterministically.
func TestIngestorBackpressure(t *testing.T) {
	svc := bandit.New(bandit.DefaultConfig(5))
	in := &Ingestor{svc: svc, rp: bandit.NewReplayer(svc), ch: make(chan reward, 2), stages: &stageHists{}}

	ids := rankEvents(t, svc, 3)
	for _, id := range ids[:2] {
		if n, err := in.EnqueueBatch([]walrec.RewardEntry{{EventID: id, Value: 1}}); n != 1 || err != nil {
			t.Fatalf("enqueue into empty queue rejected: %v", err)
		}
	}
	if n, _ := in.EnqueueBatch([]walrec.RewardEntry{{EventID: ids[2], Value: 1}}); n != 0 {
		t.Fatal("enqueue into full queue accepted")
	}
	if st := in.Stats(); st.Dropped != 1 || st.QueueDepth != 2 || st.QueueCap != 2 {
		t.Errorf("stats = %+v, want dropped=1 depth=2 cap=2", st)
	}

	// Starting the drain goroutine empties the backlog.
	in.start()
	in.Drain()
	if st := in.Stats(); st.Applied != 2 {
		t.Errorf("Applied = %d, want 2", st.Applied)
	}
	in.Close()
}

func TestIngestorCloseRejectsAndDrains(t *testing.T) {
	svc := bandit.New(bandit.DefaultConfig(5))
	in := newIngestor(svc, nil, &stageHists{}) // 32 rewards: below the training cadence
	ids := rankEvents(t, svc, 32)
	for _, id := range ids {
		in.EnqueueBatch([]walrec.RewardEntry{{EventID: id, Value: 2.0}})
	}
	in.Close()
	st := in.Stats()
	if st.Applied != 32 {
		t.Errorf("Applied after Close = %d, want 32", st.Applied)
	}
	if st.TrainedEvents != 32 {
		t.Errorf("TrainedEvents after Close = %d, want 32 (final training pass)", st.TrainedEvents)
	}
	if n, _ := in.EnqueueBatch([]walrec.RewardEntry{{EventID: "ev-after-close", Value: 1.0}}); n != 0 {
		t.Error("EnqueueBatch accepted after Close")
	}
	in.Close() // second Close is a no-op
}
