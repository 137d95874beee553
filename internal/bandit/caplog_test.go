package bandit

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
)

// openEventIDs returns the IDs of the events Events reports, in order.
func openEventIDs(s *Service) []string {
	var ids []string
	for _, ev := range s.Events() {
		ids = append(ids, ev.EventID)
	}
	return ids
}

// checkpointEvents returns the ID and rewarded flag of every ev line of
// a CheckpointTo snapshot, in order.
func checkpointEvents(t *testing.T, s *Service) (ids []string, rewarded []bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := s.CheckpointTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 3 && f[0] == "ev" {
			ids = append(ids, f[1])
			rewarded = append(rewarded, f[3] == "1")
		}
	}
	return ids, rewarded
}

// TestCappedLogReleasesTrainedEvents: in a capped log a trained event
// leaves Events and CounterfactualValue, while LogSize still counts its
// slot.
func TestCappedLogReleasesTrainedEvents(t *testing.T) {
	s := New(Config{Dim: 1 << 10, Seed: 1})
	s.SetMaxLog(64)
	var open []string
	for i := 0; i < 40; i++ {
		ctx, actions := spanDecision(uint64(i), 2+i%7)
		r, err := s.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			open = append(open, r.EventID)
			continue
		}
		if err := s.Reward(r.EventID, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Events()); got != 40 {
		t.Fatalf("Events before Train = %d, want 40", got)
	}
	if n := s.Train(); n != 20 {
		t.Fatalf("Train consumed %d events, want 20", n)
	}
	if got := openEventIDs(s); !slices.Equal(got, open) {
		t.Errorf("Events after Train = %v, want the unrewarded %v", got, open)
	}
	for _, ev := range s.Events() {
		if ev.Trained || len(ev.Context.IDs) == 0 || len(ev.Actions) == 0 {
			t.Errorf("event %s: trained %v with %d context IDs and %d actions, want an open event with its features",
				ev.EventID, ev.Trained, len(ev.Context.IDs), len(ev.Actions))
		}
	}
	if got := s.LogSize(); got != 40 {
		t.Errorf("LogSize after Train = %d, want 40: a trained event keeps its slot", got)
	}
	if _, err := s.CounterfactualValue(s.Events(), s.GreedyPolicy()); err == nil {
		t.Error("CounterfactualValue over a capped log of trained and open events succeeded, want no rewarded events")
	}
}

// TestCappedLogEvictionMatchesOracle runs a script of prompt, late and
// never-rewarded decisions through a capped log, training now and then,
// and holds the index and the snapshot's open events to a positional
// oracle after every step: eviction drops the oldest slots once the log
// passes 1.25 × the cap, whether their events were trained or not.
func TestCappedLogEvictionMatchesOracle(t *testing.T) {
	const maxLog, decisions = 32, 300
	s := New(Config{Dim: 1 << 10, Seed: 5})
	s.SetMaxLog(maxLog)

	// The oracle: every decision's ID in log order, how many of the
	// oldest eviction has dropped, and each event's state.
	type state struct{ indexed, rewarded, trained bool }
	var (
		ids   []string
		base  int
		st    = map[string]*state{}
		late  = map[int][]string{} // decision index → IDs rewarded then
		fresh []string             // rewarded, not yet trained
	)
	reward := func(id string) {
		err := s.Reward(id, 0.5)
		if want := st[id].indexed; (err == nil) != want {
			t.Fatalf("Reward(%s) = %v, oracle says known = %v", id, err, want)
		}
		if err == nil && !st[id].rewarded {
			st[id].rewarded = true
			fresh = append(fresh, id)
		}
	}
	check := func(step int) {
		t.Helper()
		if got := s.LogSize(); got != len(ids)-base {
			t.Fatalf("step %d: LogSize = %d, oracle %d", step, got, len(ids)-base)
		}
		for _, id := range ids {
			if got := s.HasEvent(id); got != st[id].indexed {
				t.Fatalf("step %d: HasEvent(%s) = %v, oracle %v", step, id, got, st[id].indexed)
			}
		}
		var wantIDs []string
		var wantRewarded []bool
		for _, id := range ids[base:] {
			if e := st[id]; e.indexed && !e.trained {
				wantIDs = append(wantIDs, id)
				wantRewarded = append(wantRewarded, e.rewarded)
			}
		}
		gotIDs, gotRewarded := checkpointEvents(t, s)
		if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotRewarded, wantRewarded) {
			t.Fatalf("step %d: snapshot ev lines %v %v, oracle %v %v", step, gotIDs, gotRewarded, wantIDs, wantRewarded)
		}
		if got := openEventIDs(s); !slices.Equal(got, wantIDs) {
			t.Fatalf("step %d: Events = %v, oracle %v", step, got, wantIDs)
		}
	}

	for i := 0; i < decisions; i++ {
		ctx, actions := spanDecision(uint64(i)+0x0c1e, 2+i%7)
		r, err := s.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.EventID)
		st[r.EventID] = &state{indexed: true}
		if len(ids)-base > maxLog+maxLog/4 {
			for _, id := range ids[base : len(ids)-maxLog] {
				if !st[id].rewarded {
					st[id].indexed = false
				}
			}
			base = len(ids) - maxLog
		}
		switch i % 5 {
		case 0, 1: // prompt
			reward(r.EventID)
		case 2: // late, by a delay that straddles the eviction horizon
			late[i+10+i%40] = append(late[i+10+i%40], r.EventID)
		} // 3, 4: never rewarded
		for _, id := range late[i] {
			reward(id)
		}
		if i%13 == 12 {
			if n := s.Train(); n != len(fresh) {
				t.Fatalf("step %d: Train consumed %d events, oracle %d", i, n, len(fresh))
			}
			for _, id := range fresh {
				st[id].trained, st[id].indexed = true, false
			}
			fresh = fresh[:0]
		}
		check(i)
	}
}

// TestCappedLogTrainsEvictedPending: an accepted reward whose event
// eviction has already pushed out of the log is trained as if it were
// still there, and released without touching the log.
func TestCappedLogTrainsEvictedPending(t *testing.T) {
	capped := New(Config{Dim: 1 << 10, Seed: 2})
	capped.SetMaxLog(8)
	uncapped := New(Config{Dim: 1 << 10, Seed: 2})
	var first string
	for i := 0; i < 12; i++ {
		ctx, actions := spanDecision(uint64(i)+0xe71c, 3)
		r, err := capped.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		ur, err := uncapped.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r.EventID
			if err := capped.Reward(r.EventID, 1); err != nil {
				t.Fatal(err)
			}
			if err := uncapped.Reward(ur.EventID, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The twelfth rank passed 1.25 × 8 and evicted the four oldest slots.
	if slices.Contains(openEventIDs(capped), first) || !capped.HasEvent(first) {
		t.Fatalf("the rewarded first event should be evicted from the log and still pending")
	}
	ev := capped.events[first]
	logBefore, sizeBefore := openEventIDs(capped), capped.LogSize()
	if n := capped.Train(); n != 1 {
		t.Fatalf("Train consumed %d events, want the evicted pending one", n)
	}
	uncapped.Train()
	if got := openEventIDs(capped); !slices.Equal(got, logBefore) || capped.LogSize() != sizeBefore {
		t.Errorf("training an evicted event changed the log: %v (%d slots), was %v (%d)", got, capped.LogSize(), logBefore, sizeBefore)
	}
	if capped.HasEvent(first) || !ev.Trained || ev.Context.IDs != nil || ev.Actions != nil {
		t.Errorf("the evicted event after Train: indexed %v, trained %v, %d context IDs, %d actions; want it trained and released",
			capped.HasEvent(first), ev.Trained, len(ev.Context.IDs), len(ev.Actions))
	}
	if !slices.Equal(capped.w, uncapped.w) {
		t.Error("the evicted pending event trained other weights than the same event in an uncapped log")
	}
}

// TestUncappedLogReleasesTrainedEvents: the offline pipeline's
// uncapped log releases every event Train consumes, as a capped one
// does — it leaves Events, its slot is emptied and its features let go —
// while LogSize still counts the slot. What Events returned before
// Train keeps its features, so off-policy evaluation over it reads the
// same value after Train as before.
func TestUncappedLogReleasesTrainedEvents(t *testing.T) {
	s := New(Config{Dim: 1 << 10, Seed: 3})
	type decision struct {
		ctx     []uint64
		actions []Action
	}
	var want []decision
	var open []string
	for i := 0; i < 60; i++ {
		ctx, actions := spanDecision(uint64(i)+0x0ff1, 2+i%7)
		r, err := s.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if i%6 == 5 {
			open = append(open, r.EventID)
			continue
		}
		want = append(want, decision{slices.Clone(ctx.IDs), actions})
		if err := s.Reward(r.EventID, float64(r.Chosen%2)); err != nil {
			t.Fatal(err)
		}
	}
	var collected, logged []*Event
	for _, ev := range s.Events() {
		if ev.Rewarded {
			collected, logged = append(collected, ev), append(logged, s.events[ev.EventID])
		}
	}
	firstAction := func(Context, []Action) int { return 0 }
	before, err := s.CounterfactualValue(collected, firstAction)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Train(); n != 50 {
		t.Fatalf("Train consumed %d events, want 50", n)
	}
	if got := openEventIDs(s); !slices.Equal(got, open) {
		t.Errorf("Events after Train = %v, want the unrewarded %v", got, open)
	}
	if got := s.LogSize(); got != 60 {
		t.Errorf("LogSize after Train = %d, want 60: a trained event keeps its slot", got)
	}
	for i, ev := range logged {
		if !ev.Trained || ev.Context.IDs != nil || ev.Actions != nil || s.log[ev.pos] != nil {
			t.Fatalf("logged event %d after Train: trained %v, %d context IDs, %d actions, slot kept %v; want it trained and released",
				i, ev.Trained, len(ev.Context.IDs), len(ev.Actions), s.log[ev.pos] != nil)
		}
	}
	for i, ev := range collected {
		if !slices.Equal(ev.Context.IDs, want[i].ctx) || !slices.EqualFunc(ev.Actions, want[i].actions, func(a, b Action) bool {
			return a.ID == b.ID && slices.Equal(a.IDs, b.IDs)
		}) {
			t.Fatalf("collected event %d after Train: context %x, %d actions; want its own features", i, ev.Context.IDs, len(ev.Actions))
		}
	}
	after, err := s.CounterfactualValue(collected, firstAction)
	if err != nil {
		t.Fatalf("CounterfactualValue after Train: %v", err)
	}
	if after != before {
		t.Errorf("CounterfactualValue of a fixed policy moved across Train: %v, was %v", after, before)
	}
	if _, err := s.CounterfactualValue(collected, s.GreedyPolicy()); err != nil {
		t.Errorf("CounterfactualValue of the greedy policy after Train: %v", err)
	}
}

// TestForgetDropsOpenEvent: Forget takes an open, unrewarded event out
// of the index, Events and the snapshot, keeps its slot and releases its
// features; a late reward for it is unknown. It refuses an unknown, a
// rewarded and an already forgotten event, and moves no weight.
func TestForgetDropsOpenEvent(t *testing.T) {
	s := New(Config{Dim: 1 << 10, Seed: 4})
	var ids []string
	for i := 0; i < 6; i++ {
		ctx, actions := spanDecision(uint64(i)+0xf06e, 3)
		r, err := s.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.EventID)
	}
	if err := s.Reward(ids[1], 1); err != nil {
		t.Fatal(err)
	}
	ev := s.events[ids[2]]
	if !s.Forget(ids[2]) {
		t.Fatal("Forget refused an open event")
	}
	if s.Forget(ids[2]) || s.Forget(ids[1]) || s.Forget("ev-unknown") {
		t.Error("Forget acted on a forgotten, a rewarded or an unknown event")
	}
	if s.HasEvent(ids[2]) || s.Reward(ids[2], 1) == nil {
		t.Error("a forgotten event still takes a reward")
	}
	if ev.Context.IDs != nil || ev.Actions != nil || s.log[ev.pos] != nil {
		t.Errorf("the forgotten event keeps %d context IDs, %d actions, its slot %v", len(ev.Context.IDs), len(ev.Actions), s.log[ev.pos] != nil)
	}
	want := []string{ids[0], ids[1], ids[3], ids[4], ids[5]}
	if got := openEventIDs(s); !slices.Equal(got, want) {
		t.Errorf("Events = %v, want %v", got, want)
	}
	if got, _ := checkpointEvents(t, s); !slices.Equal(got, want) {
		t.Errorf("snapshot ev lines %v, want %v", got, want)
	}
	if s.LogSize() != 6 {
		t.Errorf("LogSize = %d, want 6: a forgotten event keeps its slot", s.LogSize())
	}
	if n := s.Train(); n != 1 || !s.HasEvent(ids[0]) {
		t.Errorf("Train consumed %d events, want the one rewarded", n)
	}
}

// TestForgetOnJournaledLearnerChangesNothing: the journal holds every
// rank record and no record of a Forget, so replay would restore what
// Forget dropped. A learner with a journal attached refuses, and its
// index, Events and snapshot stay as they were.
func TestForgetOnJournaledLearnerChangesNothing(t *testing.T) {
	s := New(Config{Dim: 1 << 10, Seed: 4})
	s.AttachJournal(&memJournal{})
	var ids []string
	for i := 0; i < 6; i++ {
		ctx, actions := spanDecision(uint64(i)+0x70a1, 3)
		r, err := s.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.EventID)
	}
	before, events := checkpoint(t, s), openEventIDs(s)
	for _, id := range ids {
		if s.Forget(id) {
			t.Fatalf("Forget(%s) acted on a journaled learner", id)
		}
		if !s.HasEvent(id) {
			t.Fatalf("Forget(%s) took the event out of the index", id)
		}
	}
	if got := openEventIDs(s); !slices.Equal(got, events) || len(got) != 6 {
		t.Errorf("Events = %v, was %v", got, events)
	}
	if after := checkpoint(t, s); !bytes.Equal(after, before) {
		t.Errorf("the snapshot moved:\n%s\nwas\n%s", after, before)
	}
}

// TestCappedLogTrainRace runs Train against Rank, Reward, Events and
// CheckpointTo on a small capped log, so eviction and release
// interleave, and relies on -race for unguarded state. What Events
// returns is never trained and always carries its features.
func TestCappedLogTrainRace(t *testing.T) {
	s := New(Config{Dim: 1 << 12, Seed: 9})
	s.SetMaxLog(64)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				ctx, actions := spanDecision(uint64(g*1000+i), 2+i%7)
				r, err := s.Rank(ctx, actions)
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 != 0 {
					// An error means eviction got there first: allowed.
					_ = s.Reward(r.EventID, float64(i%4)/3)
				}
			}
		}(g)
	}
	var readers sync.WaitGroup
	var sink uint64 // what the Events reader reads of the features
	readers.Add(3)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Train()
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, ev := range s.Events() {
				if ev.Trained || len(ev.Context.IDs) == 0 || len(ev.Actions) == 0 {
					t.Errorf("Events returned %s: trained %v, %d context IDs, %d actions", ev.EventID, ev.Trained, len(ev.Context.IDs), len(ev.Actions))
					return
				}
				sink += ev.Context.IDs[0] + ev.Actions[ev.Chosen].IDs[0]
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := s.CheckpointTo(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	_ = sink
	s.Train()
	if got := s.LogSize(); got > 64+64/4 {
		t.Errorf("LogSize = %d, want <= cap+slack (80)", got)
	}
	for _, ev := range s.Events() {
		if ev.Rewarded {
			t.Errorf("event %s is rewarded and logged after the final Train", ev.EventID)
		}
	}
}
