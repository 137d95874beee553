package bandit

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the snapshot v3 loader — a follower
// reads exactly this format off the network, and every restart off disk.
// Load never panics; it accepts an input exactly when referenceLoad, the
// loader that parsed each event line into slices of its own, does, with
// the same error; the events it restores equal the reference's field
// for field; and a snapshot it accepts is stable under the format: what
// Save writes for it loads again and saves to the same bytes. The seeds
// are testdata/parent_v3.snap (weights and 71 open events) and the
// committed corpus (testdata/fuzz/FuzzLoad): a bare header, an event
// line cut short, a weight index at Dim, a zero and an unallocatable
// dimension, and the retired v2 header. The ID lists below are the
// parser's edges, each on a small snapshot the fuzzer mutates quickly.
func FuzzLoad(f *testing.F) {
	parent, err := os.ReadFile("testdata/parent_v3.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	for _, ids := range []string{
		"a,,b", "a,", ",a", ",", "-,1", "1,-", "--", "A,fF", "0x1", "+1",
		"ffffffffffffffff,10000000000000000", "1\t2", "1\u00a02", "1\u00852",
	} {
		f.Add([]byte("qoadvisor-bandit v3 dim=16 epsilon=0.1 lr=0.05 clip=50 wal=7\n3 0.5\n" +
			"ev e1 0.5 1 0.25 " + ids + " 7\nev e2 0.5 0 0 7 " + ids + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		svc, err := Load(bytes.NewReader(data), 1)
		want, refErr := referenceLoad(data)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("Load: %v, reference: %v\n%q", err, refErr, data)
		}
		if err != nil {
			return
		}
		got := svc.Events()
		if len(got) != len(want) {
			t.Fatalf("Load restored %d events, reference %d\n%q", len(got), len(want), data)
		}
		for i := range got {
			if !sameEvent(got[i], want[i]) {
				t.Fatalf("event %d: Load restored %+v, reference %+v\n%q", i, *got[i], *want[i], data)
			}
		}
		// A dimension past the default is accepted, but the round trip
		// below would walk every weight of it twice per input.
		if svc.cfg.Dim > 1<<18 {
			return
		}
		var first bytes.Buffer
		if err := svc.Save(&first); err != nil {
			t.Fatalf("Save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()), 1)
		if err != nil {
			t.Fatalf("Load rejects what Save wrote for an accepted snapshot: %v\n%q", err, data)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save is not a fixed point of load-then-save for %q:\n%s\nthen\n%s", data, first.Bytes(), second.Bytes())
		}
	})
}

// sameEvent compares two events field for field, floats bit for bit.
func sameEvent(a, b *Event) bool {
	return a.EventID == b.EventID &&
		slices.Equal(a.Context.IDs, b.Context.IDs) &&
		len(a.Actions) == 1 && len(b.Actions) == 1 &&
		a.Actions[0].ID == b.Actions[0].ID &&
		slices.Equal(a.Actions[0].IDs, b.Actions[0].IDs) &&
		a.Chosen == b.Chosen &&
		math.Float64bits(a.Prob) == math.Float64bits(b.Prob) &&
		math.Float64bits(a.Reward) == math.Float64bits(b.Reward) &&
		a.Rewarded == b.Rewarded && a.Trained == b.Trained
}

// referenceLoad is Load as it was before snapshot events were stored in
// the log's blocks: the same scan, header and weight checks (weights
// are checked, not kept), and each event line parsed by
// referenceEventLine into an Event of its own. It returns the events in
// file order.
func referenceLoad(data []byte) ([]*Event, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22) // event lines can be long
	if !sc.Scan() {
		return nil, fmt.Errorf("bandit: empty model file")
	}
	header := sc.Text()
	var version, dim int
	var eps, lr, clip float64
	var walLSN uint64
	n, _ := fmt.Sscanf(header, "qoadvisor-bandit v%d dim=%d epsilon=%g lr=%g clip=%g wal=%d",
		&version, &dim, &eps, &lr, &clip, &walLSN)
	if n < 5 {
		return nil, fmt.Errorf("bandit: bad model header %q", header)
	}
	if version != 3 {
		return nil, fmt.Errorf("bandit: unsupported model version v%d", version)
	}
	if n != 6 {
		return nil, fmt.Errorf("bandit: v3 model header missing wal field: %q", header)
	}
	if dim < 1 || dim > maxLoadDim {
		return nil, fmt.Errorf("bandit: model header dim %d out of range [1, %d]", dim, maxLoadDim)
	}
	var events []*Event
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Fields(text)
		if parts[0] == "ev" {
			ev, err := referenceEventLine(parts)
			if err != nil {
				return nil, fmt.Errorf("bandit: line %d: %w", line, err)
			}
			events = append(events, ev)
			continue
		}
		if len(parts) != 2 {
			return nil, fmt.Errorf("bandit: line %d: want 'index weight'", line)
		}
		idx, err := strconv.Atoi(parts[0])
		if err != nil || idx < 0 || idx >= dim {
			return nil, fmt.Errorf("bandit: line %d: bad index %q", line, parts[0])
		}
		if _, err := strconv.ParseFloat(parts[1], 64); err != nil {
			return nil, fmt.Errorf("bandit: line %d: bad weight %q", line, parts[1])
		}
	}
	return events, sc.Err()
}

func referenceIDs(s string) ([]uint64, error) {
	if s == "-" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ids := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad feature ID %q", p)
		}
		ids[i] = v
	}
	return ids, nil
}

// referenceEventLine decodes one open-event snapshot line:
// "ev <id> <prob> <rewarded> <reward> <ctxIDs> <actIDs>".
func referenceEventLine(parts []string) (*Event, error) {
	if len(parts) != 7 {
		return nil, fmt.Errorf("event line has %d fields, want 7", len(parts))
	}
	prob, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, fmt.Errorf("bad prob %q", parts[2])
	}
	rewarded := false
	switch parts[3] {
	case "0":
	case "1":
		rewarded = true
	default:
		return nil, fmt.Errorf("bad rewarded flag %q", parts[3])
	}
	reward, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return nil, fmt.Errorf("bad reward %q", parts[4])
	}
	ctxIDs, err := referenceIDs(parts[5])
	if err != nil {
		return nil, err
	}
	actIDs, err := referenceIDs(parts[6])
	if err != nil {
		return nil, err
	}
	return &Event{
		EventID:  parts[1],
		Context:  Context{IDs: ctxIDs},
		Actions:  []Action{{IDs: actIDs}},
		Chosen:   0,
		Prob:     prob,
		Reward:   reward,
		Rewarded: rewarded,
	}, nil
}
