package bandit

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Save serializes the service's state: configuration, non-zero
// weights, the WAL watermark (the journal position the weights cover),
// and the open rank events still awaiting rewards. Trained telemetry
// is not saved — it lives in the journal — but open events must
// travel with the snapshot or rewards that straddle a checkpoint
// boundary would be lost on replay: the suffix holds the reward
// record, the snapshot holds the event it names.
//
// The format is v3: a header with the wal= field, weight lines, and
// "ev" lines for open events. Load rejects the pre-WAL v1/v2 headers.
func (s *Service) Save(w io.Writer) error {
	// Serialize under the locks into a buffer, then stream lock-free:
	// writing directly to a slow consumer (e.g. an HTTP response) under
	// the lock would let one client stall training and, through the
	// writer-pending RWMutex semantics, all concurrent Rank calls.
	var buf bytes.Buffer
	s.evMu.Lock()
	s.encodeLocked(&buf)
	s.evMu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// CheckpointTo is Save for the recovery path: it first advances the
// WAL watermark to the journal's current end, atomically with the
// state encode (evMu blocks ranks, so no record can slip between the
// watermark read and the snapshot). The caller must have quiesced
// reward ingestion and flushed training first — the serve layer's
// checkpoint barrier — or journaled-but-unapplied rewards below the
// watermark would be skipped on replay.
func (s *Service) CheckpointTo(w io.Writer) error {
	var buf bytes.Buffer
	s.evMu.Lock()
	if s.journal != nil {
		s.walLSN = s.journal.LastLSN()
	}
	s.encodeLocked(&buf)
	s.evMu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// encodeLocked writes the v3 snapshot form; callers hold evMu (mu is
// read-locked inside — evMu→mu nests in that order everywhere). Lines
// are appended with strconv into the buffer's own spare capacity — the
// bytes %d, %g, %v and %x would print, without boxing an operand per
// weight.
func (s *Service) encodeLocked(buf *bytes.Buffer) {
	const maxNum = 24 // longest rendering of an int64, uint64 or float64
	buf.Grow(64 + 5*maxNum)
	b := append(buf.AvailableBuffer(), "qoadvisor-bandit v3 dim="...)
	b = strconv.AppendInt(b, int64(s.cfg.Dim), 10)
	b = append(b, " epsilon="...)
	b = strconv.AppendFloat(b, s.cfg.Epsilon, 'g', -1, 64)
	b = append(b, " lr="...)
	b = strconv.AppendFloat(b, s.cfg.LearningRate, 'g', -1, 64)
	b = append(b, " clip="...)
	b = strconv.AppendFloat(b, s.cfg.MaxIPSWeight, 'g', -1, 64)
	b = append(b, " wal="...)
	b = strconv.AppendUint(b, s.walLSN, 10)
	b = append(b, '\n')
	buf.Write(b)

	s.mu.RLock()
	for i, wgt := range s.w {
		if wgt == 0 {
			continue
		}
		buf.Grow(2*maxNum + 2)
		b = strconv.AppendInt(buf.AvailableBuffer(), int64(i), 10)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, wgt, 'g', -1, 64)
		b = append(b, '\n')
		buf.Write(b)
	}
	s.mu.RUnlock()

	for _, ev := range s.log {
		if ev == nil {
			continue
		}
		if _, open := s.events[ev.EventID]; !open || ev.Trained {
			continue
		}
		ctxIDs, actIDs := ev.Context.IDs, ev.Actions[ev.Chosen].IDs
		buf.Grow(len("ev ") + len(ev.EventID) + 2*maxNum + (len(ctxIDs)+len(actIDs))*17 + 10)
		b = append(buf.AvailableBuffer(), "ev "...)
		b = append(b, ev.EventID...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, ev.Prob, 'g', -1, 64)
		if ev.Rewarded {
			b = append(b, " 1 "...)
		} else {
			b = append(b, " 0 "...)
		}
		b = strconv.AppendFloat(b, ev.Reward, 'g', -1, 64)
		b = append(b, ' ')
		b = appendIDs(b, ctxIDs)
		b = append(b, ' ')
		b = appendIDs(b, actIDs)
		b = append(b, '\n')
		buf.Write(b)
	}
}

// appendIDs renders a feature-ID list as comma-joined hex ("-" when
// empty, so the line always has a fixed field count).
func appendIDs(dst []byte, ids []uint64) []byte {
	if len(ids) == 0 {
		return append(dst, '-')
	}
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, id, 16)
	}
	return dst
}

// countIDs returns how many IDs an appendIDs list holds.
func countIDs(list string) int {
	if list == "-" {
		return 0
	}
	return strings.Count(list, ",") + 1
}

// parseIDsInto parses an appendIDs list into dst, which holds
// countIDs(list) IDs ("-" holds none).
func parseIDsInto(dst []uint64, list string) error {
	for i := range dst {
		p, rest, _ := strings.Cut(list, ",")
		v, err := strconv.ParseUint(p, 16, 64)
		if err != nil {
			return fmt.Errorf("bad feature ID %q", p)
		}
		dst[i], list = v, rest
	}
	return nil
}

// maxLoadDim bounds the weight dimension Load allocates on a header's
// say-so (a snapshot arrives over the network on a follower): 64 times
// the default, 128 MiB of weights.
const maxLoadDim = 1 << 24

// Load restores a service saved with Save. The seed drives the
// restored service's exploration randomness (exploration state is not
// part of the model).
func Load(r io.Reader, seed int64) (*Service, error) {
	sc := bufio.NewScanner(r)
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
	svc := New(Config{Dim: dim, Epsilon: eps, LearningRate: lr, MaxIPSWeight: clip, Seed: seed})
	svc.walLSN = walLSN
	line := 1
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		idxField, wgtField, ok := weightFields(text)
		if !ok {
			parts := strings.Fields(string(text))
			if parts[0] == "ev" {
				if err := svc.loadEventLine(parts); err != nil {
					return nil, fmt.Errorf("bandit: line %d: %w", line, err)
				}
				continue
			}
			if len(parts) != 2 {
				return nil, fmt.Errorf("bandit: line %d: want 'index weight'", line)
			}
			idxField, wgtField = []byte(parts[0]), []byte(parts[1])
		}
		// Neither parse keeps its operand, so the conversions of a
		// number's few bytes stay off the heap.
		idx, err := strconv.Atoi(string(idxField))
		if err != nil || idx < 0 || idx >= dim {
			return nil, fmt.Errorf("bandit: line %d: bad index %q", line, idxField)
		}
		wgt, err := strconv.ParseFloat(string(wgtField), 64)
		if err != nil {
			return nil, fmt.Errorf("bandit: line %d: bad weight %q", line, wgtField)
		}
		if svc.w == nil {
			svc.w = make([]float64, dim)
		}
		svc.w[idx] = wgt
	}
	return svc, sc.Err()
}

// weightFields splits a trimmed snapshot line into the two fields of a
// weight line, "<index> <weight>", in place. It reports false for
// every other line — one with a byte outside ASCII, another number of
// fields, or an "ev" first field — which Load splits with
// strings.Fields instead: on an ASCII line the two split at the same
// six bytes, and past ASCII only strings.Fields knows the Unicode
// spaces.
func weightFields(line []byte) (idx, wgt []byte, ok bool) {
	end := -1 // of the first field
	for k, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return nil, nil, false
		case c == ' ' || '\t' <= c && c <= '\r':
			if wgt != nil {
				return nil, nil, false // a third field follows
			}
			if end < 0 {
				end = k
			}
		case end >= 0 && wgt == nil:
			wgt = line[k:]
		}
	}
	if wgt == nil || string(line[:end]) == "ev" {
		return nil, nil, false
	}
	return line[:end], wgt, true
}

// loadEventLine logs one open-event snapshot line, "ev <id> <prob>
// <rewarded> <reward> <ctxIDs> <actIDs>", parsing its ID lists straight
// into the room restoreLocked carves.
func (s *Service) loadEventLine(parts []string) error {
	if len(parts) != 7 {
		return fmt.Errorf("event line has %d fields, want 7", len(parts))
	}
	prob, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return fmt.Errorf("bad prob %q", parts[2])
	}
	rewarded := false
	switch parts[3] {
	case "0":
	case "1":
		rewarded = true
	default:
		return fmt.Errorf("bad rewarded flag %q", parts[3])
	}
	reward, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return fmt.Errorf("bad reward %q", parts[4])
	}
	s.evMu.Lock()
	defer s.evMu.Unlock()
	ev := s.restoreLocked([]byte(parts[1]), countIDs(parts[5]), countIDs(parts[6]))
	if err := parseIDsInto(ev.Context.IDs, parts[5]); err != nil {
		return err
	}
	if err := parseIDsInto(ev.Actions[0].IDs, parts[6]); err != nil {
		return err
	}
	ev.Prob, ev.Reward, ev.Rewarded = prob, reward, rewarded
	s.logLocked(ev)
	return nil
}
