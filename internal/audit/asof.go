package audit

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/walrec"
)

// AsOfOptions configure a point-in-time reconstruction. They must
// match the serving configuration of the journaled run (same 0-default
// / negative-unbounded semantics as serve.Config) or replay would
// train — or evict — on different boundaries than the live run did.
type AsOfOptions struct {
	// SnapshotPath names a model snapshot to seed replay from. It is
	// used only when it exists AND its WAL watermark is at or below the
	// target LSN; otherwise replay starts from the journal's beginning.
	SnapshotPath string
	// TrainEvery is the ingestion training batch size (0 = default).
	TrainEvery int
	// MaxLogEvents caps the open-event log (0 = serving default 16384,
	// negative = unbounded).
	MaxLogEvents int
	// Seed seeds the reconstructed learner's exploration rng. Replay never
	// draws from it, so the reconstruction's bytes do not depend on it.
	Seed int64
}

// AsOfResult is a reconstructed point-in-time model state.
type AsOfResult struct {
	// LSN is the reconstruction point.
	LSN uint64
	// Snapshot is the model rendered in the snapshot file format — for
	// a target LSN that a live checkpoint was taken at, byte-identical
	// to that checkpoint's file.
	Snapshot []byte
	// SnapshotSeeded reports whether a snapshot file seeded the replay;
	// FromLSN is its watermark (0 when replay started from the
	// beginning).
	SnapshotSeeded bool
	FromLSN        uint64
	// Replay counts what the journal suffix contributed.
	Replay bandit.ReplayStats
	// HintGen/Hints reflect the newest hint rollover at or below LSN
	// (nil when none is visible in the replayed window).
	HintGen uint64
	Hints   []walrec.Hint
	// Quarantine is the durable safeguard table as of LSN (nil when no
	// quarantine record is visible in the replayed window).
	Quarantine map[uint64]byte
	// Scan describes the journal read that fed the replay.
	Scan ScanStats
}

// AsOf reconstructs what the model believed as of LSN lsn: it loads
// the nearest usable snapshot, replays journal records in
// (watermark, lsn] through the same dispatch the live server recovers
// with, and renders the result in the snapshot format.
//
// Determinism contract: for an LSN at which the live server took a
// checkpoint, the returned bytes are identical to that checkpoint's
// snapshot file. The checkpoint barrier journals a train mark before
// capturing the model, so the mark — and any reward batch straddling
// the boundary — is replayed in-log; no tail flush is applied here
// (stopping exactly at lsn IS the reconstruction; a drain-style extra
// train would reproduce a shutdown, not the asked-for instant).
func (e *Engine) AsOf(lsn uint64, opts AsOfOptions) (*AsOfResult, error) {
	res := &AsOfResult{LSN: lsn}

	var svc *bandit.Service
	if opts.SnapshotPath != "" {
		f, err := os.Open(opts.SnapshotPath)
		switch {
		case err == nil:
			loaded, lerr := bandit.Load(f, opts.Seed)
			f.Close()
			if lerr != nil {
				return nil, fmt.Errorf("audit: loading snapshot %s: %w", opts.SnapshotPath, lerr)
			}
			if loaded.WALWatermark() <= lsn {
				svc = loaded
				res.SnapshotSeeded = true
				res.FromLSN = loaded.WALWatermark()
			}
			// A snapshot from the target's future is useless for this
			// reconstruction: fall through to a from-scratch replay.
		case errors.Is(err, os.ErrNotExist):
			// no snapshot yet: replay from the beginning
		default:
			return nil, fmt.Errorf("audit: %w", err)
		}
	}
	if svc == nil {
		svc = bandit.New(bandit.DefaultConfig(opts.Seed))
	}
	svc.SetMaxLog(bandit.ServingMaxLog(opts.MaxLogEvents))

	rp := bandit.NewReplayer(svc, opts.TrainEvery)
	it, err := e.Run(Query{FromLSN: res.FromLSN + 1, ToLSN: lsn})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch {
		case r.Rec.Tag == walrec.TagHintRollover && r.Rec.HintRollover != nil:
			res.HintGen = r.Rec.HintRollover.Gen
			res.Hints = r.Rec.HintRollover.Hints
			svc.SetWALWatermark(r.LSN)
		case r.Rec.Tag == walrec.TagQuarantine && r.Rec.Quarantine != nil:
			res.Quarantine = r.Rec.Quarantine.States
			svc.SetWALWatermark(r.LSN)
		default:
			// Bandit-owned (and unknown — those must fail loudly) records
			// go through the same Replayer dispatch recovery uses.
			if err := rp.Apply(r.LSN, r.Raw); err != nil {
				return nil, err
			}
		}
	}
	res.Scan = it.Stats()
	res.Replay = rp.Stats

	// A checkpoint records LastLSN at capture time even when the newest
	// records are serve-owned; mirror that so the rendered header's
	// wal= field says lsn, not the last bandit-owned record.
	svc.SetWALWatermark(lsn)

	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		return nil, err
	}
	res.Snapshot = buf.Bytes()
	return res, nil
}
