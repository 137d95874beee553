package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// Applier applies journal records to a learner and, when one is
// attached, a live hint cache — the single record-dispatch path shared
// by crash recovery (offline, cache applied afterwards) and follower
// replication (online, cache updated as records arrive). Bandit-owned
// records (rank, reward batch, train mark) go to a bandit.Replayer
// with its train-boundary accounting; hint-rollover records restore
// the hint table at the journaled generation.
type Applier struct {
	svc   *bandit.Service
	rp    *bandit.Replayer
	cache *HintCache   // nil: hints only accumulate in Hints
	quar  *drift.Table // nil: quarantines only accumulate in Quarantine

	// Hints / HintGen track the newest rollover applied (replay keeps
	// the last one: rollovers are wholesale). Rollovers counts them.
	// Hints is populated only without a live cache (offline recovery,
	// whose caller installs it afterwards); with one attached the cache's
	// table is the node's one copy and Hints stays nil — Cache().Export()
	// reads the table back.
	Hints     []sis.Hint
	HintGen   uint64
	Rollovers int64

	// Quarantine is the durable drift-safeguard table as of the newest
	// quarantine record applied (wholesale, like rollovers: the last
	// record wins). Nil until one is seen — distinguishable from an
	// explicit empty table, which means every template was restored.
	Quarantine        map[uint64]drift.State
	QuarantineRecords int64
}

// NewApplier builds an applier over svc. cache, when non-nil, receives
// hint rollovers as they are applied, and quar, when non-nil, receives
// quarantine-table records (the follower's live mode); trainEvery must
// match the journaled run's ingestion batch size.
func NewApplier(svc *bandit.Service, cache *HintCache, quar *drift.Table, trainEvery int) *Applier {
	return &Applier{svc: svc, rp: bandit.NewReplayer(svc, trainEvery), cache: cache, quar: quar}
}

// Apply consumes one journal record.
func (a *Applier) Apply(lsn uint64, payload []byte) error {
	if len(payload) > 0 && payload[0] == walrec.TagHintRollover {
		gen, hints, err := decodeHintRollover(payload)
		if err != nil {
			return fmt.Errorf("serve: lsn %d: %w", lsn, err)
		}
		a.HintGen = gen
		a.Rollovers++
		if a.cache != nil {
			a.cache.Restore(hints, gen)
		} else {
			a.Hints = hints
		}
		// Hint records advance the covered-state watermark like any other
		// applied record, so a later snapshot supersedes them.
		a.svc.SetWALWatermark(lsn)
		return nil
	}
	if len(payload) > 0 && payload[0] == walrec.TagQuarantine {
		states, _, _, err := decodeQuarantine(payload)
		if err != nil {
			return fmt.Errorf("serve: lsn %d: %w", lsn, err)
		}
		a.Quarantine = states
		a.QuarantineRecords++
		if a.quar != nil {
			a.quar.Replace(states)
		}
		a.svc.SetWALWatermark(lsn)
		return nil
	}
	return a.rp.Apply(lsn, payload)
}

// Finish runs the drain-equivalent tail training flush.
func (a *Applier) Finish() { a.rp.Finish() }

// ReplayStats reports the bandit-side replay counters.
func (a *Applier) ReplayStats() bandit.ReplayStats { return a.rp.Stats() }

// RecoverResult reports what Recover rebuilt.
type RecoverResult struct {
	// Service is the reconstructed learner (never nil on success).
	Service *bandit.Service
	// SnapshotLoaded reports whether a snapshot file seeded the model.
	SnapshotLoaded bool
	// FromLSN is the snapshot's WAL watermark replay started after.
	FromLSN uint64
	// Replay counts what the journal suffix contributed.
	Replay bandit.ReplayStats
	// Journal describes the replay pass (tail truncation etc).
	Journal wal.ReplayInfo
	// Hints is the hint table as of the newest journaled rollover (nil
	// when the journal holds none — pre-rollover crash or a journal from
	// before hint journaling). HintGen is the cache generation it was
	// installed as; HintRollovers counts rollover records replayed.
	Hints         []sis.Hint
	HintGen       uint64
	HintRollovers int64
	// Quarantine is the drift-safeguard table as of the newest
	// quarantine record (nil when the journal holds none);
	// QuarantineRecords counts them.
	Quarantine        map[uint64]drift.State
	QuarantineRecords int64
}

// Recovered reports whether any persisted state was found — when
// false the model is a fresh, untrained learner, and Open serves
// Config.Bandit instead when one is given.
func (r RecoverResult) Recovered() bool {
	return r.SnapshotLoaded || r.Journal.Records > 0
}

// Recover rebuilds a bandit model plus the active hint table from a
// snapshot and the journal suffix above its watermark: the startup
// path of a WAL-backed server and the offline `qoserved replay` mode.
// snapshotPath may be empty or name a file that does not exist yet
// (first boot) — the journal is then replayed from the beginning into
// a fresh learner built with DefaultConfig(seed). A nil src loads the
// snapshot alone (an in-memory server's restart). trainEvery and
// maxLogEvents must match the serving configuration (both with
// Config's 0-default / negative-unbounded semantics) or replay would
// train on different boundaries — or evict different events — than
// the live run did.
//
// Recovery is deterministic: replaying the same snapshot and journal
// yields a bit-identical model, and because one goroutine drains the
// ingestion queue it is also bit-identical to the model the crashed
// process had built (modulo rewards that were never journaled durably, and
// modulo event-log eviction: under cap pressure the live interleaving
// of ranks and reward applies is not recorded, so replay may evict on
// slightly different boundaries). A torn or corrupt journal tail —
// the signature of a crash mid-append — is skipped cleanly and
// reported in the result; damage before the tail fails loudly instead,
// because that is data loss, not a crash artifact, and so does a
// journal compacted past the snapshot's watermark (a missing snapshot).
func Recover(src wal.Source, snapshotPath string, trainEvery, maxLogEvents int, seed int64) (RecoverResult, error) {
	res, ap, err := recoverTo(src, snapshotPath, math.MaxUint64, trainEvery, maxLogEvents, seed)
	if err == nil && res.Journal.Records > 0 {
		// Drain-equivalent tail flush: rewards past the last training
		// boundary train now, exactly as a graceful shutdown would have
		// trained them.
		ap.Finish()
		res.Replay = ap.ReplayStats()
	}
	return res, err
}

// SnapshotFile is the model snapshot's name beside the journal: where a
// WAL-backed primary checkpoints when Config.SnapshotPath is empty.
const SnapshotFile = "model.snap"

// Open is the one way a primary starts from durable state. It rebuilds
// the model from cfg.SnapshotPath plus the cfg.WAL suffix (Recover; the
// snapshot path defaults to SnapshotFile in the journal's directory, and
// without a WAL only the snapshot is loaded) and serves it when anything
// was recovered — otherwise cfg.Bandit, or a fresh learner. The journaled
// quarantine table (enforced whether or not cfg.Drift detects) and then
// the hint table, at its journaled generation, are restored without
// re-journaling, and with a WAL an initial checkpoint covers the served
// state before the first request: a crash before the first periodic
// checkpoint must not lose replayed or cfg.Bandit's pre-journal
// training, and the checkpoint's re-journal carries both tables above
// the new watermark.
// The caller owns the WAL, as with New, and decides what to install over
// the recovered hint table.
func Open(cfg Config) (*Server, RecoverResult, error) {
	var src wal.Source
	if cfg.WAL != nil {
		src = cfg.WAL
		if cfg.SnapshotPath == "" {
			cfg.SnapshotPath = filepath.Join(cfg.WAL.Dir(), SnapshotFile)
		}
	}
	rec, err := Recover(src, cfg.SnapshotPath, cfg.TrainEvery, cfg.MaxLogEvents, cfg.Seed)
	if err != nil {
		return nil, rec, err
	}
	if rec.Recovered() {
		cfg.Bandit = rec.Service
	}
	s := New(cfg)
	// Unconditional: with no record journaled these install the empty
	// tables a fresh server has, and a rollover to an EMPTY table comes
	// back empty at its journaled generation.
	s.guard.restore(rec.Quarantine)
	s.restoreHints(rec.Hints, rec.HintGen)
	if cfg.WAL != nil {
		if _, err := s.Checkpoint(cfg.SnapshotPath); err != nil {
			s.Close()
			return nil, rec, fmt.Errorf("initial checkpoint: %w", err)
		}
	}
	return s, rec, nil
}

// RecoverAsOf rebuilds what the model believed as of journal position
// lsn: Recover with an upper bound. A snapshot whose watermark is above
// lsn is from the target's future and is not loaded; replay stops after
// record lsn; and no tail flush runs — stopping exactly at lsn IS the
// reconstruction, a drain-style extra train would reproduce a shutdown,
// not the asked-for instant. For an lsn a live checkpoint was taken at,
// Service.Save writes that checkpoint's file byte for byte: the
// checkpoint barrier journals its train mark before capturing the
// model, so the mark, and any reward batch straddling the boundary, is
// replayed in-log. The parameters are Recover's; the seed is not among
// them because replay never draws from the exploration rng.
//
// Reconstruction needs the records in (FromLSN, lsn] to still exist;
// recoverTo refuses a window whose start was compacted, and a bound past
// FromLSN with nothing retained above it is the same error here
// (offline remedy: a journal copy taken before the checkpoint).
func RecoverAsOf(src wal.Source, snapshotPath string, lsn uint64, trainEvery, maxLogEvents int) (RecoverResult, error) {
	res, _, err := recoverTo(src, snapshotPath, lsn, trainEvery, maxLogEvents, 0)
	if err != nil {
		return res, err
	}
	if lsn > res.FromLSN && res.Journal.Records == 0 {
		return res, api.Errorf(api.CodeInvalidRequest,
			"journal holds no record above LSN %d (compacted, or %d is past its end); reconstruction at %d needs records from %d",
			res.FromLSN, lsn, lsn, res.FromLSN+1)
	}
	// A checkpoint records LastLSN at capture time even when the newest
	// records are serve-owned; mirror that so the rendered header's wal=
	// field says lsn.
	res.Service.SetWALWatermark(lsn)
	return res, nil
}

// errAsOf ends a bounded replay at its last record.
var errAsOf = errors.New("serve: replay bound reached")

// recoverTo is the one reconstruction behind Recover, RecoverAsOf and
// through them every restart, offline replay and audit as-of: load the
// snapshot unless its watermark is above upTo, then dispatch the
// journal records in (watermark, upTo] into the learner. A nil src
// loads the snapshot alone. A journal whose retained records start
// above watermark+1 is refused: compaction removed records the snapshot
// does not cover, and rebuilding from what is left would silently lose
// them. It hands back the applier so Recover can run the tail flush.
func recoverTo(src wal.Source, snapshotPath string, upTo uint64, trainEvery, maxLogEvents int, seed int64) (RecoverResult, *Applier, error) {
	var res RecoverResult
	if snapshotPath != "" {
		f, err := os.Open(snapshotPath)
		switch {
		case err == nil:
			svc, err := bandit.Load(f, seed)
			f.Close()
			if err != nil {
				return res, nil, fmt.Errorf("loading snapshot %s: %w", snapshotPath, err)
			}
			if svc.WALWatermark() <= upTo {
				res.Service, res.SnapshotLoaded, res.FromLSN = svc, true, svc.WALWatermark()
			}
		case errors.Is(err, os.ErrNotExist):
			// first boot: no snapshot yet
		default:
			return res, nil, err
		}
	}
	if res.Service == nil {
		res.Service = bandit.New(bandit.DefaultConfig(seed))
	}
	// Apply the serving event-log cap before replay so eviction behaves
	// as it did live (serve.New applies the same rule to the learner).
	res.Service.SetMaxLog(bandit.ServingMaxLog(maxLogEvents))

	ap := NewApplier(res.Service, nil, nil, trainEvery)
	if src == nil {
		return res, ap, nil
	}
	info, err := src.Replay(res.FromLSN, func(lsn uint64, payload []byte) error {
		if lsn > upTo {
			return errAsOf
		}
		err := ap.Apply(lsn, payload)
		if err == nil && lsn == upTo {
			err = errAsOf
		}
		return err
	})
	if errors.Is(err, errAsOf) {
		err = nil
	}
	res.Journal = info
	res.Replay = ap.ReplayStats()
	res.Hints, res.HintGen, res.HintRollovers = ap.Hints, ap.HintGen, ap.Rollovers
	res.Quarantine, res.QuarantineRecords = ap.Quarantine, ap.QuarantineRecords
	if err != nil {
		return res, ap, fmt.Errorf("replaying journal: %w", err)
	}
	if info.Records > 0 && info.First != res.FromLSN+1 {
		return res, ap, api.Errorf(api.CodeInvalidRequest,
			"journal history before LSN %d is compacted; reconstruction needs records from %d",
			info.First, res.FromLSN+1)
	}
	return res, ap, nil
}
