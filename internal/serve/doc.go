// Package serve is QO-Advisor's online steering layer: an embeddable,
// concurrency-safe service that answers per-job steering requests at
// compile time and feeds run telemetry back into the contextual bandit.
// It mirrors the deployment architecture of the paper (§4): the daily
// offline pipeline produces rule-flip hints, a production-facing serving
// layer answers "what flip for this job template?" on the hot path from
// a published hint table, and reward telemetry flows asynchronously into
// the Personalizer-style rank/reward learner. The pipeline is another
// program: what reaches serve from it is a SIS hint file and a model
// snapshot, and serve featurizes through internal/featurize, so it links
// none of the simulator.
//
// # Hint table
//
// A node holds one copy of the installed hints: a hintTable (cache.go),
// built in one pass at each rollover and never modified after it is
// published — 32-byte entries in install order, every template ID in one
// string arena, an open-addressed index of entry numbers at load 0.5;
// about 47 bytes a hint at seven-byte IDs, in three allocations. A lookup
// is one pointer load, an index probe and the entry it names, and
// allocates nothing. The table returns exactly the sis.Hint that went in,
// whatever the field values. Nothing keeps a second copy beside it: the
// journal record of a rollover is encoded straight from the caller's
// slice, a checkpoint re-journals from Export, and a follower's Applier
// hands a replicated table to the cache without retaining it.
//
// # Lock hierarchy
//
// State that is only ever replaced whole is published through an atomic
// pointer and takes no lock on the read path: the hint table (HintCache),
// the quarantine enforcement table (drift.Table) and the lazily opened
// audit engine (which holds counters, nothing else). Every other piece
// of shared serving state has one owner and one mutex — seven fields
// across this package and internal/bandit, listed outermost first. A
// goroutine holding one may take only locks listed below it, and of
// those only the ones its "then" names; locks with no such path between
// them never nest. TestLockHierarchyNamesEveryMutex fails when a mutex
// field is added or removed without a line here.
//
//	Server.snapMu        One checkpoint barrier (Checkpoint, follower
//	                     bootstrap) at a time. Then: Ingestor.seqMu and,
//	                     once that is released, Server.rolloverMu and
//	                     safeguard.mu one at a time. Released before a
//	                     bootstrap's network write.
//	Ingestor.seqMu       Intake order: a batch's journal append and queue
//	                     sends are one step, so journal order = apply
//	                     order. Guards closed. Drain and Quiesce hold it
//	                     across the fence wait and the train flush, Close
//	                     across the drain goroutine's exit and the flush,
//	                     so the Replayer's steps never overlap. Then:
//	                     bandit.Service.evMu, bandit.Service.mu, wal.
//	                     Nothing under it may enqueue a reward (it would
//	                     wait on itself); the commit (fsync) wait happens
//	                     after it is released.
//	Server.rolloverMu    A hint-table swap and its journal record are one
//	                     step, so rollovers journal in generation order.
//	                     Then: wal.
//	safeguard.mu         A quarantine transition's journal record and its
//	                     table swap are one step. Then: drift.Detector,
//	                     wal (append and commit wait), drift.Table. The
//	                     notify hook runs under it, so it must not block
//	                     or take a lock listed here (the incident
//	                     engine's is a non-blocking channel send).
//	incidentEngine.mu    Trigger state and the bundle index. Reads atomic
//	                     counters only. Never held while a bundle is
//	                     captured: stats.json embeds the incidents block,
//	                     whose assembly takes it.
//	bandit.Service.evMu  The decision log: exploration rng, event log and
//	                     index, pending rewards, ID sequence, the blocks
//	                     a ranked decision is copied into, and the
//	                     rank-record append (journal order = event
//	                     order). Then: bandit.Service.mu (read side, for
//	                     a snapshot encode), wal.
//	bandit.Service.mu    The weight vector: read-locked to score,
//	                     write-locked for SGD (whose first step
//	                     allocates it) and load. Innermost.
//
// Leaf locks those call into, which call back into nothing above:
// wal.WAL.mu (Append, Commit, Sync), drift.Detector.mu, drift.Table's
// writer lock, and the obs package's recorder and tracker locks.
package serve
