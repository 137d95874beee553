// Package bandit implements the contextual-bandit learner behind
// QO-Advisor's Recommendation task, modelled on the Azure Personalizer
// service the paper integrates with (§4.2): a rank/reward API over a
// linear model with hashed context×action features, epsilon-greedy
// exploration, an event log with recorded propensities enabling
// counterfactual evaluation, and inverse-propensity-scored off-policy
// updates.
package bandit

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qoadvisor/internal/strarena"
	"qoadvisor/internal/walrec"
)

// Action is one candidate decision, described by pre-hashed 64-bit
// feature IDs. Featurizers compute IDs directly (integer mixing over
// span bits); callers that still speak categorical string tokens fold
// them into the same ID space with HashFeatures.
type Action struct {
	ID string
	// IDs is read-only: Rank copies the action set but not the IDs, so
	// the event log, Events and the journal share them, and featurizers
	// alias one immutable table from every action they build
	// (internal/featurize does, per catalog).
	IDs []uint64
}

// Context carries the decision context (e.g. job-span bit positions and
// their co-occurrence crosses) as pre-hashed feature IDs. Rank,
// RankUniform and RankGreedy read IDs only until they return — the event
// log keeps a copy — so a caller may featurize every decision into the
// same scratch.
type Context struct {
	IDs []uint64
}

// fnv64a hashes a string with FNV-1a without the hash.Hash allocation
// (and without copying the string to a byte slice).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashFeatures maps categorical feature tokens into the pre-hashed
// feature-ID space — the one adapter for callers that speak tokens.
func HashFeatures(tokens []string) []uint64 {
	if len(tokens) == 0 {
		return nil
	}
	out := make([]uint64, len(tokens))
	for i, tok := range tokens {
		out[i] = fnv64a(tok)
	}
	return out
}

// Bias feature IDs: every (context, action) pair contributes at least the
// bias×bias weight, so even featureless pairs are learnable.
var (
	ctxBiasID = fnv64a("_cbias")
	actBiasID = fnv64a("_abias")
)

// Ranked is the outcome of one Rank call.
type Ranked struct {
	EventID string
	// Chosen is the index of the selected action in the submitted slice.
	Chosen int
	// Prob is the propensity with which the chosen action was selected,
	// logged for counterfactual evaluation and IPS training.
	Prob float64
}

// Event is one logged rank decision with its eventual reward. A ranked
// event's Context.IDs and Actions are the log's own copies, carved from
// blocks it shares with neighbouring events: read-only. Train releases
// them, and so does Forget: a trained or forgotten event keeps neither,
// and leaves the log.
type Event struct {
	EventID  string
	Context  Context
	Actions  []Action
	Chosen   int
	Prob     float64
	Reward   float64
	Rewarded bool
	Trained  bool
	// pos is the event's position in the log since the service began:
	// its slot is log[pos-logBase] until eviction passes it.
	pos int
}

// Config parameterizes the service.
type Config struct {
	// Dim is the hashed weight dimension (power of two recommended).
	Dim int
	// Epsilon is the exploration rate of the learned policy.
	Epsilon float64
	// LearningRate for SGD updates.
	LearningRate float64
	// MaxIPSWeight clips importance weights.
	MaxIPSWeight float64
	// Seed drives exploration randomness.
	Seed int64
}

// DefaultConfig returns sensible defaults.
func DefaultConfig(seed int64) Config {
	return Config{
		Dim:          1 << 18,
		Epsilon:      0.1,
		LearningRate: 0.05,
		MaxIPSWeight: 50,
		Seed:         seed,
	}
}

// Service is the in-process Personalizer stand-in. It is safe for
// concurrent use: the serve layer issues Rank and Reward calls from many
// request goroutines while the reward ingestor trains in the background.
// Scoring takes a shared read lock on the weight vector so concurrent
// Rank calls scale across cores; the decision log (exploration rng, event
// log, journal append) is one short critical section under evMu. The lock
// order is in internal/serve's lock-hierarchy comment.
type Service struct {
	cfg Config

	// mu guards the weight vector w: read-locked for scoring, write-locked
	// for SGD updates and deserialization. w stays nil, every weight
	// zero, until the first write — a trained example or a loaded
	// weight — allocates all Dim of it: a node that only serves hints,
	// or only explores uniformly, never holds the 2 MB of a default Dim.
	mu sync.RWMutex
	w  []float64
	// pairs maps (context ID, action ID) pairs onto w: by mask when Dim is
	// a power of two, by modulo — to the same index — for any other Dim.
	pairs pairSpace
	// trainIdx is Train's reusable slab of pair indexes (guarded by mu's
	// write lock): each fresh example's index list, computed once per
	// call and walked on every epoch.
	trainIdx []int

	// evMu guards the decision log: the exploration rng, the event log,
	// the event index, the pending-reward list, the ID sequence, the log
	// cap, and the blocks ranked decisions are stored in.
	evMu   sync.Mutex
	rng    *rand.Rand
	events map[string]*Event
	// log holds the logged events in rank order. A capped log keeps a
	// trained event's slot, nil, until eviction passes it, so its length
	// and eviction boundaries do not depend on when Train runs. logBase
	// is the number of slots eviction has dropped: the position of
	// log[0].
	log     []*Event
	logBase int
	// pending holds rewarded-but-untrained events so Train is O(batch)
	// rather than a full-log scan, and so an accepted reward survives
	// log eviction until it is trained.
	pending []*Event
	seq     int
	maxLog  int
	// ctxBlock, actBlock and evBlock are the unused tails of the blocks
	// every logged decision is stored in — ranked, replayed from the
	// journal or loaded from a snapshot: its context IDs and actions
	// (a restored one's single chosen action, whose IDs also come from
	// ctxBlock) in the first two, its Event in the third. A block is
	// allocated when the last one runs out and never reused; the
	// collector frees it once no event in it is logged, pending or being
	// trained.
	ctxBlock []uint64
	actBlock []Action
	evBlock  []Event
	// ids is the event IDs' arena, rolled to a fresh idBlockLen-byte
	// block when the next ID does not fit: eventLocked copies every
	// logged event's ID into it, so an ID pins its neighbours' IDs and
	// nothing it was rendered or read from.
	ids strarena.Arena
	// nonce makes event IDs unique across Service instances (and hence
	// process restarts), so a reward held across a model-restore restart
	// fails loudly as unknown instead of silently training the wrong
	// event. (Events restored from a v3 snapshot or journal replay keep
	// their original IDs, so rewards for them do survive restarts.)
	nonce string

	// journal, when attached, receives a walrec.TagRank record for every
	// logged rank decision, appended under evMu so journal order equals
	// event-log order. walLSN is the journal position the current model
	// state covers (set by checkpoints and replay; persisted by Save so
	// recovery replays only the suffix). Both guarded by evMu.
	journal Journal
	walLSN  uint64
	// recBuf is the rank record under construction, reused across
	// ranks (guarded by evMu; the journal does not retain it).
	recBuf []byte

	// journalErrs counts failed journal appends (fail-stop disk); the
	// serve layer surfaces it through stats.
	journalErrs atomic.Int64
}

// instanceSeq disambiguates services created in the same nanosecond.
var instanceSeq atomic.Int64

// New creates a Service.
func New(cfg Config) *Service {
	if cfg.Dim <= 0 {
		cfg.Dim = 1 << 18
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.1
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.05
	}
	if cfg.MaxIPSWeight <= 0 {
		cfg.MaxIPSWeight = 50
	}
	return &Service{
		cfg:    cfg,
		pairs:  newPairSpace(cfg.Dim),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		events: make(map[string]*Event),
		nonce:  fmt.Sprintf("%x", uint64(time.Now().UnixNano())^uint64(instanceSeq.Add(1))<<48),
	}
}

// AttachJournal wires a durable journal into the service: every
// subsequent rank decision is appended as a walrec.TagRank record. Attach
// after any snapshot load and journal replay — an attached journal
// during replay would re-journal the replayed state.
func (s *Service) AttachJournal(j Journal) {
	s.evMu.Lock()
	s.journal = j
	s.evMu.Unlock()
}

// JournalErrors reports how many journal appends have failed.
func (s *Service) JournalErrors() int64 { return s.journalErrs.Load() }

// SetWALWatermark records the journal position the model state covers.
// Recovery replays only records above it.
func (s *Service) SetWALWatermark(lsn uint64) {
	s.evMu.Lock()
	s.walLSN = lsn
	s.evMu.Unlock()
}

// WALWatermark returns the journal position the model state covers.
func (s *Service) WALWatermark() uint64 {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return s.walLSN
}

// eventLocked takes the next Event from the event block and gives it
// id, cut from the ID arena: the one way a decision enters the log,
// ranked, replayed or loaded. The caller fills the rest in and logs it;
// it holds evMu.
func (s *Service) eventLocked(id []byte) *Event {
	ev := &take(&s.evBlock, 1, evBlockLen)[0]
	if n := s.ids.Len(); n == 0 || n+len(id) > idBlockLen {
		s.ids.Reset(idBlockLen)
	}
	ev.EventID = s.ids.String(id)
	return ev
}

// restoreLocked is eventLocked for a decision restored without ranking,
// from the journal or a snapshot: it keeps the ID it was logged with,
// so rewards issued against the process that ranked it still apply,
// and only the chosen action, index 0. Its nCtx context IDs and the
// action's nAct IDs get room carved from the blocks, for the caller to
// fill in place; caller holds evMu.
func (s *Service) restoreLocked(id []byte, nCtx, nAct int) *Event {
	ev := s.eventLocked(id)
	ev.Context.IDs = take(&s.ctxBlock, nCtx, ctxBlockLen)
	ev.Actions = take(&s.actBlock, 1, actBlockLen)
	ev.Actions[0].IDs = take(&s.ctxBlock, nAct, ctxBlockLen)
	return ev
}

// logLocked indexes and logs an event, then enforces the cap: caller
// holds evMu.
func (s *Service) logLocked(ev *Event) {
	ev.pos = s.logBase + len(s.log)
	s.events[ev.EventID] = ev
	s.log = append(s.log, ev)
	if ev.Rewarded && !ev.Trained {
		s.pending = append(s.pending, ev)
	}
	s.evictLocked()
}

// restoreRank reinstates a journaled rank decision — the journal replay
// path — reading the record's ID lists straight into the event's room.
func (s *Service) restoreRank(f walrec.RankFrame) {
	s.evMu.Lock()
	ev := s.restoreLocked(f.EventID, f.CtxIDs.Len(), f.ActIDs.Len())
	f.CtxIDs.AppendTo(ev.Context.IDs[:0])
	f.ActIDs.AppendTo(ev.Actions[0].IDs[:0])
	ev.Prob = f.Prob
	s.logLocked(ev)
	s.evMu.Unlock()
}

// ServingMaxLog is the event-log cap every serving process applies: the
// live server, journal recovery, a follower and audit as-of. It is a
// constant so replay evicts on the boundaries the live run did. An open
// event keeps ≈ 721 B resident: its features, Event, ID and index
// entry. A trained one keeps ≈ 28.5 B, its nil slot and its share of
// the slices (TestEventLogBytesPerDecision, spans 2–8). The log grows
// to 1.25 × the cap before evicting, so the cap bounds event state near
// 15 MB only while the logged decisions are open; once their rewards
// train, it holds a small fraction of that. The cap bounds the slots,
// which an uncapped log keeps one of per decision for good.
const ServingMaxLog = 1 << 14

// SetMaxLog caps the in-memory event log (<= 0 = unbounded, what a new
// Service starts with: the offline pipeline's mode, which ranks a whole
// day before any of it is rewarded). When the cap is exceeded the
// oldest slots are evicted, unrewarded events forfeiting any late
// reward (which then reports as an unknown event). Capped or not, the
// log keeps only a position, a nil slot, for each event Train consumes
// or Forget drops. Every serving process sets ServingMaxLog, also on a
// learner trained by the offline pipeline. The cap takes effect on the
// next Rank and the next Train.
func (s *Service) SetMaxLog(n int) {
	s.evMu.Lock()
	s.maxLog = n
	s.evMu.Unlock()
}

// evictLocked enforces maxLog by dropping the oldest slots; callers
// hold evMu. A trained or forgotten event's slot is already nil;
// unrewarded events lose their slot in the index, so a late reward
// reports as unknown. An accepted-but-untrained reward is never lost:
// the pending list keeps the event for the next Train even after it
// leaves the log. The 25% slack before compaction amortizes the copy
// cost across ranks.
func (s *Service) evictLocked() {
	if s.maxLog <= 0 || len(s.log) <= s.maxLog+s.maxLog/4 {
		return
	}
	drop := len(s.log) - s.maxLog
	for _, ev := range s.log[:drop] {
		if ev != nil && (!ev.Rewarded || ev.Trained) {
			delete(s.events, ev.EventID)
		}
	}
	s.log = append(s.log[:0:0], s.log[drop:]...)
	s.logBase += drop
}

// MixGamma is the golden-ratio multiplier shared by every hash in the
// feature-ID space: featurizers combine raw values with it and the pair
// index combines context and action IDs with it. One constant, one
// space — tuning it in a single place keeps featurization and scoring
// consistent.
const MixGamma = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 finalizer that spreads feature IDs and weight
// pair indexes over the hash space.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pairSpace is the weight table's index space, copied into the pair loops'
// registers: dim is the table size and mask is dim-1 when dim is a power
// of two, 0 for any other dim.
type pairSpace struct{ dim, mask uint64 }

func newPairSpace(dim int) pairSpace {
	p := pairSpace{dim: uint64(dim)}
	if dim&(dim-1) == 0 {
		p.mask = p.dim - 1
	}
	return p
}

// index mixes one context feature ID with one action feature ID into a
// weight index. The combine is asymmetric (the action side arrives
// pre-multiplied by the golden-ratio constant: am = a*MixGamma, hoisted
// out of the pair loops by the callers) so (c, a) and (a, c) land on
// different weights, and the splitmix64 finalizer spreads the product
// over the table. x % 2^k == x & (2^k-1), so the masked index of a
// power-of-two Dim is the index the modulo gives.
func (p pairSpace) index(c, am uint64) uint64 {
	h := Mix64(c ^ am)
	if p.mask != 0 {
		return h & p.mask
	}
	return h % p.dim
}

// actBiasMul is the pre-multiplied action-side bias ID.
var actBiasMul = actBiasID * MixGamma

// premultiply returns a*MixGamma for each action ID, in buf when it fits.
func premultiply(buf []uint64, actIDs []uint64) []uint64 {
	for _, a := range actIDs {
		buf = append(buf, a*MixGamma)
	}
	return buf
}

// appendFeatureIndexes appends the weight indexes of the full cross
// product (bias ∪ ctxIDs) × (bias ∪ actIDs) to dst; scoreIDs walks the
// same pairs in the same order without materializing them.
func (s *Service) appendFeatureIndexes(dst []int, ctxIDs, actIDs []uint64) []int {
	var buf [8]uint64
	ams := premultiply(buf[:0], actIDs)
	p := s.pairs
	dst = append(dst, int(p.index(ctxBiasID, actBiasMul)))
	for _, am := range ams {
		dst = append(dst, int(p.index(ctxBiasID, am)))
	}
	for _, c := range ctxIDs {
		dst = append(dst, int(p.index(c, actBiasMul)))
		for _, am := range ams {
			dst = append(dst, int(p.index(c, am)))
		}
	}
	return dst
}

// Score returns the model's value estimate for an action in context.
func (s *Service) Score(ctx Context, a Action) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scoreIDs(ctx.IDs, a.IDs)
}

// scoreIDs sums the weights of the pair cross product without allocating;
// callers hold mu (read or write). A nil weight vector is all zeros, so
// every action scores +0.0, as a zeroed vector's do.
func (s *Service) scoreIDs(ctxIDs, actIDs []uint64) float64 {
	if s.w == nil {
		return 0
	}
	var buf [8]uint64
	ams := premultiply(buf[:0], actIDs)
	p, w := s.pairs, s.w
	sum := w[p.index(ctxBiasID, actBiasMul)]
	for _, am := range ams {
		sum += w[p.index(ctxBiasID, am)]
	}
	for _, c := range ctxIDs {
		sum += w[p.index(c, actBiasMul)]
		for _, am := range ams {
			sum += w[p.index(c, am)]
		}
	}
	return sum
}

// argmax scores every action and returns the index of the first best one.
func (s *Service) argmax(ctx Context, actions []Action) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	best, bestScore := 0, s.scoreIDs(ctx.IDs, actions[0].IDs)
	for i := 1; i < len(actions); i++ {
		if sc := s.scoreIDs(ctx.IDs, actions[i].IDs); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	return best
}

// Rank selects an action with the learned epsilon-greedy policy and logs
// the decision. The returned event ID must later receive a Reward call
// (or the event is treated as unrewarded and skipped by Train). The log
// keeps its own copy of ctx.IDs and of the actions slice, so the caller
// may reuse both once Rank returns; each action's IDs it shares.
func (s *Service) Rank(ctx Context, actions []Action) (Ranked, error) {
	return s.rank(ctx, actions, false)
}

// RankUniform selects uniformly at random, the paper's off-policy data
// collection mode: "we gather reward information using the
// uniform-at-random policy, but for the subsequent steps we act using the
// learned contextual bandit policy".
func (s *Service) RankUniform(ctx Context, actions []Action) (Ranked, error) {
	return s.rank(ctx, actions, true)
}

// RankGreedy scores the actions and picks the argmax without logging
// an event, assigning an event ID, or consuming exploration
// randomness — the read-only decision path a replication follower
// serves. Two nodes holding the same model weights return the same
// choice for the same request, and serving it never diverges the
// replica from the primary's journaled state. The reported propensity
// is the exploit-arm probability of the primary's epsilon-greedy
// policy ((1-eps) + eps/k); there is no EventID because a follower
// cannot accept the reward — that write belongs to the primary.
func (s *Service) RankGreedy(ctx Context, actions []Action) (Ranked, error) {
	if len(actions) == 0 {
		return Ranked{}, errors.New("bandit: no actions")
	}
	best := s.argmax(ctx, actions)
	k := float64(len(actions))
	return Ranked{Chosen: best, Prob: (1 - s.cfg.Epsilon) + s.cfg.Epsilon/k}, nil
}

func (s *Service) rank(ctx Context, actions []Action, uniform bool) (Ranked, error) {
	if len(actions) == 0 {
		return Ranked{}, errors.New("bandit: no actions")
	}
	k := len(actions)
	best := 0 // read only by the learned policy: a uniform draw scores nothing
	if !uniform {
		best = s.argmax(ctx, actions)
	}

	s.evMu.Lock()
	// The draw shares the event log's critical section: the rng is
	// consumed in event-sequence order.
	explore := !uniform && s.rng.Float64() < s.cfg.Epsilon
	chosen := best
	if uniform || explore {
		chosen = s.rng.Intn(k)
	}
	var prob float64
	switch {
	case uniform:
		prob = 1 / float64(k)
	case chosen == best:
		prob = (1 - s.cfg.Epsilon) + s.cfg.Epsilon/float64(k)
	default:
		prob = s.cfg.Epsilon / float64(k)
	}
	s.seq++
	s.recBuf = appendEventID(s.recBuf[:0], s.nonce, s.seq)
	ev := s.eventLocked(s.recBuf)
	ev.Context = Context{IDs: carve(&s.ctxBlock, ctx.IDs, ctxBlockLen)}
	ev.Actions = carve(&s.actBlock, actions, actBlockLen)
	ev.Chosen, ev.Prob = chosen, prob
	s.logLocked(ev)
	if s.journal != nil {
		// Journal under evMu so record order equals event-log order
		// (replay rebuilds the log in journal order). Append only
		// buffers — no disk wait on the rank path.
		s.recBuf = walrec.AppendRank(s.recBuf[:0], ev.EventID, prob, ctx.IDs, actions[chosen].IDs)
		if _, err := s.journal.Append(s.recBuf); err != nil {
			s.journalErrs.Add(1)
		}
	}
	s.evMu.Unlock()
	return Ranked{EventID: ev.EventID, Chosen: chosen, Prob: prob}, nil
}

// Block lengths of the decision log's storage, each about 32 KB: a
// block's unused tail is wasted when the next decision does not fit, so
// a smaller block raises the bytes resident per decision
// (TestEventLogBytesPerDecision).
const (
	ctxBlockLen = 4096
	actBlockLen = 1024
	evBlockLen  = 64
	// idBlockLen holds about 75 of this process's event IDs.
	idBlockLen = 2048
)

// take returns the front n elements of *block, capped at n, and advances
// *block past them. n elements that do not fit in what is left start a
// new block of blockLen; more than a block get storage of their own.
func take[T any](block *[]T, n, blockLen int) []T {
	if n > len(*block) {
		if n > blockLen {
			return make([]T, n)
		}
		*block = make([]T, blockLen)
	}
	dst := (*block)[:n:n]
	*block = (*block)[n:]
	return dst
}

// carve copies src into storage taken from *block.
func carve[T any](block *[]T, src []T, blockLen int) []T {
	dst := take(block, len(src), blockLen)
	copy(dst, src)
	return dst
}

// appendEventID renders "ev<nonce>-<seq>" with seq zero-padded to eight
// digits (and wider past them) — the bytes of Sprintf("ev%s-%08d").
func appendEventID(dst []byte, nonce string, seq int) []byte {
	dst = append(dst, "ev"...)
	dst = append(dst, nonce...)
	dst = append(dst, '-')
	for w := 10_000_000; w > 1 && seq < w; w /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(seq), 10)
}

// Reward attaches the observed reward to a rank event.
func (s *Service) Reward(eventID string, reward float64) error {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if !s.rewardLocked(s.events[eventID], reward) {
		// Unknown, evicted, or already trained (trained events leave the
		// index) — in every case the reward has nowhere to go.
		return fmt.Errorf("bandit: unknown event %q", eventID)
	}
	return nil
}

// rewardID is Reward for an event ID read in place from a journal
// record; it reports whether the event was known.
func (s *Service) rewardID(eventID []byte, reward float64) bool {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return s.rewardLocked(s.events[string(eventID)], reward)
}

// rewardLocked attaches the reward to ev, nil for an unknown event, and
// reports whether there was one: caller holds evMu.
func (s *Service) rewardLocked(ev *Event, reward float64) bool {
	if ev == nil {
		return false
	}
	if !ev.Rewarded {
		s.pending = append(s.pending, ev)
	}
	ev.Reward = reward
	ev.Rewarded = true
	return true
}

// trainExample is an immutable snapshot of a rewarded event, taken under
// evMu so SGD can run without holding the event-log lock.
type trainExample struct {
	ctxIDs []uint64
	actIDs []uint64
	prob   float64
	reward float64
	// idxEnd closes the example's pair-index list in Train's slab (it
	// opens where the previous example's ends).
	idxEnd int
}

// maxKeptTrainIdx bounds the index slab Train keeps between calls: the
// serve layer's 256-event batches of short spans fit, a whole offline
// day's batch is released when its Train returns.
const maxKeptTrainIdx = 1 << 18

// trainEpochs is the number of SGD passes one Train call makes over its
// new events. Replay retrains from the journal, so every node and every
// offline rebuild must make the same number.
const trainEpochs = 4

// Train performs trainEpochs IPS-weighted SGD passes over all rewarded,
// untrained events and returns how many events were consumed, and
// releases each one: nothing reads a trained event again (snapshots
// write open events only, its rank record is already journaled, and
// off-policy evaluation collects its events before Train), so it keeps
// only its position, a nil slot.
func (s *Service) Train() int {
	s.evMu.Lock()
	fresh := make([]trainExample, 0, len(s.pending))
	for _, ev := range s.pending {
		fresh = append(fresh, trainExample{
			ctxIDs: ev.Context.IDs,
			actIDs: ev.Actions[ev.Chosen].IDs,
			prob:   ev.Prob,
			reward: ev.Reward,
		})
		ev.Trained = true
		// A trained event can no longer accept rewards; drop it from the
		// lookup index so the index only holds pending events.
		delete(s.events, ev.EventID)
		s.releaseLocked(ev)
	}
	clear(s.pending)
	s.pending = s.pending[:0]
	s.evMu.Unlock()
	if len(fresh) == 0 {
		return 0
	}

	s.mu.Lock()
	// Hash every example's pair cross product once, back to back in idx;
	// the epochs below walk the lists.
	idx := s.trainIdx[:0]
	for i := range fresh {
		idx = s.appendFeatureIndexes(idx, fresh[i].ctxIDs, fresh[i].actIDs)
		fresh[i].idxEnd = len(idx)
	}
	for epoch := 0; epoch < trainEpochs; epoch++ {
		lo := 0
		for _, ex := range fresh {
			s.update(ex, idx[lo:ex.idxEnd])
			lo = ex.idxEnd
		}
	}
	if cap(idx) > maxKeptTrainIdx {
		idx = nil
	}
	s.trainIdx = idx[:0]
	s.mu.Unlock()
	return len(fresh)
}

// releaseLocked empties ev's slot, if eviction has not dropped it, and
// lets go of its features, so the blocks they were carved from are
// freed once their other events go too: caller holds evMu and has
// taken ev out of the index.
func (s *Service) releaseLocked(ev *Event) {
	if i := ev.pos - s.logBase; i >= 0 {
		s.log[i] = nil
	}
	ev.Context.IDs, ev.Actions = nil, nil
}

// Forget drops an open, unrewarded decision no reward will close — the
// offline pipeline's rank of a flip whose recompilation failed: it
// leaves the index, and keeps only its position, as a trained event
// does. It reports whether it did. It refuses an unknown, evicted or
// rewarded event, and any event of a learner with a journal attached:
// the journal holds the rank record and nothing of the Forget, so
// replay would restore the event.
func (s *Service) Forget(eventID string) bool {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	ev := s.events[eventID]
	if ev == nil || ev.Rewarded || s.journal != nil {
		return false
	}
	delete(s.events, eventID)
	s.releaseLocked(ev)
	return true
}

// update applies an importance-weighted regression step toward the
// observed reward for the chosen action, over the example's pair indexes.
// Callers hold mu's write lock; the first update allocates the weights.
func (s *Service) update(ex trainExample, idx []int) {
	if s.w == nil {
		s.w = make([]float64, s.cfg.Dim)
	}
	pred := 0.0
	for _, i := range idx {
		pred += s.w[i]
	}
	weight := 1 / ex.prob
	if weight > s.cfg.MaxIPSWeight {
		weight = s.cfg.MaxIPSWeight
	}
	grad := s.cfg.LearningRate * weight * (ex.reward - pred) / float64(len(idx))
	for _, i := range idx {
		s.w[i] += grad
	}
}

// LogSize returns the number of slots in the event log: logged rank
// events, counting those trained or forgotten until eviction passes
// them.
func (s *Service) LogSize() int {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return len(s.log)
}

// HasEvent reports whether eventID names a rank event still awaiting a
// reward in the index — the serve layer's synchronous pre-check for
// rejecting rewards that would otherwise be dropped asynchronously.
// Trained and evicted events leave the index, so a false here matches
// the "reward has nowhere to go" cases Reward would report. The answer
// is advisory: eviction may race a subsequent Reward, which then counts
// as unknown on the async path as before.
func (s *Service) HasEvent(eventID string) bool {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	_, ok := s.events[eventID]
	return ok
}

// Events returns a snapshot of the open events in the log: ranked,
// replayed or loaded, and neither trained nor forgotten. Each Event is
// copied under the lock so the caller can read Reward/Rewarded/Trained
// without racing concurrent Reward and Train calls. Context and
// Actions are the log's own copies, shared with it: read-only, and
// still valid after Train releases the event. This high-fidelity log is
// what enables counterfactual policy evaluation: a caller collects the
// rewarded events before the Train that consumes them.
func (s *Service) Events() []*Event {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	out := make([]*Event, 0, len(s.log))
	for _, ev := range s.log {
		if ev != nil {
			cp := *ev
			out = append(out, &cp)
		}
	}
	return out
}

// CounterfactualValue estimates the average reward another policy would
// have obtained on the rewarded ones of events, collected from Events,
// using inverse propensity scoring:
// V(π) = mean( r_i * 1{π(x_i) = a_i} / p_i ).
func (s *Service) CounterfactualValue(events []*Event, policy func(ctx Context, actions []Action) int) (float64, error) {
	sum, n := 0.0, 0
	for _, ev := range events {
		if !ev.Rewarded {
			continue
		}
		n++
		if policy(ev.Context, ev.Actions) == ev.Chosen {
			w := 1 / ev.Prob
			if w > s.cfg.MaxIPSWeight {
				w = s.cfg.MaxIPSWeight
			}
			sum += ev.Reward * w
		}
	}
	if n == 0 {
		return 0, errors.New("bandit: no rewarded events")
	}
	return sum / float64(n), nil
}

// GreedyPolicy returns a policy function that picks the best-scoring
// action under the current model (no exploration), for counterfactual
// evaluation.
func (s *Service) GreedyPolicy() func(ctx Context, actions []Action) int {
	return func(ctx Context, actions []Action) int {
		best := 0
		bestScore := s.Score(ctx, actions[0])
		for i := 1; i < len(actions); i++ {
			if sc := s.Score(ctx, actions[i]); sc > bestScore {
				best, bestScore = i, sc
			}
		}
		return best
	}
}
