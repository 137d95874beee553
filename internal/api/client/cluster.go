package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"qoadvisor/internal/api"
)

// Cluster is the multi-endpoint client for a replicated steering
// deployment: reads (rank batches) fan out round-robin across every
// node — followers serve them from their local replica — and fail over
// to the next node on transport faults; writes (reward batches) are
// sent to the current leader guess and chase the not_primary redirect
// when the guess is stale, learning the real leader from the error
// envelope's leader URL.
//
// Cluster is safe for concurrent use. It assumes the follower serving
// model: replicas are read-only and eventually consistent (bounded by
// the primary's group-commit window plus shipping latency), so a read
// may observe a hint generation one step behind a write just issued —
// the same contract a load balancer in front of the fleet would give.
type Cluster struct {
	opts []Option

	mu      sync.RWMutex
	clients map[string]*Client
	// order is the read rotation, as given (plus learned leaders). It
	// only grows by append, so an element once written never changes and
	// a read walks the slice header it took under mu.
	order  []member
	leader string

	rr atomic.Uint64

	// maxLeaderHops bounds redirect chasing so two nodes pointing at
	// each other cannot loop a write forever.
	maxLeaderHops int
}

// NewCluster builds a cluster client over one or more node base URLs.
// The first endpoint is the initial leader guess; every endpoint
// serves reads. Options apply to each per-node client.
func NewCluster(endpoints []string, opts ...Option) (*Cluster, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("client: cluster needs at least one endpoint")
	}
	c := &Cluster{
		opts:          opts,
		clients:       make(map[string]*Client, len(endpoints)),
		leader:        endpoints[0],
		maxLeaderHops: 3,
	}
	for _, ep := range endpoints {
		if _, dup := c.clients[ep]; dup {
			continue
		}
		cl := New(ep, opts...)
		c.clients[ep] = cl
		c.order = append(c.order, member{ep, cl})
	}
	return c, nil
}

// member is one node of the read rotation.
type member struct {
	base string
	cl   *Client
}

// Endpoints returns the node URLs currently in the read rotation.
func (c *Cluster) Endpoints() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	eps := make([]string, len(c.order))
	for i, m := range c.order {
		eps[i] = m.base
	}
	return eps
}

// Leader returns the current leader guess (updated by redirects).
func (c *Cluster) Leader() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.leader
}

// client returns (creating if needed) the per-node client for base.
func (c *Cluster) client(base string) *Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.clients[base]
	if !ok {
		cl = New(base, c.opts...)
		c.clients[base] = cl
		c.order = append(c.order, member{base, cl})
	}
	return cl
}

// read runs fn against nodes in rotation order until one succeeds: a
// round-robin start, then the rest as fallbacks.
// Typed protocol errors (an *api.Error) are returned immediately — the
// request itself is wrong and every node would reject it the same way;
// transport faults (connection refused, timeouts, missing envelopes)
// and node-specific conditions (internal faults, a degraded follower's
// health probe) fail over to the next node.
func (c *Cluster) read(fn func(*Client) error) error {
	c.mu.RLock()
	order := c.order
	c.mu.RUnlock()
	n := len(order)
	// Reduced as a uint64: converted first, a counter past the int range
	// would make a negative index.
	start := int((c.rr.Add(1) - 1) % uint64(n))
	var lastErr error
	for i := range n {
		err := fn(order[(start+i)%n].cl)
		if err == nil {
			return nil
		}
		var apiErr *api.Error
		if errors.As(err, &apiErr) && apiErr.Code != api.CodeInternal && apiErr.Code != api.CodeDegraded {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("client: every cluster node failed: %w", lastErr)
}

// write runs fn against the leader guess, following not_primary
// redirects (learning the leader as it goes, up to maxLeaderHops) and
// failing over to other known endpoints on transport faults — a dead
// leader guess must not fail a write while a healthy follower could
// have redirected us to the live primary. Typed protocol rejections
// other than internal faults return immediately: every node would
// reject the request the same way.
func (c *Cluster) write(fn func(*Client) error) error {
	base := c.Leader()
	tried := make(map[string]bool)
	redirects := 0
	var lastErr error
	failover := func(err error) error {
		tried[base] = true
		lastErr = err
		base = ""
		for _, ep := range c.Endpoints() {
			if !tried[ep] {
				base = ep
				break
			}
		}
		if base == "" {
			return fmt.Errorf("client: write failed on every known endpoint: %w", lastErr)
		}
		return nil
	}
	for {
		err := fn(c.client(base))
		if err == nil {
			return nil
		}
		// Declared past the success return: errors.As moves it to the heap.
		var apiErr *api.Error
		switch {
		case errors.As(err, &apiErr) && apiErr.Code == api.CodeNotPrimary:
			if apiErr.Leader == "" {
				// A follower that doesn't know its leader: treat like an
				// unusable node and try the other known endpoints — one of
				// them may be (or name) the primary.
				if ferr := failover(err); ferr != nil {
					return ferr
				}
				continue
			}
			if redirects >= c.maxLeaderHops {
				return fmt.Errorf("client: leader chase exceeded %d hops (last redirect to %s): %w",
					c.maxLeaderHops, apiErr.Leader, err)
			}
			redirects++
			base = apiErr.Leader
			c.mu.Lock()
			c.leader = base
			c.mu.Unlock()
		case errors.As(err, &apiErr) && apiErr.Code != api.CodeInternal:
			return err
		default:
			if ferr := failover(err); ferr != nil {
				return ferr
			}
		}
	}
}

// --- reads (fan across all nodes) ---

// RankBatch steers one batch on one node of the rotation.
func (c *Cluster) RankBatch(ctx context.Context, jobs []api.RankRequest) (api.BatchRankResponse, error) {
	var out api.BatchRankResponse
	err := c.read(func(cl *Client) error {
		var rerr error
		out, rerr = cl.RankBatch(ctx, jobs)
		return rerr
	})
	return out, err
}

// --- writes (chase the leader) ---

// RewardBatch feeds a telemetry batch to the leader.
func (c *Cluster) RewardBatch(ctx context.Context, events []api.RewardEvent) (api.BatchRewardResponse, error) {
	var out api.BatchRewardResponse
	err := c.write(func(cl *Client) error {
		var werr error
		out, werr = cl.RewardBatch(ctx, events)
		return werr
	})
	return out, err
}
