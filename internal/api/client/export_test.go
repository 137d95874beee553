package client

import (
	"context"
	"io"
	"time"

	"qoadvisor/internal/api"
)

// WithRetries sets how many times a queue_full 503 (reward-queue
// backpressure; nothing was accepted, retrying the whole batch is
// safe) is retried and the base backoff between attempts, which
// doubles per retry. Other 503s — a degraded follower's healthz, a
// proxy shedding load — fail immediately so rotations can move on.
// retries <= 0 disables retrying.
func WithRetries(retries int, backoff time.Duration) Option {
	return func(c *Client) {
		c.retries = retries
		c.backoff = backoff
	}
}

// Reward reports one event's reward: a /v2/reward batch of one, with a
// rejection surfaced as the returned *api.Error. A saturated queue (503)
// is retried per the client's retry policy before the error is returned.
func (c *Client) Reward(ctx context.Context, eventID string, value float64) error {
	resp, err := c.RewardBatch(ctx, []api.RewardEvent{{EventID: eventID, Reward: &value}})
	if err != nil {
		return err
	}
	if len(resp.Rejected) > 0 {
		e := resp.Rejected[0].Error
		e.HTTPStatus = api.StatusForCode(e.Code)
		return &e
	}
	return nil
}

// Snapshot streams the model's persisted form from the server. The
// caller must Close the returned reader.
func (c *Client) Snapshot(ctx context.Context) (io.ReadCloser, error) {
	return c.getStream(ctx, api.RouteV2Snapshot)
}

// Health probes one node of the rotation.
func (c *Cluster) Health(ctx context.Context) (api.HealthResponse, error) {
	var out api.HealthResponse
	err := c.read(func(cl *Client) error {
		var rerr error
		out, rerr = cl.Health(ctx)
		return rerr
	})
	return out, err
}

// Epoch returns the context of c's current shared deadline, nil before
// its first attempt under one.
func Epoch(c *Client) context.Context {
	if e := c.epoch.Load(); e != nil {
		return e.ctx
	}
	return nil
}
