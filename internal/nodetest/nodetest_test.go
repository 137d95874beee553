package nodetest_test

import (
	"net/http"
	"os"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// closeOrder is a served node whose Close checks that the HTTP server
// is already closed and the journal still open.
type closeOrder struct {
	*serve.Server
	t   *testing.T
	j   *wal.WAL
	url string
}

func (n *closeOrder) Close() {
	if resp, err := http.Get(n.url + api.RouteV2Healthz); err == nil {
		resp.Body.Close()
		n.t.Error("the node closed while its HTTP server still answered")
	}
	if _, err := n.j.Append(walrec.EncodeTrainMark()); err != nil {
		n.t.Errorf("the journal closed before its node: %v", err)
	}
	n.Server.Close()
}

// TestCleanupOrder: a subtest's cleanup closes the HTTP server, then the
// node, then the journal, before its directory goes. Afterwards the
// journal refuses an Append as closed and the node's ingestor refuses
// intake: neither outlives the test that opened it.
func TestCleanupOrder(t *testing.T) {
	var (
		j   *wal.WAL
		srv *serve.Server
	)
	t.Run("rig", func(t *testing.T) {
		j = nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 1024})
		srv = serve.New(serve.Config{Seed: 42, WAL: j})
		n := &closeOrder{Server: srv, t: t, j: j}
		ts, cl := nodetest.Serve(t, n)
		n.url = ts.URL
		nodetest.Reward(t, cl, nodetest.Rank(t, cl, 4, 1), 0.5)
	})
	if _, err := j.Append(walrec.EncodeTrainMark()); err == nil || err.Error() != "wal: closed" {
		t.Errorf("Append after cleanup: %v, want wal: closed", err)
	}
	// A closed ingestor drops the batch before the journal sees it: no
	// error, nothing accepted.
	if n, err := srv.Ingestor().EnqueueBatch([]walrec.RewardEntry{{EventID: "ev", Value: 1}}); n != 0 || err != nil {
		t.Errorf("the ingestor answered %d, %v after cleanup; want it closed (0, nil)", n, err)
	}
	if _, err := os.Stat(j.Dir()); !os.IsNotExist(err) {
		t.Errorf("the journal directory outlived its test: %v", err)
	}
}
