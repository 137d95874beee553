package obs

import (
	"testing"
	"time"
)

func TestTracerNilSafety(t *testing.T) {
	// All methods on a nil trace are no-ops (embedded callers rank
	// outside an HTTP request and thread nil).
	var span *Trace
	span.SetRequestID("x")
	span.Stage(0, "s", time.Now(), time.Millisecond)
	span.FinishRequest("r", time.Now(), time.Millisecond, 200)
}
