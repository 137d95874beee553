package api

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func TestTemplateHashJSONRoundTrip(t *testing.T) {
	for _, h := range []TemplateHash{0, 1, 0xdeadbeef, ^TemplateHash(0)} {
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 18 { // 16 hex digits + quotes
			t.Errorf("marshal(%v) = %s, want 16-digit quoted hex", uint64(h), b)
		}
		var back TemplateHash
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != h {
			t.Errorf("round trip %v -> %s -> %v", uint64(h), b, uint64(back))
		}
	}
}

func TestTemplateHashUnmarshalRejectsBadInput(t *testing.T) {
	for _, in := range []string{`42`, `"zz"`, `""`, `"10000000000000000"`, `null`} {
		var h TemplateHash
		if err := json.Unmarshal([]byte(in), &h); err == nil {
			t.Errorf("unmarshal(%s) accepted, want error", in)
		}
	}
}

func TestRankRequestWireShape(t *testing.T) {
	// The v1 wire contract: templateHash as hex string, camelCase keys.
	req := RankRequest{TemplateHash: 0xabc, TemplateID: "T1", Span: []int{3, 17}, RowCount: 10, BytesRead: 20}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"templateHash":"0000000000000abc"`, `"templateId":"T1"`, `"span":[3,17]`, `"rowCount":10`, `"bytesRead":20`} {
		if !strings.Contains(s, want) {
			t.Errorf("wire form %s missing %s", s, want)
		}
	}
}

func TestRankRequestUnmarshalRequiresTemplateHash(t *testing.T) {
	var r RankRequest
	if err := json.Unmarshal([]byte(`{"span":[1]}`), &r); err == nil {
		t.Error("missing templateHash accepted, want error")
	}
	if err := json.Unmarshal([]byte(`{"templateHash":"0000000000000000","span":[1]}`), &r); err != nil {
		t.Errorf("explicit zero hash rejected: %v", err)
	}
	if err := json.Unmarshal([]byte(`{"templateHash":"ab","templateId":"T","span":[1,2],"rowCount":3}`), &r); err != nil {
		t.Fatal(err)
	}
	if r.TemplateHash != 0xab || r.TemplateID != "T" || len(r.Span) != 2 || r.RowCount != 3 {
		t.Errorf("decoded = %+v", r)
	}
}

func TestErrorEnvelope(t *testing.T) {
	e := Errorf(CodeQueueFull, "queue at %d", 4096)
	if e.Error() != "queue_full: queue at 4096" {
		t.Errorf("Error() = %q", e.Error())
	}
	b, err := json.Marshal(ErrorResponse{Error: *e, RequestID: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"queue_full","message":"queue at 4096"},"requestId":"r1"}`
	if string(b) != want {
		t.Errorf("envelope = %s, want %s", b, want)
	}
}

func TestStatusForCode(t *testing.T) {
	cases := map[string]int{
		CodeMethodNotAllowed:     http.StatusMethodNotAllowed,
		CodeInvalidJSON:          http.StatusBadRequest,
		CodeInvalidRequest:       http.StatusBadRequest,
		CodeValidationFailed:     http.StatusBadRequest,
		CodeBodyTooLarge:         http.StatusRequestEntityTooLarge,
		CodeUnknownEvent:         http.StatusNotFound,
		CodeNotFound:             http.StatusNotFound,
		CodeQueueFull:            http.StatusServiceUnavailable,
		CodeSnapshotUnconfigured: http.StatusConflict,
		CodeInternal:             http.StatusInternalServerError,
		"anything_else":          http.StatusInternalServerError,
	}
	for code, want := range cases {
		if got := StatusForCode(code); got != want {
			t.Errorf("StatusForCode(%s) = %d, want %d", code, got, want)
		}
	}
}

func TestReplicationErrorContract(t *testing.T) {
	e := NotPrimary("http://primary:8080")
	if e.Code != CodeNotPrimary || e.Leader != "http://primary:8080" {
		t.Fatalf("NotPrimary = %+v", e)
	}
	b, err := json.Marshal(ErrorResponse{Error: *e, RequestID: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	var back ErrorResponse
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Error.Leader != e.Leader {
		t.Fatalf("leader lost on the wire: %+v", back.Error)
	}
	for code, want := range map[string]int{
		CodeNotPrimary:  http.StatusMisdirectedRequest,
		CodeWALGap:      http.StatusGone,
		CodeWALDisabled: http.StatusConflict,
		CodeDegraded:    http.StatusServiceUnavailable,
	} {
		if got := StatusForCode(code); got != want {
			t.Errorf("StatusForCode(%s) = %d, want %d", code, got, want)
		}
	}
}
