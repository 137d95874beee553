package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// The reference side of the differential tests: the wire types as they
// were before the hand codec — plain structs under the same tags, the
// hash a fmt/strconv marshaler, the rank request the aux-struct double
// parse — encoded and decoded by encoding/json's reflection. A field
// added to a wire type is added here, to the codec and to the fuzz seeds
// in one change.

type refHash uint64

func (h refHash) MarshalJSON() ([]byte, error) {
	return []byte(`"` + fmt.Sprintf("%016x", uint64(h)) + `"`), nil
}

func (h *refHash) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("ref: templateHash must be a hex string, got %s", b)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("ref: bad templateHash %q: want 64-bit hex", s)
	}
	*h = refHash(v)
	return nil
}

type refRankRequest struct {
	TemplateHash refHash `json:"templateHash"`
	TemplateID   string  `json:"templateId,omitempty"`
	Span         []int   `json:"span"`
	RowCount     float64 `json:"rowCount,omitempty"`
	BytesRead    float64 `json:"bytesRead,omitempty"`
}

func (r *refRankRequest) UnmarshalJSON(b []byte) error {
	type plain refRankRequest
	aux := struct {
		*plain
		TemplateHash *refHash `json:"templateHash"`
	}{plain: (*plain)(r)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	if aux.TemplateHash == nil {
		return fmt.Errorf("ref: templateHash is required")
	}
	r.TemplateHash = *aux.TemplateHash
	return nil
}

type refBatchRankRequest struct {
	Jobs []refRankRequest `json:"jobs"`
}

type refError struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	Leader     string `json:"leader,omitempty"`
	HTTPStatus int    `json:"-"`
}

type refRankResponse struct {
	Source     string  `json:"source"`
	Flip       string  `json:"flip,omitempty"`
	NoOp       bool    `json:"noop"`
	EventID    string  `json:"eventId,omitempty"`
	Prob       float64 `json:"prob,omitempty"`
	Chosen     int     `json:"chosen,omitempty"`
	HintDay    int     `json:"hintDay,omitempty"`
	Generation uint64  `json:"generation"`
}

type refRankResult struct {
	refRankResponse
	Error *refError `json:"error,omitempty"`
}

type refBatchRankResponse struct {
	RequestID  string          `json:"requestId"`
	Generation uint64          `json:"generation"`
	Results    []refRankResult `json:"results"`
}

type refRewardEvent struct {
	EventID      string   `json:"eventId,omitempty"`
	Reward       *float64 `json:"reward"`
	TemplateHash *refHash `json:"templateHash,omitempty"`
}

type refBatchRewardRequest struct {
	Events []refRewardEvent `json:"events"`
}

type refRewardRejection struct {
	Index   int      `json:"index"`
	EventID string   `json:"eventId"`
	Error   refError `json:"error"`
}

type refBatchRewardResponse struct {
	RequestID  string               `json:"requestId"`
	Generation uint64               `json:"generation"`
	Queued     int                  `json:"queued"`
	Rejected   []refRewardRejection `json:"rejected,omitempty"`
	Observed   int                  `json:"observed,omitempty"`
}

// mapSlice keeps nil nil and empty empty, which reflect.DeepEqual tells
// apart.
func mapSlice[A, B any](s []A, f func(A) B) []B {
	if s == nil {
		return nil
	}
	out := make([]B, len(s))
	for i := range s {
		out[i] = f(s[i])
	}
	return out
}

func (r refError) api() Error { return Error(r) }

func (r refBatchRankRequest) api() BatchRankRequest {
	return BatchRankRequest{Jobs: mapSlice(r.Jobs, func(j refRankRequest) RankRequest {
		return RankRequest{TemplateHash: TemplateHash(j.TemplateHash), TemplateID: j.TemplateID,
			Span: j.Span, RowCount: j.RowCount, BytesRead: j.BytesRead}
	})}
}

func (r refBatchRankResponse) api() BatchRankResponse {
	return BatchRankResponse{RequestID: r.RequestID, Generation: r.Generation,
		Results: mapSlice(r.Results, func(x refRankResult) RankResult {
			out := RankResult{RankResponse: RankResponse(x.refRankResponse)}
			if x.Error != nil {
				e := x.Error.api()
				out.Error = &e
			}
			return out
		})}
}

func (r refBatchRewardRequest) api() BatchRewardRequest {
	return BatchRewardRequest{Events: mapSlice(r.Events, func(e refRewardEvent) RewardEvent {
		out := RewardEvent{EventID: e.EventID, Reward: e.Reward}
		if e.TemplateHash != nil {
			h := TemplateHash(*e.TemplateHash)
			out.TemplateHash = &h
		}
		return out
	})}
}

func (r refBatchRewardResponse) api() BatchRewardResponse {
	return BatchRewardResponse{RequestID: r.RequestID, Generation: r.Generation, Queued: r.Queued, Observed: r.Observed,
		Rejected: mapSlice(r.Rejected, func(x refRewardRejection) RewardRejection {
			return RewardRejection{Index: x.Index, EventID: x.EventID, Error: x.Error.api()}
		})}
}

// batch is what the four wire types share for the differential.
type batch interface {
	AppendJSON([]byte) ([]byte, error)
}

// nilEmptySlices maps the struct's empty top-level slices to nil: a
// reused target starts from its old slice cut to [:0], not from nil, so
// a body that never mentions the slice leaves the two apart.
func nilEmptySlices(structPtr any) {
	v := reflect.ValueOf(structPtr).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			f.SetZero()
		}
	}
}

// diffDecode decodes data the reference's way — json.Decoder (first
// value, rest ignored) and json.Unmarshal — and the codec's — a fresh
// Decoder, the delegating UnmarshalJSON, and a Decoder and target reused
// across calls (reset has cut the target's slice to [:0]) — and requires
// the same accept/reject answer and equal values throughout. It returns
// the reference value when the body is accepted.
func diffDecode[R interface{ api() V }, V batch](t *testing.T, data []byte,
	decode func(*Decoder, []byte, *V) error, reused *Decoder, into *V) (ref R, ok bool) {
	t.Helper()
	refErr := json.NewDecoder(bytes.NewReader(data)).Decode(&ref)
	var fresh V
	gotErr := decode(new(Decoder), data, &fresh)
	reusedErr := decode(reused, data, into)
	if (refErr == nil) != (gotErr == nil) || (refErr == nil) != (reusedErr == nil) {
		t.Fatalf("first value of %q:\nreference error:     %v\ncodec error:         %v\nreused codec error:  %v", data, refErr, gotErr, reusedErr)
	}
	if refErr == nil {
		want := ref.api()
		if !reflect.DeepEqual(want, fresh) {
			t.Fatalf("first value of %q:\nreference %+v\ncodec     %+v", data, want, fresh)
		}
		got := *into
		nilEmptySlices(&want)
		nilEmptySlices(&got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("first value of %q into a reused target:\nreference %+v\ncodec     %+v", data, want, got)
		}
	}
	if refErr == nil {
		stringsOutlive(t, reused, data, decode)
	}
	var whole R
	var got V
	wholeErr := json.Unmarshal(data, &whole)
	unmErr := json.Unmarshal(data, &got)
	if (wholeErr == nil) != (unmErr == nil) {
		t.Fatalf("json.Unmarshal(%q):\nreference error: %v\ncodec error:     %v", data, wholeErr, unmErr)
	}
	if wholeErr == nil {
		if want := whole.api(); !reflect.DeepEqual(want, got) {
			t.Fatalf("json.Unmarshal(%q):\nreference %+v\ncodec     %+v", data, want, got)
		}
	}
	return ref, refErr == nil
}

// stringsOutlive decodes data with d from a buffer of its own, then
// overwrites the buffer and decodes data again with d: the first call's
// strings must not have moved. The next call rewinds the span, reward
// and hash arenas, so only strings are compared.
func stringsOutlive[V any](t *testing.T, d *Decoder, data []byte, decode func(*Decoder, []byte, *V) error) {
	t.Helper()
	buf := bytes.Clone(data)
	var kept V
	if err := decode(d, buf, &kept); err != nil {
		t.Fatalf("decoding %q from a copy: %v", data, err)
	}
	want := appendStrings(nil, reflect.ValueOf(kept))
	for i := range want {
		want[i] = strings.Clone(want[i])
	}
	for i := range buf {
		buf[i] = '"'
	}
	var next V
	decode(d, data, &next)
	if got := appendStrings(nil, reflect.ValueOf(kept)); !slices.Equal(got, want) {
		t.Fatalf("strings decoded from %q changed after the input was overwritten and decoded again:\nwas %q\nnow %q", data, want, got)
	}
}

// appendStrings appends every string v reaches, in field order.
func appendStrings(dst []string, v reflect.Value) []string {
	switch v.Kind() {
	case reflect.String:
		dst = append(dst, v.String())
	case reflect.Pointer:
		if !v.IsNil() {
			dst = appendStrings(dst, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dst = appendStrings(dst, v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			dst = appendStrings(dst, v.Index(i))
		}
	}
	return dst
}

// diffEncode requires the codec's bytes for v, AppendJSON plus the
// newline and json.Marshal through the delegating methods, to equal
// json.Encoder's for the reference value — or both sides to refuse it.
func diffEncode(t *testing.T, ref any, v batch) {
	t.Helper()
	var want bytes.Buffer
	refErr := json.NewEncoder(&want).Encode(ref)
	got, gotErr := v.AppendJSON([]byte("prefix"))
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("encoding %+v:\nreference error: %v\ncodec error:     %v", ref, refErr, gotErr)
	}
	if refErr != nil {
		return
	}
	if got = append(got, '\n'); !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
		t.Fatalf("encoding %+v:\nreference %s\ncodec     %s", ref, want.Bytes(), got[len("prefix"):])
	}
	viaJSON, err := json.Marshal(v)
	if err != nil || !bytes.Equal(append(viaJSON, '\n'), want.Bytes()) {
		t.Fatalf("json.Marshal(%+v) = %s, %v\nreference %s", v, viaJSON, err, want.Bytes())
	}
}

// One Decoder and one target per type live across every fuzz input, the
// way a server's pooled ones live across requests: what one body leaves
// behind must never show in the next one's result.
var (
	reusedDecoder     Decoder
	reusedRankReq     BatchRankRequest
	reusedRankResp    BatchRankResponse
	reusedRewardReq   BatchRewardRequest
	reusedRewardResp  BatchRewardResponse
	hostileStringSalt = "\xff<&>\u2028\"\\\x00"
)

func diffBatchRankRequest(t *testing.T, data []byte) {
	reusedRankReq.Jobs = reusedRankReq.Jobs[:0]
	ref, ok := diffDecode[refBatchRankRequest](t, data, (*Decoder).DecodeBatchRankRequest, &reusedDecoder, &reusedRankReq)
	if !ok {
		return
	}
	diffEncode(t, ref, ref.api())
	if len(ref.Jobs) > 0 {
		// Strings a decoder can never produce: invalid UTF-8 and friends.
		ref.Jobs[0].TemplateID = string(data) + hostileStringSalt
		diffEncode(t, ref, ref.api())
	}
}

func diffBatchRankResponse(t *testing.T, data []byte) {
	reusedRankResp = BatchRankResponse{Results: reusedRankResp.Results[:0]}
	ref, ok := diffDecode[refBatchRankResponse](t, data, (*Decoder).DecodeBatchRankResponse, &reusedDecoder, &reusedRankResp)
	if !ok {
		return
	}
	diffEncode(t, ref, ref.api())
	ref.RequestID = string(data) + hostileStringSalt
	if len(ref.Results) > 0 {
		ref.Results[0].Flip = ref.RequestID
		ref.Results[0].Error = &refError{Code: ref.RequestID, Message: ref.RequestID, Leader: ref.RequestID}
	}
	diffEncode(t, ref, ref.api())
}

func diffBatchRewardRequest(t *testing.T, data []byte) {
	reusedRewardReq.Events = reusedRewardReq.Events[:0]
	ref, ok := diffDecode[refBatchRewardRequest](t, data, (*Decoder).DecodeBatchRewardRequest, &reusedDecoder, &reusedRewardReq)
	if !ok {
		return
	}
	diffEncode(t, ref, ref.api())
	if len(ref.Events) > 0 {
		ref.Events[0].EventID = string(data) + hostileStringSalt
		diffEncode(t, ref, ref.api())
	}
}

func diffBatchRewardResponse(t *testing.T, data []byte) {
	reusedRewardResp = BatchRewardResponse{Rejected: reusedRewardResp.Rejected[:0]}
	ref, ok := diffDecode[refBatchRewardResponse](t, data, (*Decoder).DecodeBatchRewardResponse, &reusedDecoder, &reusedRewardResp)
	if !ok {
		return
	}
	diffEncode(t, ref, ref.api())
	ref.RequestID = string(data) + hostileStringSalt
	if len(ref.Rejected) > 0 {
		ref.Rejected[0].EventID = ref.RequestID
		ref.Rejected[0].Error.Message = ref.RequestID
	}
	diffEncode(t, ref, ref.api())
}

// The seed corpus is committed under testdata/fuzz/<target>/ and runs as
// part of plain `go test`; CI gives each target ten seconds of -fuzz.

func FuzzBatchRankRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { diffBatchRankRequest(t, data) })
}

func FuzzBatchRankResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { diffBatchRankResponse(t, data) })
}

func FuzzBatchRewardRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { diffBatchRewardRequest(t, data) })
}

func FuzzBatchRewardResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { diffBatchRewardResponse(t, data) })
}

// TestCodecSharedGrammar runs bodies that exercise the JSON grammar
// itself — not any one type's fields — through all four differentials.
func TestCodecSharedGrammar(t *testing.T) {
	deep := strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1)
	tooDeep := strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth)
	for _, body := range []string{
		``, ` `, `null`, `nullx`, `nul`, `nulx`, ` null `, `true`, `12`, `-`, `"x"`, `[]`, `[1,]`, `{`, `{}`, `{} trailing`,
		`{}{`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{"a":1 "b":2}`, `{"a":01}`, `{"a":1.}`, `{"a":1e}`, `{"a":-}`,
		`{"a":tru}`, `{"a":"\x01"}`, `{"a":"\q"}`, `{"a":"\u12"}`, `{"a":"\u12g4"}`, `{"a":"\'"}`,
		`{"unknown":{"nested":[1,2.5e-3,true,false,null,"s\n\ud83d\ude00\ud83d"]}}`,
		"\t\r\n {\t\r\n } \t\r\n",
		`{"x":` + deep + `}`, `{"x":` + tooDeep + `}`,
		"{\"a\":\"\xff\xfe\"}", `{"\u0061":1}`,
	} {
		data := []byte(body)
		diffBatchRankRequest(t, data)
		diffBatchRankResponse(t, data)
		diffBatchRewardRequest(t, data)
		diffBatchRewardResponse(t, data)
	}
}

// encodeCase pairs a reference value with the codec value it mirrors.
type encodeCase struct {
	ref any
	v   batch
}

func encodeCaseOf[R interface{ api() V }, V batch](ref R) encodeCase {
	return encodeCase{ref, ref.api()}
}

// TestCodecEncodeCorners covers values no JSON body decodes to.
func TestCodecEncodeCorners(t *testing.T) {
	nan, inf, negZero, tiny := math.NaN(), math.Inf(-1), math.Copysign(0, -1), 5e-324
	h := refHash(math.MaxUint64)
	for _, c := range []encodeCase{
		encodeCaseOf(refBatchRankRequest{}),
		encodeCaseOf(refBatchRankRequest{Jobs: []refRankRequest{}}),
		encodeCaseOf(refBatchRankRequest{Jobs: []refRankRequest{
			{Span: []int{}}, {Span: []int{-1, 256, math.MaxInt64, math.MinInt64}, RowCount: negZero, BytesRead: tiny},
			{RowCount: 1e21, BytesRead: 1e-7}, {RowCount: 999999999999999999999, BytesRead: 1e-6}, {TemplateHash: h, RowCount: nan},
		}}),
		encodeCaseOf(refBatchRankRequest{Jobs: []refRankRequest{{BytesRead: inf}}}),
		encodeCaseOf(refBatchRankResponse{}),
		encodeCaseOf(refBatchRankResponse{Generation: math.MaxUint64, Results: []refRankResult{
			{}, {refRankResponse: refRankResponse{Prob: negZero, Chosen: -1, HintDay: -7, NoOp: true, Generation: math.MaxUint64}},
			{refRankResponse: refRankResponse{Prob: nan}}, {Error: &refError{HTTPStatus: 500}},
		}}),
		encodeCaseOf(refBatchRewardRequest{Events: []refRewardEvent{{}, {Reward: &negZero, TemplateHash: &h}, {Reward: &tiny}}}),
		encodeCaseOf(refBatchRewardRequest{Events: []refRewardEvent{{EventID: "e", Reward: &nan}}}),
		encodeCaseOf(refBatchRewardResponse{Rejected: []refRewardRejection{}}),
		encodeCaseOf(refBatchRewardResponse{Queued: -1, Observed: -1, Rejected: []refRewardRejection{{Index: -1}}}),
	} {
		diffEncode(t, c.ref, c.v)
	}
}

// TestDecoderReuse pins the arena contract: a reused Decoder hands out
// fresh memory per call's worth of values, and a reused slice's spare
// capacity never leaks a previous body's fields into the next.
func TestDecoderReuse(t *testing.T) {
	var d Decoder
	var req BatchRankRequest
	if err := d.DecodeBatchRankRequest([]byte(`{"jobs":[{"templateHash":"a","templateId":"first","span":[1,2,3],"rowCount":9},{"templateHash":"b","span":[4]}]}`), &req); err != nil {
		t.Fatal(err)
	}
	req.Jobs = req.Jobs[:0]
	if err := d.DecodeBatchRankRequest([]byte(`{"jobs":[{"templateHash":"c"},{"templateHash":"d","span":[null,7]}]}`), &req); err != nil {
		t.Fatal(err)
	}
	want := []RankRequest{{TemplateHash: 0xc}, {TemplateHash: 0xd, Span: []int{0, 7}}}
	if !reflect.DeepEqual(req.Jobs, want) {
		t.Errorf("second decode = %+v, want %+v", req.Jobs, want)
	}

	var rw BatchRewardRequest
	if err := d.DecodeBatchRewardRequest([]byte(`{"events":[{"eventId":"e1","reward":1,"templateHash":"1"},{"reward":2}]}`), &rw); err != nil {
		t.Fatal(err)
	}
	rw.Events = rw.Events[:0]
	if err := d.DecodeBatchRewardRequest([]byte(`{"events":[{"reward":null},{"reward":3}]}`), &rw); err != nil {
		t.Fatal(err)
	}
	if rw.Events[0] != (RewardEvent{}) || rw.Events[1].Reward == nil || *rw.Events[1].Reward != 3 || rw.Events[1].EventID != "" {
		t.Errorf("second reward decode = %+v", rw.Events)
	}

	// Warm, a Decoder and its targets decode string-free batches out of
	// the arenas alone.
	rankBody := []byte(`{"jobs":[{"templateHash":"a","span":[41,42,43],"rowCount":1e6,"bytesRead":2.5e9},{"templateHash":"b","span":[44]}]}`)
	rewardBody := []byte(`{"events":[{"reward":0.5,"templateHash":"a"},{"reward":0.25,"templateHash":"b"}]}`)
	if n := testing.AllocsPerRun(100, func() {
		req.Jobs, rw.Events = req.Jobs[:0], rw.Events[:0]
		if d.DecodeBatchRankRequest(rankBody, &req) != nil || d.DecodeBatchRewardRequest(rewardBody, &rw) != nil {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Errorf("a warm Decoder allocated %v times per rank+reward decode, want 0", n)
	}
}

// TestDecodedStringsOutliveTheDecoder pins the string arena's contract:
// what one call decodes — escaped or plain, flip, event ID, error text —
// stays as it was after its input buffer is overwritten and the Decoder
// decodes a larger body of the same kind, and a smaller one, and is
// released into a pool.
func TestDecodedStringsOutliveTheDecoder(t *testing.T) {
	var d Decoder
	first := []byte(`{"requestId":"rid-1","results":[` +
		`{"source":"hint","flip":"-R040","generation":1},` +
		`{"source":"bandit","flip":"+R007","eventId":"ev0011223344556677-00000001","prob":0.9},` +
		`{"source":"bandit","eventId":"ev\u00e9\n-00000002","error":{"code":"internal","message":"m\"q","leader":"http://l"}}]}`)
	var kept BatchRankResponse
	if err := d.DecodeBatchRankResponse(first, &kept); err != nil {
		t.Fatal(err)
	}
	want := BatchRankResponse{RequestID: "rid-1", Results: []RankResult{
		{RankResponse: RankResponse{Source: SourceHint, Flip: "-R040", Generation: 1}},
		{RankResponse: RankResponse{Source: SourceBandit, Flip: "+R007", EventID: "ev0011223344556677-00000001", Prob: 0.9}},
		{RankResponse: RankResponse{Source: SourceBandit, EventID: "ev\u00e9\n-00000002"}, Error: &Error{Code: "internal", Message: "m\"q", Leader: "http://l"}},
	}}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("decoded %+v\nwant    %+v", kept, want)
	}
	for i := range first {
		first[i] = 'x'
	}
	var next BatchRankResponse
	bigger, _ := BatchRankResponse{RequestID: strings.Repeat("r", 300), Results: []RankResult{{RankResponse: RankResponse{
		Source: SourceBandit, Flip: strings.Repeat("f", 200), EventID: strings.Repeat("e", 500)}}}}.AppendJSON(nil)
	for _, body := range [][]byte{bigger, []byte(`{"requestId":"ab","results":[]}`)} {
		if err := d.DecodeBatchRankResponse(body, &next); err != nil {
			t.Fatal(err)
		}
	}
	d.Release()
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("after the input was overwritten and two more decodes:\n%+v\nwant %+v", kept, want)
	}
	if kept.Results[0].Source != SourceHint || unsafe.StringData(kept.Results[0].Source) != unsafe.StringData(SourceHint) {
		t.Error("the hint Source is not the interned constant")
	}
}

// TestDecodedStringRetainedHeap keeps one 8-byte string from each of
// 1,000 decodes of a 64 KB body, through a reused Decoder and through
// UnmarshalJSON's fresh one: what stays live must be the strings and
// their calls' few other strings, not the bodies (about 64 MB).
func TestDecodedStringRetainedHeap(t *testing.T) {
	body := []byte(`{"requestId":"rid-0000","pad":"` + strings.Repeat("x", 64<<10) + `","results":[]}`)
	const decodes = 1000
	for _, way := range []struct {
		name   string
		decode func([]byte, *BatchRankResponse) error
	}{
		{"reused", new(Decoder).DecodeBatchRankResponse},
		{"unmarshal", func(b []byte, v *BatchRankResponse) error { return v.UnmarshalJSON(b) }},
	} {
		kept := make([]string, decodes)
		before := liveHeap()
		for i := range kept {
			copy(body[len(`{"requestId":"rid-`):], fmt.Sprintf("%04d", i))
			var v BatchRankResponse
			if err := way.decode(body, &v); err != nil {
				t.Fatal(err)
			}
			kept[i] = v.RequestID
		}
		grown := int64(liveHeap()) - int64(before)
		for i, s := range kept {
			if s != fmt.Sprintf("rid-%04d", i) {
				t.Fatalf("%s: kept string %d is %q", way.name, i, s)
			}
		}
		if grown > 1<<20 {
			t.Errorf("%s: %d kept 8-byte strings hold %.1f MB live, want under 1 MB", way.name, decodes, float64(grown)/(1<<20))
		} else {
			t.Logf("%s: %d kept 8-byte strings hold %d bytes live", way.name, decodes, grown)
		}
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkBatchCodec times one 16-job rank exchange and its reward
// request, each leg two ways: "direct" is what the server's handlers and
// the client run (AppendJSON into a kept buffer, a reused Decoder), and
// "json" is the same types through encoding/json's entry points, which
// reach the same code by way of MarshalJSON/UnmarshalJSON — and pay
// encoding/json's own scan of a marshaler's output and of the input —
// and is what qobench's api.* ladder rungs time.
func BenchmarkBatchCodec(b *testing.B) {
	jobs := make([]RankRequest, 16)
	results := make([]RankResult, 16)
	events := make([]RewardEvent, 16)
	rewards := make([]float64, 16)
	hashes := make([]TemplateHash, 16)
	for i := range jobs {
		hashes[i] = TemplateHash(0x9e3779b97f4a7c15 * uint64(i+1))
		rewards[i] = 0.5 + float64(i)/100
		span := make([]int, 2+i%7)
		for k := range span {
			span[k] = 32 + 7*k + i
		}
		jobs[i] = RankRequest{TemplateHash: hashes[i], Span: span, RowCount: 1e6 + float64(i), BytesRead: 2.5e9}
		results[i] = RankResult{RankResponse: RankResponse{Source: SourceHint, Flip: "-R040", HintDay: 3, Generation: 1}}
		events[i] = RewardEvent{Reward: &rewards[i], TemplateHash: &hashes[i]}
	}
	rankReq := BatchRankRequest{Jobs: jobs}
	rankResp := BatchRankResponse{RequestID: "0badf00d-00000001", Generation: 1, Results: results}
	rewardReq := BatchRewardRequest{Events: events}
	rankReqBody, _ := rankReq.AppendJSON(nil)
	rankRespBody, _ := rankResp.AppendJSON(nil)
	rewardReqBody, _ := rewardReq.AppendJSON(nil)

	var buf []byte
	var dec Decoder
	var gotRankReq BatchRankRequest
	var gotRankResp BatchRankResponse
	var gotRewardReq BatchRewardRequest
	for _, leg := range []struct {
		name         string
		direct, json func() error
	}{
		{"rank_req_encode",
			func() (err error) { buf, err = rankReq.AppendJSON(buf[:0]); return },
			func() error { _, err := json.Marshal(rankReq); return err }},
		{"rank_req_decode",
			func() error {
				gotRankReq.Jobs = gotRankReq.Jobs[:0]
				return dec.DecodeBatchRankRequest(rankReqBody, &gotRankReq)
			},
			func() error { var v BatchRankRequest; return json.Unmarshal(rankReqBody, &v) }},
		{"rank_resp_encode",
			func() (err error) { buf, err = rankResp.AppendJSON(buf[:0]); return },
			func() error { _, err := json.Marshal(rankResp); return err }},
		{"rank_resp_decode",
			func() error {
				gotRankResp.Results = gotRankResp.Results[:0]
				return dec.DecodeBatchRankResponse(rankRespBody, &gotRankResp)
			},
			func() error { var v BatchRankResponse; return json.Unmarshal(rankRespBody, &v) }},
		{"reward_req_decode",
			func() error {
				gotRewardReq.Events = gotRewardReq.Events[:0]
				return dec.DecodeBatchRewardRequest(rewardReqBody, &gotRewardReq)
			},
			func() error { var v BatchRewardRequest; return json.Unmarshal(rewardReqBody, &v) }},
	} {
		for _, way := range []struct {
			name string
			run  func() error
		}{{"direct", leg.direct}, {"json", leg.json}} {
			b.Run(leg.name+"/"+way.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := way.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
