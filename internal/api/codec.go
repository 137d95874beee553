package api

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"qoadvisor/internal/strarena"
)

// This file is the hand-written JSON codec for the four batch types of
// the hot routes and their elements. Encoding appends to a caller-owned
// buffer; decoding walks a byte slice. Both sides reproduce
// encoding/json exactly — bytes out, values and accept/reject in — and
// codec_test.go holds them to that against reflection on mirror
// structs.

const hexDigits = "0123456789abcdef"

// AppendHex appends v in lower-case hex, zero-padded to at least width
// digits.
func AppendHex(dst []byte, v uint64, width int) []byte {
	n := max((bits.Len64(v)+3)/4, width, 1)
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, hexDigits[v>>(4*uint(i))&0xf])
	}
	return dst
}

// --- encoding ---

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: ", \ and control characters escaped, <, > and
// & as \u00XX, invalid UTF-8 as \ufffd, U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid in JSON but break JSONP.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f in encoding/json's ES6-style form. NaN and ±Inf
// have no JSON form and are an error, as they are there.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("api: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendHash appends the quoted 16-digit wire form of h.
func appendHash(dst []byte, h TemplateHash) []byte {
	dst = append(dst, '"')
	dst = AppendHex(dst, uint64(h), 16)
	return append(dst, '"')
}

// appendArray appends s as a JSON array of elem encodings; a nil slice
// is null.
func appendArray[T any](dst []byte, s []T, elem func([]byte, *T) ([]byte, error)) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = elem(dst, &s[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// MarshalJSON renders the hash as a zero-padded hex string.
func (h TemplateHash) MarshalJSON() ([]byte, error) {
	return appendHash(make([]byte, 0, 18), h), nil
}

func appendRankRequest(dst []byte, r *RankRequest) ([]byte, error) {
	dst = append(dst, `{"templateHash":`...)
	dst = appendHash(dst, r.TemplateHash)
	if r.TemplateID != "" {
		dst = append(dst, `,"templateId":`...)
		dst = appendString(dst, r.TemplateID)
	}
	dst = append(dst, `,"span":`...)
	if r.Span == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, b := range r.Span {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(b), 10)
		}
		dst = append(dst, ']')
	}
	var err error
	if r.RowCount != 0 {
		dst = append(dst, `,"rowCount":`...)
		if dst, err = appendFloat(dst, r.RowCount); err != nil {
			return dst, err
		}
	}
	if r.BytesRead != 0 {
		dst = append(dst, `,"bytesRead":`...)
		if dst, err = appendFloat(dst, r.BytesRead); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler over the append codec.
func (r RankRequest) MarshalJSON() ([]byte, error) { return appendRankRequest(nil, &r) }

// AppendJSON appends the /v2/rank request body to dst. A NaN or infinite
// rowCount or bytesRead has no JSON form and is an error.
func (r BatchRankRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"jobs":`...)
	dst, err := appendArray(dst, r.Jobs, appendRankRequest)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler over AppendJSON: the body in one
// fresh buffer, sized up front.
func (r BatchRankRequest) MarshalJSON() ([]byte, error) {
	size := 16
	for i := range r.Jobs {
		size += 128 + len(r.Jobs[i].TemplateID) + 4*len(r.Jobs[i].Span)
	}
	return r.AppendJSON(make([]byte, 0, size))
}

func appendError(dst []byte, e *Error) []byte {
	dst = append(dst, `{"code":`...)
	dst = appendString(dst, e.Code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, e.Message)
	if e.Leader != "" {
		dst = append(dst, `,"leader":`...)
		dst = appendString(dst, e.Leader)
	}
	return append(dst, '}')
}

// MarshalJSON implements json.Marshaler over the append codec.
func (e Error) MarshalJSON() ([]byte, error) { return appendError(nil, &e), nil }

// appendRankResult appends the decision's fields, then the per-job error
// when there is one.
func appendRankResult(dst []byte, r *RankResult) ([]byte, error) {
	dst = append(dst, `{"source":`...)
	dst = appendString(dst, r.Source)
	if r.Flip != "" {
		dst = append(dst, `,"flip":`...)
		dst = appendString(dst, r.Flip)
	}
	if r.NoOp {
		dst = append(dst, `,"noop":true`...)
	} else {
		dst = append(dst, `,"noop":false`...)
	}
	if r.EventID != "" {
		dst = append(dst, `,"eventId":`...)
		dst = appendString(dst, r.EventID)
	}
	if r.Prob != 0 {
		dst = append(dst, `,"prob":`...)
		var err error
		if dst, err = appendFloat(dst, r.Prob); err != nil {
			return dst, err
		}
	}
	if r.Chosen != 0 {
		dst = append(dst, `,"chosen":`...)
		dst = strconv.AppendInt(dst, int64(r.Chosen), 10)
	}
	if r.HintDay != 0 {
		dst = append(dst, `,"hintDay":`...)
		dst = strconv.AppendInt(dst, int64(r.HintDay), 10)
	}
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, r.Generation, 10)
	if r.Error != nil {
		dst = append(dst, `,"error":`...)
		dst = appendError(dst, r.Error)
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler over the append codec. It also
// keeps the embedded RankResponse from being the whole of a result's
// encoding.
func (r RankResult) MarshalJSON() ([]byte, error) { return appendRankResult(nil, &r) }

// AppendJSON appends the /v2/rank response body to dst, without the
// newline json.Encoder ends a document with.
func (r BatchRankResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"requestId":`...)
	dst = appendString(dst, r.RequestID)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, r.Generation, 10)
	dst = append(dst, `,"results":`...)
	dst, err := appendArray(dst, r.Results, appendRankResult)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler over AppendJSON: the body in one
// fresh buffer, sized up front for decisions (an error result may grow
// it).
func (r BatchRankResponse) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, 64+len(r.RequestID)+128*len(r.Results)))
}

func appendRewardEvent(dst []byte, e *RewardEvent) ([]byte, error) {
	dst = append(dst, '{')
	if e.EventID != "" {
		dst = append(dst, `"eventId":`...)
		dst = appendString(dst, e.EventID)
		dst = append(dst, ',')
	}
	dst = append(dst, `"reward":`...)
	if e.Reward == nil {
		dst = append(dst, "null"...)
	} else {
		var err error
		if dst, err = appendFloat(dst, *e.Reward); err != nil {
			return dst, err
		}
	}
	if e.TemplateHash != nil {
		dst = append(dst, `,"templateHash":`...)
		dst = appendHash(dst, *e.TemplateHash)
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler over the append codec.
func (e RewardEvent) MarshalJSON() ([]byte, error) { return appendRewardEvent(nil, &e) }

// AppendJSON appends the /v2/reward request body to dst. A NaN or
// infinite reward has no JSON form and is an error.
func (r BatchRewardRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"events":`...)
	dst, err := appendArray(dst, r.Events, appendRewardEvent)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler over AppendJSON: the body in one
// fresh buffer, sized up front.
func (r BatchRewardRequest) MarshalJSON() ([]byte, error) {
	size := 16
	for i := range r.Events {
		size += 96 + len(r.Events[i].EventID)
	}
	return r.AppendJSON(make([]byte, 0, size))
}

func appendRewardRejection(dst []byte, r *RewardRejection) ([]byte, error) {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"eventId":`...)
	dst = appendString(dst, r.EventID)
	dst = append(dst, `,"error":`...)
	dst = appendError(dst, &r.Error)
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler over the append codec.
func (r RewardRejection) MarshalJSON() ([]byte, error) { return appendRewardRejection(nil, &r) }

// AppendJSON appends the /v2/reward response body to dst, without the
// newline json.Encoder ends a document with. The error is always nil; it
// is there so the four batch types share one signature.
func (r BatchRewardResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"requestId":`...)
	dst = appendString(dst, r.RequestID)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, r.Generation, 10)
	dst = append(dst, `,"queued":`...)
	dst = strconv.AppendInt(dst, int64(r.Queued), 10)
	if len(r.Rejected) > 0 {
		dst = append(dst, `,"rejected":`...)
		dst, _ = appendArray(dst, r.Rejected, appendRewardRejection)
	}
	if r.Observed != 0 {
		dst = append(dst, `,"observed":`...)
		dst = strconv.AppendInt(dst, int64(r.Observed), 10)
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler over AppendJSON: the body in one
// fresh buffer.
func (r BatchRewardResponse) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, 96+len(r.RequestID)+160*len(r.Rejected)))
}

// --- decoding ---

// Decoder decodes the batch types from a byte slice with encoding/json's
// semantics: the first JSON value is decoded and whatever follows it is
// ignored (as json.Decoder does), unknown keys are skipped, keys match
// case-folded, null leaves a field as it was, a slice is filled in place
// over its existing capacity, and a syntax error or truncated input
// anywhere in the value is reported ahead of a type error. Truncated
// input wraps io.ErrUnexpectedEOF.
//
// The zero value is ready to use. Span ints and the *float64 and
// *TemplateHash targets of reward events are carved from arenas the
// Decoder owns and rewinds at the start of each Decode call, so a reused
// Decoder decodes a steady stream of batches without allocating them —
// and everything the previous call decoded is invalid once the next one
// starts. Strings are the exception: every string one call decodes is a
// substring of an arena string of that call (internal/strarena), never
// of the input, and the arena is never rewound — a strings.Builder never
// rewrites a byte it has written — so a string stays valid after the
// Decoder decodes another body and after the caller overwrites the
// input, and a string the caller keeps pins only its call's strings. The
// arena is sized to what the previous body of the same kind decoded to,
// scaled to this body's length and capped at it, so a steady stream
// makes one allocation per call for all its strings. The two Source
// constants stay interned. A Decoder must not be used from two
// goroutines at once.
type Decoder struct {
	data  []byte
	pos   int
	depth int
	// touched counts the leading elements of the batch slice this decode
	// has written. Below it, spare capacity holds this body's own earlier
	// values (a repeated key), which encoding/json decodes over; at or
	// above it, it holds whatever a reused slice carried in, which is
	// zeroed before use.
	touched int

	scratch []byte
	spans   []int
	rewards []float64
	hashes  []TemplateHash

	strs strarena.Arena
	// sizes is what the last body of each kind decoded to, for sizing
	// the next one's string arena.
	sizes [numBodyKinds]strSize
}

// bodyKind names what a decode call decodes, for the arena sizing.
type bodyKind int

const (
	rankRequestBody bodyKind = iota
	rankResponseBody
	rewardRequestBody
	rewardResponseBody
	fragmentBody // an UnmarshalJSON call's one value
	numBodyKinds
)

// strSize is the string bytes one body decoded to, and its length.
type strSize struct{ strBytes, bodyLen int }

// arenaSize is the arena one body of len n starts with: the last body of
// its kind's string bytes scaled to n, plus an eighth for the variation
// between bodies, capped at n. Before the kind has a history it is 0:
// the first string sizes the first block, and each block after doubles,
// so a string kept from a fresh Decoder's call never pins room sized to
// the body.
func (z strSize) arenaSize(n int) int {
	if z.bodyLen == 0 {
		return 0
	}
	size := int(int64(z.strBytes) * int64(n) / int64(z.bodyLen))
	return min(size+size/8, n)
}

// Release ends the life of everything the Decoder has decoded and drops
// its string arena and any other arena a large body grew past 1 MiB, so
// that a pool it goes back into never pins more than that.
func (d *Decoder) Release() {
	const maxPooled = 1 << 20
	d.strs.Reset(0)
	if cap(d.scratch) > maxPooled {
		d.scratch = nil
	}
	if cap(d.spans) > maxPooled/8 {
		d.spans = nil
	}
	if cap(d.rewards) > maxPooled/8 {
		d.rewards = nil
	}
	if cap(d.hashes) > maxPooled/8 {
		d.hashes = nil
	}
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

var errSyntax = errors.New("invalid JSON")

// syntax is the error for the byte at the cursor; past the end of the
// input it is the truncation error.
func (d *Decoder) syntax(what string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("api: %w at offset %d", io.ErrUnexpectedEOF, d.pos)
	}
	return fmt.Errorf("api: %w: invalid character %q %s at offset %d", errSyntax, d.data[d.pos], what, d.pos)
}

// mismatch is the type error for a well-formed value of the wrong kind
// that starts with byte got.
func (d *Decoder) mismatch(got byte, want string) error {
	kind := "number"
	switch got {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	return fmt.Errorf("api: cannot decode JSON %s into %s at offset %d", kind, want, d.pos)
}

// decode runs value over data from a rewound Decoder and settles the
// error class. whole is for the UnmarshalJSON methods, which are handed
// exactly one value: anything but white space after it is an error.
func (d *Decoder) decode(data []byte, kind bodyKind, whole bool, value func() error) error {
	d.data, d.pos, d.depth, d.touched = data, 0, 0, 0
	d.spans, d.rewards, d.hashes = d.spans[:0], d.rewards[:0], d.hashes[:0]
	d.strs.Reset(d.sizes[kind].arenaSize(len(data)))
	err := value()
	if err == nil && whole {
		if _, eof := d.next(); eof == nil {
			err = d.syntax("after top-level value")
		}
	}
	if err != nil && !errors.Is(err, errSyntax) && !errors.Is(err, io.ErrUnexpectedEOF) {
		// encoding/json scans the whole value before it assigns any of
		// it, so broken syntax anywhere outranks a type error.
		d.pos, d.depth = 0, 0
		if serr := d.skipValue(); serr != nil {
			err = serr
		}
	}
	d.sizes[kind] = strSize{d.strs.Len(), len(data)}
	d.data = nil
	return err
}

// DecodeBatchRankRequest decodes a /v2/rank request body into v.
func (d *Decoder) DecodeBatchRankRequest(data []byte, v *BatchRankRequest) error {
	return d.decode(data, rankRequestBody, false, func() error { return d.batchRankRequest(v) })
}

// DecodeBatchRankResponse decodes a /v2/rank response body into v.
func (d *Decoder) DecodeBatchRankResponse(data []byte, v *BatchRankResponse) error {
	return d.decode(data, rankResponseBody, false, func() error { return d.batchRankResponse(v) })
}

// DecodeBatchRewardRequest decodes a /v2/reward request body into v.
func (d *Decoder) DecodeBatchRewardRequest(data []byte, v *BatchRewardRequest) error {
	return d.decode(data, rewardRequestBody, false, func() error { return d.batchRewardRequest(v) })
}

// DecodeBatchRewardResponse decodes a /v2/reward response body into v.
func (d *Decoder) DecodeBatchRewardResponse(data []byte, v *BatchRewardResponse) error {
	return d.decode(data, rewardResponseBody, false, func() error { return d.batchRewardResponse(v) })
}

// --- scanner primitives ---

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// next skips white space and returns the byte at the cursor without
// consuming it; running out of input is the truncation error.
func (d *Decoder) next() (byte, error) {
	for d.pos < len(d.data) && isSpace(d.data[d.pos]) {
		d.pos++
	}
	if d.pos >= len(d.data) {
		return 0, d.syntax("")
	}
	return d.data[d.pos], nil
}

// open consumes the '{' or '[' at the cursor.
func (d *Decoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return fmt.Errorf("api: %w: exceeded max depth at offset %d", errSyntax, d.pos)
	}
	d.pos++
	return nil
}

// member advances to an object's next member and returns its unescaped
// key, the cursor on the member's value; ok is false once the closing
// brace is consumed. The key is only valid until the value is decoded.
func (d *Decoder) member(first bool) (key []byte, ok bool, err error) {
	c, err := d.next()
	if err != nil {
		return nil, false, err
	}
	if c == '}' {
		d.pos++
		d.depth--
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, d.syntax("after object key:value pair")
		}
		d.pos++
		if c, err = d.next(); err != nil {
			return nil, false, err
		}
	}
	if c != '"' {
		return nil, false, d.syntax("looking for beginning of object key string")
	}
	if key, err = d.stringBytes(); err != nil {
		return nil, false, err
	}
	if c, err = d.next(); err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, d.syntax("after object key")
	}
	d.pos++
	return key, true, nil
}

// element advances to an array's next element; ok is false once the
// closing bracket is consumed.
func (d *Decoder) element(first bool) (ok bool, err error) {
	c, err := d.next()
	if err != nil {
		return false, err
	}
	if c == ']' {
		d.pos++
		d.depth--
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, d.syntax("after array element")
		}
		d.pos++
		if c, err = d.next(); err != nil {
			return false, err
		}
		if c == ']' {
			return false, d.syntax("looking for beginning of value")
		}
	}
	return true, nil
}

func (d *Decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.data) || d.data[d.pos] != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (d *Decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// number consumes the JSON number at the cursor and returns its text;
// integer reports that it has neither fraction nor exponent.
func (d *Decoder) number() (tok []byte, integer bool, err error) {
	start := d.pos
	if d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case !d.digits():
		return nil, false, d.syntax("in numeric literal")
	}
	integer = true
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		integer = false
		d.pos++
		if !d.digits() {
			return nil, false, d.syntax("after decimal point in numeric literal")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		integer = false
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if !d.digits() {
			return nil, false, d.syntax("in exponent of numeric literal")
		}
	}
	return d.data[start:d.pos], integer, nil
}

// scanString consumes the JSON string at the cursor and returns the
// bytes between its quotes; plain reports that they are their own value
// (no escape, all ASCII).
func (d *Decoder) scanString() (raw []byte, plain bool, err error) {
	d.pos++
	start := d.pos
	plain = true
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			raw = d.data[start:d.pos]
			d.pos++
			return raw, plain, nil
		case c == '\\':
			plain = false
			d.pos++
			if d.pos >= len(d.data) {
				return nil, false, d.syntax("")
			}
			switch d.data[d.pos] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
			case 'u':
				for i := 0; i < 4; i++ {
					d.pos++
					if d.pos >= len(d.data) || hexValue(d.data[d.pos]) < 0 {
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				return nil, false, d.syntax("in string escape code")
			}
		case c < ' ':
			return nil, false, d.syntax("in string literal")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, false, d.syntax("")
}

func hexValue(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// getu4 decodes a \uXXXX escape at the head of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		v := hexValue(c)
		if v < 0 {
			return -1
		}
		r = r*16 + rune(v)
	}
	return r
}

// unescape appends the value of a scanned string's raw bytes to dst:
// escapes resolved, unpaired surrogates and invalid UTF-8 replaced by
// U+FFFD.
func unescape(dst, raw []byte) []byte {
	for r := 0; r < len(raw); {
		switch c := raw[r]; {
		case c == '\\':
			r++
			switch raw[r] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := getu4(raw[r-1:])
				r += 4
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(raw[r+1:])); dec != unicode.ReplacementChar {
						r += 6
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, rr)
			default: // " \ /
				dst = append(dst, raw[r])
			}
			r++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// stringBytes consumes the string at the cursor and returns its value,
// aliasing the input or the scratch buffer.
func (d *Decoder) stringBytes() ([]byte, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	d.scratch = unescape(d.scratch[:0], raw)
	return d.scratch, nil
}

// skipValue consumes one JSON value of any kind, checking its syntax.
func (d *Decoder) skipValue() error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch {
	case c == '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, ok, err := d.member(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skipValue(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			ok, err := d.element(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skipValue(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err = d.scanString()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, _, err = d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntax("looking for beginning of value")
}

// field returns which of names an object key selects, or -1: an exact
// match first, then a case-folded one, as encoding/json resolves struct
// fields.
func field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// --- typed values: each consumes the value at the cursor into *p, and
// a null leaves *p alone ---

// null consumes a null literal if one is at the cursor; otherwise it
// returns the value's first byte.
func (d *Decoder) null() (c byte, isNull bool, err error) {
	if c, err = d.next(); err != nil || c != 'n' {
		return c, false, err
	}
	return c, true, d.literal("null")
}

func (d *Decoder) str(p *string) error {
	c, isNull, err := d.null()
	if err != nil || isNull {
		return err
	}
	if c != '"' {
		return d.mismatch(c, "a string")
	}
	b, err := d.stringBytes()
	if err != nil {
		return err
	}
	switch string(b) {
	case SourceHint:
		*p = SourceHint
	case SourceBandit:
		*p = SourceBandit
	default:
		*p = d.strs.String(b)
	}
	return nil
}

func (d *Decoder) boolean(p *bool) error {
	c, isNull, err := d.null()
	if err != nil || isNull {
		return err
	}
	switch c {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.mismatch(c, "a bool")
}

// numberFor consumes the number at the cursor for a field of the named
// kind; c is the value's first byte.
func (d *Decoder) numberFor(c byte, want string) (tok []byte, integer bool, err error) {
	if c == '-' || '0' <= c && c <= '9' {
		return d.number()
	}
	return nil, false, d.mismatch(c, want)
}

func (d *Decoder) integer(p *int) error {
	c, isNull, err := d.null()
	if err != nil || isNull {
		return err
	}
	tok, integer, err := d.numberFor(c, "an int")
	if err != nil {
		return err
	}
	if integer {
		if n, err := strconv.ParseInt(string(tok), 10, 64); err == nil {
			*p = int(n)
			return nil
		}
	}
	return fmt.Errorf("api: cannot decode JSON number %s into an int", tok)
}

func (d *Decoder) uint64(p *uint64) error {
	c, isNull, err := d.null()
	if err != nil || isNull {
		return err
	}
	tok, integer, err := d.numberFor(c, "a uint64")
	if err != nil {
		return err
	}
	if integer {
		if n, err := strconv.ParseUint(string(tok), 10, 64); err == nil {
			*p = n
			return nil
		}
	}
	return fmt.Errorf("api: cannot decode JSON number %s into a uint64", tok)
}

func (d *Decoder) float(p *float64) error {
	c, isNull, err := d.null()
	if err != nil || isNull {
		return err
	}
	tok, _, err := d.numberFor(c, "a float64")
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("api: cannot decode JSON number %s into a float64", tok)
	}
	*p = f
	return nil
}

// hash consumes a templateHash value. Unlike the other scalars it
// rejects null: a hash is a hex string of at most 64 bits or an error.
func (d *Decoder) hash(p *TemplateHash) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c != '"' {
		start := d.pos
		if err := d.skipValue(); err != nil {
			return err
		}
		return fmt.Errorf("api: templateHash must be a hex string, got %s", d.data[start:d.pos])
	}
	b, err := d.stringBytes()
	if err != nil {
		return err
	}
	var v uint64
	for _, c := range b {
		x := hexValue(c)
		if x < 0 || v>>60 != 0 {
			return fmt.Errorf("api: bad templateHash %q: want 64-bit hex", b)
		}
		v = v<<4 | uint64(x)
	}
	if len(b) == 0 {
		return fmt.Errorf("api: bad templateHash %q: want 64-bit hex", b)
	}
	*p = TemplateHash(v)
	return nil
}

// UnmarshalJSON accepts a hex string of up to 64 bits.
func (h *TemplateHash) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.hash(h) })
}

// ints consumes a span array. A fresh span is carved from the arena; one
// that already has capacity (a repeated key) is decoded in place over
// its old elements, which null elements then keep.
func (d *Decoder) ints(p *[]int) error {
	c, isNull, err := d.null()
	if err != nil {
		return err
	}
	if isNull {
		*p = nil
		return nil
	}
	if c != '[' {
		return d.mismatch(c, "an int array")
	}
	if err := d.open(); err != nil {
		return err
	}
	old := (*p)[:cap(*p)]
	w, start := old[:0], 0
	if len(old) == 0 {
		w, start = d.spans, len(d.spans)
	}
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		v := 0
		if i := len(w) - start; i < len(old) {
			v = old[i]
		}
		if err := d.integer(&v); err != nil {
			return err
		}
		w = append(w, v)
	}
	if len(old) == 0 {
		d.spans = w
		w = w[start:len(w):len(w)]
	}
	if len(w) == 0 {
		w = []int{}
	}
	*p = w
	return nil
}

// array consumes an array of objects into the batch slice *p the way
// encoding/json fills a slice: in place over existing capacity, grown by
// append, truncated to the element count, and fresh and empty for [].
func array[T any](d *Decoder, p *[]T, elem func(*Decoder, *T) error) error {
	c, isNull, err := d.null()
	if err != nil {
		return err
	}
	if isNull {
		*p = nil
		return nil
	}
	if c != '[' {
		return d.mismatch(c, "an array")
	}
	if err := d.open(); err != nil {
		return err
	}
	s, i := *p, 0
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i == len(s) {
			var zero T
			if i < cap(s) {
				s = s[:i+1]
				if i >= d.touched {
					s[i] = zero
				}
			} else {
				s = append(s, zero)
			}
		}
		d.touched = max(d.touched, i+1)
		if err := elem(d, &s[i]); err != nil {
			return err
		}
		i++
	}
	if s = s[:i]; i == 0 {
		s = []T{}
	}
	*p = s
	return nil
}

// object opens the object at the cursor for a struct decoder. A null
// there instead leaves the struct alone (isNull); anything else is a
// mismatch.
func (d *Decoder) object(want string) (isNull bool, err error) {
	c, isNull, err := d.null()
	if err != nil || isNull {
		return isNull, err
	}
	if c != '{' {
		return false, d.mismatch(c, want)
	}
	return false, d.open()
}

// --- the wire types ---

var (
	rankRequestFields         = []string{"templateHash", "templateId", "span", "rowCount", "bytesRead"}
	batchRankRequestFields    = []string{"jobs"}
	errorFields               = []string{"code", "message", "leader"}
	rankResultFields          = []string{"source", "flip", "noop", "eventId", "prob", "chosen", "hintDay", "generation", "error"}
	batchRankResponseFields   = []string{"requestId", "generation", "results"}
	rewardEventFields         = []string{"eventId", "reward", "templateHash"}
	batchRewardRequestFields  = []string{"events"}
	rewardRejectionFields     = []string{"index", "eventId", "error"}
	batchRewardResponseFields = []string{"requestId", "generation", "queued", "rejected", "observed"}
)

var errHashRequired = errors.New("api: templateHash is required")

// rankRequest rejects a job whose templateHash is absent or null — and
// so a null job: a client that silently drops the field would otherwise
// collapse all its traffic onto template 0 and still receive plausible
// decisions. An explicit "0000000000000000" remains valid.
func (d *Decoder) rankRequest(r *RankRequest) error {
	isNull, err := d.object("a rank request")
	if err != nil {
		return err
	}
	if isNull {
		return errHashRequired
	}
	haveHash := false
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch field(key, rankRequestFields) {
		case 0:
			if c, _ := d.next(); c == 'n' {
				haveHash = false
				err = d.literal("null")
			} else {
				haveHash = true
				err = d.hash(&r.TemplateHash)
			}
		case 1:
			err = d.str(&r.TemplateID)
		case 2:
			err = d.ints(&r.Span)
		case 3:
			err = d.float(&r.RowCount)
		case 4:
			err = d.float(&r.BytesRead)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
	if !haveHash {
		return errHashRequired
	}
	return nil
}

// UnmarshalJSON implements json.Unmarshaler over the Decoder.
func (r *RankRequest) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.rankRequest(r) })
}

func (d *Decoder) batchRankRequest(r *BatchRankRequest) error {
	if isNull, err := d.object("a rank batch"); err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		if field(key, batchRankRequestFields) == 0 {
			err = array(d, &r.Jobs, (*Decoder).rankRequest)
		} else {
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// UnmarshalJSON implements json.Unmarshaler over the Decoder.
func (r *BatchRankRequest) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.batchRankRequest(r) })
}

func (d *Decoder) errorPayload(e *Error) error {
	if isNull, err := d.object("an error"); err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		switch field(key, errorFields) {
		case 0:
			err = d.str(&e.Code)
		case 1:
			err = d.str(&e.Message)
		case 2:
			err = d.str(&e.Leader)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// UnmarshalJSON implements json.Unmarshaler over the Decoder.
func (e *Error) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.errorPayload(e) })
}

func (d *Decoder) rankResult(r *RankResult) error {
	if isNull, err := d.object("a rank result"); err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		switch field(key, rankResultFields) {
		case 0:
			err = d.str(&r.Source)
		case 1:
			err = d.str(&r.Flip)
		case 2:
			err = d.boolean(&r.NoOp)
		case 3:
			err = d.str(&r.EventID)
		case 4:
			err = d.float(&r.Prob)
		case 5:
			err = d.integer(&r.Chosen)
		case 6:
			err = d.integer(&r.HintDay)
		case 7:
			err = d.uint64(&r.Generation)
		case 8:
			if c, _ := d.next(); c == 'n' {
				r.Error = nil
				err = d.literal("null")
			} else {
				if r.Error == nil {
					r.Error = new(Error)
				}
				err = d.errorPayload(r.Error)
			}
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// UnmarshalJSON implements json.Unmarshaler over the Decoder. It also
// keeps the embedded RankResponse from being all of a result that is
// decoded.
func (r *RankResult) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.rankResult(r) })
}

func (d *Decoder) batchRankResponse(r *BatchRankResponse) error {
	if isNull, err := d.object("a rank batch response"); err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		switch field(key, batchRankResponseFields) {
		case 0:
			err = d.str(&r.RequestID)
		case 1:
			err = d.uint64(&r.Generation)
		case 2:
			err = array(d, &r.Results, (*Decoder).rankResult)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// UnmarshalJSON implements json.Unmarshaler over the Decoder.
func (r *BatchRankResponse) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.batchRankResponse(r) })
}

func (d *Decoder) rewardEvent(e *RewardEvent) error {
	if isNull, err := d.object("a reward event"); err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		switch field(key, rewardEventFields) {
		case 0:
			err = d.str(&e.EventID)
		case 1:
			if c, _ := d.next(); c == 'n' {
				e.Reward = nil
				err = d.literal("null")
			} else {
				if e.Reward == nil {
					d.rewards = append(d.rewards, 0)
					e.Reward = &d.rewards[len(d.rewards)-1]
				}
				err = d.float(e.Reward)
			}
		case 2:
			if c, _ := d.next(); c == 'n' {
				e.TemplateHash = nil
				err = d.literal("null")
			} else {
				if e.TemplateHash == nil {
					d.hashes = append(d.hashes, 0)
					e.TemplateHash = &d.hashes[len(d.hashes)-1]
				}
				err = d.hash(e.TemplateHash)
			}
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// UnmarshalJSON implements json.Unmarshaler over the Decoder.
func (e *RewardEvent) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.rewardEvent(e) })
}

func (d *Decoder) batchRewardRequest(r *BatchRewardRequest) error {
	if isNull, err := d.object("a reward batch"); err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		if field(key, batchRewardRequestFields) == 0 {
			err = array(d, &r.Events, (*Decoder).rewardEvent)
		} else {
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// UnmarshalJSON implements json.Unmarshaler over the Decoder.
func (r *BatchRewardRequest) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.batchRewardRequest(r) })
}

func (d *Decoder) rewardRejection(r *RewardRejection) error {
	if isNull, err := d.object("a reward rejection"); err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		switch field(key, rewardRejectionFields) {
		case 0:
			err = d.integer(&r.Index)
		case 1:
			err = d.str(&r.EventID)
		case 2:
			err = d.errorPayload(&r.Error)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// UnmarshalJSON implements json.Unmarshaler over the Decoder.
func (r *RewardRejection) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.rewardRejection(r) })
}

func (d *Decoder) batchRewardResponse(r *BatchRewardResponse) error {
	if isNull, err := d.object("a reward batch response"); err != nil || isNull {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		switch field(key, batchRewardResponseFields) {
		case 0:
			err = d.str(&r.RequestID)
		case 1:
			err = d.uint64(&r.Generation)
		case 2:
			err = d.integer(&r.Queued)
		case 3:
			err = array(d, &r.Rejected, (*Decoder).rewardRejection)
		case 4:
			err = d.integer(&r.Observed)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// UnmarshalJSON implements json.Unmarshaler over the Decoder.
func (r *BatchRewardResponse) UnmarshalJSON(b []byte) error {
	var d Decoder
	return d.decode(b, fragmentBody, true, func() error { return d.batchRewardResponse(r) })
}
