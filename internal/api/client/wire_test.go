package client_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
)

// wireCase is one client call and what it sends: the request the
// reference builds from method, path, contentType and payload.
type wireCase struct {
	name string
	// prefix is appended to the server's URL to make the client's base.
	prefix string
	// jar gives the client and the reference each a cookie jar holding
	// one cookie for the server.
	jar         bool
	call        func(ctx context.Context, c *client.Client) error
	method      string
	path        string
	contentType string
	payload     []byte // nil = no body
}

// referenceRequest is how the client built its requests before it had
// newRequest: http.NewRequestWithContext on base+path, the Content-Type
// set in the request's own header map.
func referenceRequest(ctx context.Context, base string, wc wireCase) (*http.Request, error) {
	var body io.Reader
	if wc.payload != nil {
		body = bytes.NewReader(wc.payload)
	}
	req, err := http.NewRequestWithContext(ctx, wc.method, strings.TrimRight(base, "/")+wc.path, body)
	if err != nil {
		return nil, err
	}
	if wc.contentType != "" {
		req.Header.Set("Content-Type", wc.contentType)
	}
	return req, nil
}

func wireCases(t *testing.T) []wireCase {
	t.Helper()
	jobs := []api.RankRequest{
		{TemplateHash: 0x77, Span: []int{3, 52}, RowCount: 1e6, BytesRead: 2.5e9},
		{TemplateHash: 0x78, Span: []int{9}},
	}
	rankPayload, err := api.BatchRankRequest{Jobs: jobs}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	rank := func(ctx context.Context, c *client.Client) error {
		_, err := c.RankBatch(ctx, jobs)
		return err
	}
	stats := func(ctx context.Context, c *client.Client) error {
		_, err := c.Stats(ctx)
		return err
	}
	const hints = "qoadvisor-hints v1 day=4\n0000000000000099,T9,-R047,4\n"
	jsonPost := wireCase{call: rank, method: http.MethodPost, path: api.RouteV2Rank, contentType: "application/json", payload: rankPayload}
	get := wireCase{call: stats, method: http.MethodGet, path: api.RouteV2Stats}
	with := func(wc wireCase, name, prefix string, jar bool) wireCase {
		wc.name, wc.prefix, wc.jar = name, prefix, jar
		return wc
	}
	return []wireCase{
		with(jsonPost, "JSON POST with a cookie jar", "", true),
		with(get, "GET with a cookie jar", "", true),
		with(jsonPost, "JSON POST", "", false),
		{name: "hint POST", call: func(ctx context.Context, c *client.Client) error {
			_, err := c.InstallHints(ctx, strings.NewReader(hints))
			return err
		}, method: http.MethodPost, path: api.RouteV2Hints, contentType: "text/plain", payload: []byte(hints)},
		with(get, "GET", "", false),
		{name: "GET with a query", call: func(ctx context.Context, c *client.Client) error {
			_, err := c.AuditTemplate(ctx, 0xabc)
			return err
		}, method: http.MethodGet, path: api.RouteV2AuditTemplate + "?template=" + api.TemplateHash(0xabc).String()},
		{name: "health probe", call: func(ctx context.Context, c *client.Client) error {
			_, err := c.Health(ctx)
			return err
		}, method: http.MethodGet, path: api.RouteV2Healthz},
		{name: "stream", call: func(ctx context.Context, c *client.Client) error {
			rc, err := c.BootstrapSnapshot(ctx)
			if err == nil {
				rc.Close()
			}
			return err
		}, method: http.MethodGet, path: api.RouteV2WALSnapshot},
		{name: "empty payload", call: func(ctx context.Context, c *client.Client) error {
			_, err := c.InstallHints(ctx, strings.NewReader(""))
			return err
		}, method: http.MethodPost, path: api.RouteV2Hints, contentType: "text/plain", payload: []byte{}},
		{name: "POST without a body", call: func(ctx context.Context, c *client.Client) error {
			_, err := c.TriggerIncident(ctx)
			return err
		}, method: http.MethodPost, path: api.RouteV2Incidents},
		with(jsonPost, "JSON POST under a path prefix", "/steer", false),
		with(get, "GET under a path prefix with a trailing slash", "/steer/", false),
		with(jsonPost, "JSON POST to a base with a trailing slash", "/", false),
	}
}

// wireListener is a raw listener that hands over each request's bytes
// as they arrived and answers every request `{}`, closing the
// connection after it.
func wireListener(t *testing.T) (base string, reqs <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan []byte, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var raw bytes.Buffer
				req, err := http.ReadRequest(bufio.NewReader(io.TeeReader(conn, &raw)))
				if err != nil {
					return
				}
				io.Copy(io.Discard, req.Body)
				ch <- raw.Bytes()
				io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}")
			}()
		}
	}()
	return "http://" + ln.Addr().String(), ch
}

// recordingTransport hands back `{}` for every request and keeps the
// last one it was given.
type recordingTransport struct{ last *http.Request }

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.last = req
	return &http.Response{
		Status: "200 OK", StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: io.NopCloser(strings.NewReader("{}")), ContentLength: 2, Request: req,
	}, nil
}

type ctxKey struct{}

// TestAPIConformanceClientRequestWire holds every shape of request the
// client sends to what http.NewRequestWithContext made of it: the bytes
// on the wire are the same, and the *http.Request a RoundTripper is
// handed carries the caller's context, the host, the length and a
// GetBody that replays the payload.
func TestAPIConformanceClientRequestWire(t *testing.T) {
	cases := wireCases(t)

	t.Run("wire bytes", func(t *testing.T) {
		server, reqs := wireListener(t)
		next := func() []byte {
			t.Helper()
			select {
			case raw := <-reqs:
				return raw
			case <-time.After(10 * time.Second):
				t.Fatal("no request reached the listener")
				return nil
			}
		}
		jar := func() http.CookieJar {
			jar, err := cookiejar.New(nil)
			if err != nil {
				t.Fatal(err)
			}
			u, _ := url.Parse(server)
			jar.SetCookies(u, []*http.Cookie{{Name: "session", Value: "s1"}})
			return jar
		}
		ctx := context.Background()
		for _, wc := range cases {
			base := server + wc.prefix
			hc, ref := &http.Client{Timeout: 10 * time.Second}, &http.Client{Timeout: 10 * time.Second}
			if wc.jar {
				hc.Jar, ref.Jar = jar(), jar()
			}
			c := client.New(base, client.WithHTTPClient(hc))
			// Twice: a header map written by one request must not show
			// in the next.
			for round := range 2 {
				if err := wc.call(ctx, c); err != nil {
					t.Fatalf("%s: %v", wc.name, err)
				}
				got := next()
				req, err := referenceRequest(ctx, base, wc)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := ref.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if want := next(); !bytes.Equal(got, want) {
					t.Errorf("%s, call %d: the client wrote\n%q\nthe reference\n%q", wc.name, round+1, got, want)
				}
			}
		}
	})

	t.Run("request fields", func(t *testing.T) {
		ctx := context.WithValue(context.Background(), ctxKey{}, "caller")
		for _, wc := range cases {
			base := "http://qoadvisor.test:8080" + wc.prefix
			rt := new(recordingTransport)
			c := client.New(base, client.WithHTTPClient(&http.Client{Transport: rt}))
			if err := wc.call(ctx, c); err != nil {
				t.Fatalf("%s: %v", wc.name, err)
			}
			got := rt.last
			want, err := referenceRequest(ctx, base, wc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Context() != ctx {
				t.Errorf("%s: request context is not the caller's", wc.name)
			}
			if got.Method != want.Method || got.URL.String() != want.URL.String() || got.Host != want.Host ||
				got.Proto != want.Proto || got.ContentLength != want.ContentLength {
				t.Errorf("%s: request %s %s host %q %s length %d, want %s %s host %q %s length %d", wc.name,
					got.Method, got.URL, got.Host, got.Proto, got.ContentLength,
					want.Method, want.URL, want.Host, want.Proto, want.ContentLength)
			}
			if !reflect.DeepEqual(got.URL, want.URL) {
				t.Errorf("%s: URL %#v, want %#v", wc.name, got.URL, want.URL)
			}
			if !reflect.DeepEqual(got.Header, want.Header) {
				t.Errorf("%s: header %v, want %v", wc.name, got.Header, want.Header)
			}
			if (got.Body == nil) != (want.Body == nil) || (got.GetBody == nil) != (want.GetBody == nil) {
				t.Fatalf("%s: body %v / GetBody set %v, want %v / %v", wc.name,
					got.Body, got.GetBody != nil, want.Body, want.GetBody != nil)
			}
			if got.Body == nil {
				continue
			}
			// net/http writes a body it knows to be in memory in one
			// flush with the header, and an io.NopCloser over a
			// *bytes.Reader is one it knows.
			if reflect.TypeOf(got.Body) != reflect.TypeOf(want.Body) {
				t.Errorf("%s: body is a %T, want a %T", wc.name, got.Body, want.Body)
			}
			if b, _ := io.ReadAll(got.Body); !bytes.Equal(b, wc.payload) {
				t.Errorf("%s: body %q, want %q", wc.name, b, wc.payload)
			}
			for i := range 2 {
				rc, err := got.GetBody()
				if err != nil {
					t.Fatal(err)
				}
				if b, _ := io.ReadAll(rc); !bytes.Equal(b, wc.payload) {
					t.Errorf("%s: GetBody %d yields %q, want %q", wc.name, i+1, b, wc.payload)
				}
			}
		}
	})

	// A base that does not parse fails every call with the parse error
	// the reference got, quoting the base instead of base+route. A
	// query or fragment on the base is dropped: the request is the one
	// the same base without them makes (the reference glued the route
	// into the query or fragment).
	t.Run("unusual bases", func(t *testing.T) {
		ctx := context.Background()
		for _, wc := range cases {
			const bad = "http://[::1"
			rt := new(recordingTransport)
			err := wc.call(ctx, client.New(bad+wc.prefix, client.WithHTTPClient(&http.Client{Transport: rt})))
			_, refErr := referenceRequest(ctx, bad+wc.prefix, wc)
			var got, want *url.Error
			if !errors.As(err, &got) || !errors.As(refErr, &want) {
				t.Fatalf("%s: base %q: error %v, reference %v; want a *url.Error from each", wc.name, bad+wc.prefix, err, refErr)
			}
			if got.Op != want.Op || got.Err.Error() != want.Err.Error() || got.URL != strings.TrimRight(bad+wc.prefix, "/") {
				t.Errorf("%s: error %v, want the reference's %v quoting the base", wc.name, got, want)
			}
			if rt.last != nil {
				t.Errorf("%s: a request reached the transport from an unparseable base", wc.name)
			}

			clean := "http://qoadvisor.test:8080" + strings.TrimRight(wc.prefix, "/")
			for _, suffix := range []string{"?", "?x=1", "#top", "/?x=1#top"} {
				rt := new(recordingTransport)
				if err := wc.call(ctx, client.New(clean+suffix, client.WithHTTPClient(&http.Client{Transport: rt}))); err != nil {
					t.Fatalf("%s: base %q: %v", wc.name, clean+suffix, err)
				}
				want, err := referenceRequest(ctx, clean, wc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rt.last.URL, want.URL) || rt.last.Host != want.Host {
					t.Errorf("%s: base %q: URL %#v host %q, want %#v host %q", wc.name, clean+suffix,
						rt.last.URL, rt.last.Host, want.URL, want.Host)
				}
			}
		}
	})
}
