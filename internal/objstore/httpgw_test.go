package objstore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

func newGateway(t *testing.T, token string) *HTTPStore {
	t.Helper()
	srv := httptest.NewServer(NewHandler(NewMemory(), token))
	t.Cleanup(srv.Close)
	return NewHTTPStore(srv.URL, token)
}

// url returns the full URL of container's route on s's gateway.
func (s *HTTPStore) url(container string) string {
	return "http://" + s.host + s.target(container)
}

// raw sends one request through http.DefaultClient and returns the
// response, whose body is closed when the test ends.
func raw(t *testing.T, s *HTTPStore, method, u string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// The full contract (incl. batch ops and ctx cancellation) runs through the
// storetest suite in conformance_test.go; these tests cover gateway-specific
// wire behaviour.

func TestHTTPStoreRoundTrip(t *testing.T) {
	s := newGateway(t, "")

	if err := s.PutMulti(ctx, "nope", []Object{{Key: "k", Data: []byte("v")}}); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("put without container: %v", err)
	}
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetMulti(ctx, "c", []string{"absent"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get absent: %v", err)
	}
	present, err := s.ExistsMulti(ctx, "c", []string{"absent"})
	if err != nil || present[0] {
		t.Fatalf("exists absent: %v %v", present, err)
	}

	payload := []byte{0, 1, 2, 254, 255, 'x'}
	if err := s.PutMulti(ctx, "c", []Object{{Key: "bin", Data: payload}}); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMulti(ctx, "c", []string{"bin"})
	if err != nil || !bytes.Equal(got[0], payload) {
		t.Fatalf("get: %v %v", got, err)
	}
	if err := s.PutMulti(ctx, "c", []Object{{Key: "second", Data: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	present, err = s.ExistsMulti(ctx, "c", []string{"bin", "second", "third"})
	if err != nil || !present[0] || !present[1] || present[2] {
		t.Fatalf("exists: %v %v", present, err)
	}
}

// TestHTTPStoreBatchRoundTrip moves binary payloads through the multi
// routes and checks the partial-result reconstruction on misses.
func TestHTTPStoreBatchRoundTrip(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	objs := []Object{
		{Key: "a", Data: []byte{0, 255, 1, 254}},
		{Key: "b", Data: []byte("plain")},
		{Key: "empty", Data: nil},
	}
	if err := s.PutMulti(ctx, "c", objs); err != nil {
		t.Fatal(err)
	}
	data, err := s.GetMulti(ctx, "c", []string{"b", "a", "empty", "missing"})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("batch miss error = %v", err)
	}
	if string(data[0]) != "plain" || !bytes.Equal(data[1], objs[0].Data) {
		t.Fatalf("batch data = %q", data)
	}
	if data[2] == nil || len(data[2]) != 0 {
		t.Fatalf("empty object = %v", data[2])
	}
	if data[3] != nil {
		t.Fatalf("missing object = %v, want nil", data[3])
	}
	present, err := s.ExistsMulti(ctx, "c", []string{"a", "missing", "empty"})
	if err != nil || !present[0] || present[1] || !present[2] {
		t.Fatalf("batch exists = %v, %v", present, err)
	}
}

// TestHTTPErrorMappingUniform: the gateway names the sentinel in a response
// header, so errors.Is classification is identical to local backends even
// where status codes collide (object-miss vs container-miss are both 404).
func TestHTTPErrorMappingUniform(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	// A missing container must be ErrNoContainer, not a miss or a silent
	// false — the header disambiguates the two 404s.
	if _, err := s.ExistsMulti(ctx, "nope", []string{"k"}); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("existsmulti without container: %v", err)
	}
	if _, err := s.GetMulti(ctx, "nope", []string{"k"}); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("getmulti without container: %v", err)
	}
	if err := s.PutMulti(ctx, "nope", []Object{{Key: "k"}}); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("putmulti without container: %v", err)
	}
	if _, err := s.GetMulti(ctx, "c", []string{"absent"}); !errors.Is(err, ErrNotFound) || errors.Is(err, ErrNoContainer) {
		t.Fatalf("getmulti absent object: %v", err)
	}
}

// TestHTTPStoreHonorsContext: a canceled context aborts the request and the
// context error survives errors.Is through the transport wrapping.
func TestHTTPStoreHonorsContext(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.PutMulti(canceled, "c", []Object{{Key: "k", Data: []byte("v")}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("put with canceled ctx: %v", err)
	}
	if _, err := s.GetMulti(canceled, "c", []string{"k"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("getmulti with canceled ctx: %v", err)
	}
}

func TestHTTPStoreTokenAuth(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewMemory(), "secret"))
	t.Cleanup(srv.Close)

	good := NewHTTPStore(srv.URL, "secret")
	if err := good.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	bad := NewHTTPStore(srv.URL, "wrong")
	if err := bad.EnsureContainer(ctx, "c"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong token: %v", err)
	}
	if err := bad.PutMulti(ctx, "c", []Object{{Key: "big", Data: make([]byte, 4<<20)}}); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong token, 4 MB body: %v", err)
	}
	none := NewHTTPStore(srv.URL, "")
	if _, err := none.GetMulti(ctx, "c", []string{"k"}); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("missing token: %v", err)
	}
	if err := none.PutMulti(ctx, "c", []Object{{Key: "k"}}); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("missing token batch: %v", err)
	}
}

// TestHTTPStoreRefusedPutReturnsPromptly: the gateway reads a refused
// body before it answers, so a refused 8 MB put, more than the loopback
// socket buffers hold, returns as soon as the body is sent. A gateway that
// answered from the head and left the body unread stalled the client's
// write until the server reset the connection after its ~0.5 s lingering
// close. The fewest of three tries is taken.
func TestHTTPStoreRefusedPutReturnsPromptly(t *testing.T) {
	bad := newGateway(t, "secret")
	bad.token = "wrong"
	data := make([]byte, 8<<20)
	fewest := time.Duration(-1)
	for try := 0; try < 3; try++ {
		start := time.Now()
		if err := bad.PutMulti(ctx, "c", []Object{{Key: "big", Data: data}}); !errors.Is(err, ErrUnauthorized) {
			t.Fatalf("wrong token, 8 MB body: %v", err)
		}
		if took := time.Since(start); fewest < 0 || took < fewest {
			fewest = took
		}
	}
	t.Logf("fastest of three refused 8 MB puts: %v", fewest)
	if fewest > 250*time.Millisecond {
		t.Fatalf("the fastest of three refused 8 MB puts took %v, want well under the 0.5 s lingering close", fewest)
	}
}

func TestHTTPHandlerRejectsBadRoutes(t *testing.T) {
	s := newGateway(t, "")
	// POST on an object path is not a route.
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	resp := raw(t, s, "POST", s.url("c")+"/k", nil)
	if resp.StatusCode != 405 {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
	resp2 := raw(t, s, "GET", "http://"+s.host+"/other", nil)
	if resp2.StatusCode != 404 {
		t.Fatalf("bad path status = %d, want 404", resp2.StatusCode)
	}
	// POST on a container with an unknown multi op.
	resp3 := raw(t, s, "POST", s.url("c")+"?multi=zap", bytes.NewReader([]byte("[]")))
	if resp3.StatusCode != 400 {
		t.Fatalf("unknown multi op status = %d, want 400", resp3.StatusCode)
	}
}

func TestHTTPStoreKeysWithSpecialCharacters(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	key := "weird key/with? things#"
	if err := s.PutMulti(ctx, "c", []Object{{Key: key, Data: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMulti(ctx, "c", []string{key})
	if err != nil || string(got[0]) != "v" {
		t.Fatalf("special key round trip: %q %v", got, err)
	}
}

// TestHTTPGatewayRefusesLegacyBodies: a JSON batch body from a client of the
// JSON-era gateway, or a binary one without the magic byte, is answered 4xx
// and stores nothing. Without the magic, '[' would read as a field length.
func TestHTTPGatewayRefusesLegacyBodies(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	unmarked, err := putBody([]Object{{Key: "k", Data: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ op, body string }{
		{"put", `[{"key":"k","data":"dg=="}]`},
		{"put", `[]`},
		{"put", string(unmarked[1:])},
		{"get", `["k"]`},
		{"exists", `["k"]`},
		{"get", ""},
	} {
		resp := raw(t, s, http.MethodPost, s.url("c")+"?multi="+tc.op, strings.NewReader(tc.body))
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("%s %q: status %d, want 4xx", tc.op, tc.body, resp.StatusCode)
		}
	}
	if present, err := s.ExistsMulti(ctx, "c", []string{"k"}); err != nil || present[0] {
		t.Fatalf("legacy bodies stored k: %v (%v)", present, err)
	}
}

// TestHTTPGatewayBodyCap: a body over maxBatchBody is refused whole on both
// sides, never truncated, and stores nothing.
func TestHTTPGatewayBodyCap(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewMemory(), ""))
	t.Cleanup(srv.Close)
	s := NewHTTPStore(srv.URL, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}

	// A declared Content-Length over the cap is answered from the headers:
	// the body is never sent, so a gateway that waited for it would hang.
	for _, path := range []string{"/v1/c?multi=put", "/v1/c?multi=get"} {
		method := http.MethodPost
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: gw\r\nContent-Length: %d\r\n\r\n", method, path, maxBatchBody+1)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s over the cap: status %d, want 413", method, path, resp.StatusCode)
		}
	}

	// A chunked body is read up to the cap and refused past it.
	if _, err := readBody(strings.NewReader("12345"), -1, 4); !errors.Is(err, errTooLarge) {
		t.Fatalf("chunked body past the cap: %v", err)
	}
	if b, err := readBody(strings.NewReader("1234"), -1, 4); err != nil || string(b) != "1234" {
		t.Fatalf("chunked body at the cap: %q %v", b, err)
	}
	if _, err := readBody(iotest.ErrReader(errors.New("read")), 5, 4); !errors.Is(err, errTooLarge) {
		t.Fatalf("declared length past the cap: %v", err)
	}
	// Under the cap, a chunked batch body is accepted.
	body, err := putBody([]Object{{Key: "chunked", Data: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	resp := raw(t, s, http.MethodPost, s.url("c")+"?multi=put", io.MultiReader(bytes.NewReader(body)))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("chunked batch under the cap: status %d", resp.StatusCode)
	}

	// An over-cap PutMulti (65 MB, one shared 1 MB slice) is refused before
	// it is sent.
	mb := make([]byte, 1<<20)
	objs := make([]Object, 65)
	for i := range objs {
		objs[i] = Object{Key: strconv.Itoa(i), Data: mb}
	}
	if err := s.PutMulti(ctx, "c", objs); !errors.Is(err, errTooLarge) {
		t.Fatalf("over-cap PutMulti: %v", err)
	}
	keys := []string{"chunked"}
	for _, o := range objs {
		keys = append(keys, o.Key)
	}
	present, err := s.ExistsMulti(ctx, "c", keys)
	if err != nil || !present[0] || slices.Contains(present[1:], true) {
		t.Fatalf("after refused bodies the container holds %v (%v)", present, err)
	}

	// The client refuses a response that declares more than the cap.
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxBatchBody+1))
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(liar.Close)
	remote := NewHTTPStore(liar.URL, "")
	if _, err := remote.GetMulti(ctx, "c", []string{"k"}); !errors.Is(err, errTooLarge) {
		t.Fatalf("GetMulti of an over-cap response: %v", err)
	}
	if _, err := remote.ExistsMulti(ctx, "c", []string{"k"}); !errors.Is(err, errTooLarge) {
		t.Fatalf("ExistsMulti of an over-cap response: %v", err)
	}
}

// TestHTTPGatewayRefusesSingleObjectRoutes: the Store API is batch-only, so
// the gateway has no object routes and no listing. A single-object PUT, GET,
// HEAD or DELETE, or a GET of the container, is answered 4xx and stores
// nothing.
func TestHTTPGatewayRefusesSingleObjectRoutes(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ method, path string }{
		{http.MethodPut, "/v1/c/k"},
		{http.MethodGet, "/v1/c/k"},
		{http.MethodHead, "/v1/c/k"},
		{http.MethodDelete, "/v1/c/k"},
		{http.MethodGet, "/v1/c"},
	} {
		resp := raw(t, s, tc.method, "http://"+s.host+tc.path, strings.NewReader("v"))
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("%s %s: status %d, want 4xx", tc.method, tc.path, resp.StatusCode)
		}
	}
	if present, err := s.ExistsMulti(ctx, "c", []string{"k"}); err != nil || present[0] {
		t.Fatalf("single-object routes stored k: %v (%v)", present, err)
	}
}

// newCountedGateway serves h on a listener that counts its accepts and the
// Read calls on them, and returns a store pointed at it.
func newCountedGateway(t *testing.T, h http.Handler) (*HTTPStore, *httptest.Server, *countingListener) {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	ln := &countingListener{Listener: srv.Listener}
	srv.Listener = ln
	srv.Start()
	t.Cleanup(srv.Close)
	return NewHTTPStore(srv.URL, ""), srv, ln
}

// TestHTTPStoreReusesConnections: sequential calls share one kept-alive
// connection, whatever the operation.
func TestHTTPStoreReusesConnections(t *testing.T) {
	s, _, ln := newCountedGateway(t, NewHandler(NewMemory(), ""))
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		var err error
		switch key := strconv.Itoa(i); i % 3 {
		case 0:
			err = s.PutMulti(ctx, "c", []Object{{Key: key, Data: []byte(key)}})
		case 1:
			_, err = s.ExistsMulti(ctx, "c", []string{key})
		default:
			_, err = s.GetMulti(ctx, "c", []string{strconv.Itoa(i - 2)})
			if i == 2 && errors.Is(err, ErrNotFound) {
				err = nil
			}
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("50 sequential calls opened %d connections, want 1", n)
	}
}

// TestHTTPStoreRetriesStaleConnection: a pooled connection the gateway has
// closed fails before any response byte arrives, and the call is sent once
// more on a fresh connection rather than failing.
func TestHTTPStoreRetriesStaleConnection(t *testing.T) {
	s, srv, ln := newCountedGateway(t, NewHandler(NewMemory(), ""))
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	srv.CloseClientConnections()
	if err := s.PutMulti(ctx, "c", []Object{{Key: "k", Data: []byte("v")}}); err != nil {
		t.Fatalf("put on a connection the gateway closed: %v", err)
	}
	if n := ln.accepts.Load(); n != 2 {
		t.Fatalf("the gateway accepted %d connections, want 2 (one redial)", n)
	}
	if got, err := s.GetMulti(ctx, "c", []string{"k"}); err != nil || string(got[0]) != "v" {
		t.Fatalf("get after the redial: %q %v", got, err)
	}
	if n := ln.accepts.Load(); n != 2 {
		t.Fatalf("the redialed connection was not kept: %d accepts", n)
	}
}

// TestHTTPStoreCancelMidFlight: canceling a call blocked on the gateway
// returns the context's error at once, and the connection it held is not
// pooled: the next call succeeds on a fresh one.
func TestHTTPStoreCancelMidFlight(t *testing.T) {
	var block atomic.Bool
	entered, release := make(chan struct{}, 1), make(chan struct{})
	h := NewHandler(NewMemory(), "")
	s, _, ln := newCountedGateway(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if block.Load() {
			entered <- struct{}{}
			<-release
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { close(release) }) // before the server's Close waits for the handler
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	block.Store(true)
	cctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.PutMulti(cctx, "c", []Object{{Key: "k", Data: []byte("v")}}) }()
	<-entered
	block.Store(false)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled put: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a canceled put did not return within 1 s")
	}
	if err := s.PutMulti(ctx, "c", []Object{{Key: "k", Data: []byte("v")}}); err != nil {
		t.Fatalf("put after a cancel: %v", err)
	}
	if n := ln.accepts.Load(); n != 2 {
		t.Fatalf("the gateway accepted %d connections, want 2 (the canceled one is not reused)", n)
	}
}

// TestHTTPStoreSendsRequestInOneWrite: a 2 MB PutMulti leaves the client in
// one write call, head and body together, so the gateway can read it in a
// few calls instead of chasing 32 KB pieces. The gateway here is a raw
// listener that reads each whole request and answers it in one write, so
// the process makes the client's writes and that one.
func TestHTTPStoreSendsRequestInOneWrite(t *testing.T) {
	writes := countCalls(t, "syscw")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReaderSize(c, 1<<20)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					if _, err := io.Copy(io.Discard, req.Body); err != nil {
						return
					}
					if _, err := io.WriteString(c, "HTTP/1.1 201 Created\r\nContent-Length: 0\r\n\r\n"); err != nil {
						return
					}
				}
			}()
		}
	}()
	s := NewHTTPStore("http://"+ln.Addr().String(), "")
	t.Cleanup(func() { // ends the listener's connection goroutines
		for c := s.idleConn(); c != nil; c = s.idleConn() {
			c.Close()
		}
	})
	data := make([]byte, 2<<20)
	fewest := int64(-1)
	for try := 0; try < 3; try++ {
		var err error
		n := writes(func() { err = s.PutMulti(ctx, "c", []Object{{Key: "k", Data: data}}) })
		if err != nil {
			t.Fatal(err)
		}
		if fewest < 0 || n < fewest {
			fewest = n
		}
	}
	if fewest > 2 {
		t.Fatalf("a 2 MB put cost the process %d write calls, want at most 2 (the request, the answer)", fewest)
	}
}

// TestHTTPStoreRefusesOtherSchemes: only plain-HTTP gateways are reached; a
// store for any other URL fails every call with an error naming it.
func TestHTTPStoreRefusesOtherSchemes(t *testing.T) {
	s := NewHTTPStore("https://gw.example:443", "")
	if err := s.EnsureContainer(ctx, "c"); err == nil || !strings.Contains(err.Error(), `"https"`) {
		t.Fatalf("https gateway: %v", err)
	}
}
