package objstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HTTP gateway: exposes a Store over a Swift-flavoured REST API so that
// clients on other machines reach the Storage back-end directly (the
// decoupled data flow of §4). The Store API is batch-only, so the gateway
// has two routes:
//
//	PUT    /v1/{container}                  create container
//	POST   /v1/{container}?multi=put        batch store (key, data fields)
//	POST   /v1/{container}?multi=get        batch fetch (key fields -> found flags, hits' data)
//	POST   /v1/{container}?multi=exists     batch probe (key fields -> one flag per key)
//
// Any other method, and any path below a container, is refused with 405
// without reading the body, so nothing is stored through it.
//
// A batch body, request or response, is batchMagic, flag bytes (responses
// only), then fields framed as uvarint(len) | bytes. Every body is read into
// one buffer sized from Content-Length and written in one Write with
// Content-Length set; one over maxBatchBody is refused (413), not truncated.
//
// An optional bearer token (X-Auth-Token, as in Swift) gates all routes.
// Error responses carry an X-Objstore-Error header naming the sentinel
// ("not-found", "no-container", "unauthorized") so HTTPStore maps remote
// failures onto the same errors.Is-able values local backends return.

// errHeader is the response header carrying the sentinel error kind.
const errHeader = "X-Objstore-Error"

// maxBatchBody bounds every body the gateway and HTTPStore build or read (64 MB).
const maxBatchBody = 64 << 20

// batchMagic opens every batch body: a UTF-8 continuation byte, which no
// JSON text starts with, so a JSON-era client's body is refused, not misparsed.
const batchMagic = 0xB5

var errBadBatch = errors.New("objstore: malformed batch body")
var errTooLarge = errors.New("objstore: body exceeds the 64 MB cap")

// encodeBatch builds a batch body in one exactly sized buffer.
func encodeBatch[T string | []byte](flags []byte, fields []T) ([]byte, error) {
	size := 1 + len(flags)
	for _, f := range fields {
		size += (bits.Len64(uint64(len(f))|1)+6)/7 + len(f) // uvarint(len) + bytes
	}
	if size > maxBatchBody {
		return nil, errTooLarge
	}
	b := append(append(make([]byte, 0, size), batchMagic), flags...)
	for _, f := range fields {
		b = append(binary.AppendUvarint(b, uint64(len(f))), f...)
	}
	return b, nil
}

// decodeBatch splits a batch body into n flags, each 0 or 1, and the fields
// after them. Fields alias body, capped so an append cannot clobber the next.
func decodeBatch(body []byte, n int) (flags []byte, fields [][]byte, err error) {
	if len(body) <= n || body[0] != batchMagic || len(bytes.Trim(body[1:1+n], "\x00\x01")) > 0 {
		return nil, nil, errBadBatch
	}
	flags, rest := body[1:1+n], body[1+n:]
	for len(rest) > 0 {
		l, k := binary.Uvarint(rest)
		if k <= 0 || l > uint64(len(rest)-k) {
			return nil, nil, errBadBatch
		}
		end := k + int(l)
		fields, rest = append(fields, rest[k:end:end]), rest[end:]
	}
	return flags, fields, nil
}

// decodeObjects decodes a multi=put request: key, data field pairs.
func decodeObjects(body []byte) ([]Object, error) {
	_, f, err := decodeBatch(body, 0)
	if err != nil || len(f)%2 != 0 {
		return nil, errBadBatch
	}
	objs := make([]Object, len(f)/2)
	for i := range objs {
		objs[i] = Object{Key: string(f[2*i]), Data: f[2*i+1]}
	}
	return objs, nil
}

// decodeKeys decodes a multi=get or multi=exists request: one key per field.
func decodeKeys(body []byte) ([]string, error) {
	_, f, err := decodeBatch(body, 0)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(f))
	for i := range f {
		keys[i] = string(f[i])
	}
	return keys, nil
}

// encodeGetResult encodes a multi=get response: one found flag per entry,
// then the data of each non-nil entry.
func encodeGetResult(data [][]byte) ([]byte, error) {
	flags, hits := make([]byte, len(data)), make([][]byte, 0, len(data))
	for i, d := range data {
		if d != nil {
			flags[i], hits = 1, append(hits, d)
		}
	}
	return encodeBatch(flags, hits)
}

// decodeGetResult decodes a multi=get response for n keys. Hits are non-nil
// (an empty object is an empty slice) and alias body; misses are nil.
func decodeGetResult(body []byte, n int) ([][]byte, error) {
	flags, hits, err := decodeBatch(body, n)
	if err != nil || bytes.Count(flags, []byte{1}) != len(hits) {
		return nil, errBadBatch
	}
	out := make([][]byte, n)
	for i, f := range flags {
		if f == 1 {
			out[i], hits = hits[0], hits[1:]
		}
	}
	return out, nil
}

// readBody reads a body of declared length n (-1 when unknown) into one
// buffer, refusing one longer than limit rather than truncating it.
func readBody(body io.Reader, n, limit int64) ([]byte, error) {
	if n > limit {
		return nil, errTooLarge
	}
	if n < 0 {
		b, err := io.ReadAll(io.LimitReader(body, limit+1))
		if err == nil && int64(len(b)) > limit {
			err = errTooLarge
		}
		return b, err
	}
	b := make([]byte, n)
	_, err := io.ReadFull(body, b)
	return b, err
}

// writeBody sends body in one Write with Content-Length set: not chunked.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// Handler serves a Store over HTTP.
type Handler struct {
	store Store
	// token, when non-empty, must match the X-Auth-Token header.
	token string
}

var _ http.Handler = (*Handler)(nil)

// NewHandler wraps store; token "" disables authentication.
func NewHandler(store Store, token string) *Handler {
	return &Handler{store: store, token: token}
}

// ServeHTTP dispatches gateway requests.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.token != "" && r.Header.Get("X-Auth-Token") != h.token {
		// HTTPStore writes a whole request before it reads: a body left unread
		// would stall it until the server's lingering close resets the conn.
		_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, maxBatchBody)) // refused either way
		w.Header().Set(errHeader, "unauthorized")
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/")
	if !ok || rest == "" {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	container, _, hasObject := strings.Cut(rest, "/")
	switch {
	case container == "":
		http.Error(w, "container required", http.StatusBadRequest)
	case hasObject:
		http.Error(w, "no object routes: use POST /v1/{container}?multi=", http.StatusMethodNotAllowed)
	case r.Method == http.MethodPost:
		h.serveBatch(w, r, container)
	case r.Method == http.MethodPut:
		if err := h.store.EnsureContainer(r.Context(), container); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveBatch dispatches the multi=put/get/exists routes.
func (h *Handler) serveBatch(w http.ResponseWriter, r *http.Request, container string) {
	ctx := r.Context()
	body, err := readBody(r.Body, r.ContentLength, maxBatchBody)
	if err != nil {
		writeError(w, err)
		return
	}
	var keys []string
	var resp []byte
	switch r.URL.Query().Get("multi") {
	case "put":
		var objs []Object
		if objs, err = decodeObjects(body); err == nil {
			err = h.store.PutMulti(ctx, container, objs)
		}
		if err == nil {
			w.WriteHeader(http.StatusCreated)
			return
		}
	case "get":
		var data [][]byte
		if keys, err = decodeKeys(body); err == nil {
			data, err = h.store.GetMulti(ctx, container, keys)
		}
		// Misses are encoded per entry; anything else aborts the batch.
		if err == nil || errors.Is(err, ErrNotFound) {
			resp, err = encodeGetResult(data)
		}
	case "exists":
		var present []bool
		if keys, err = decodeKeys(body); err == nil {
			present, err = h.store.ExistsMulti(ctx, container, keys)
		}
		flags := make([]byte, len(present))
		for i, p := range present {
			if p {
				flags[i] = 1
			}
		}
		if err == nil {
			resp, err = encodeBatch(flags, []string(nil))
		}
	default:
		http.Error(w, "unknown batch operation", http.StatusBadRequest)
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, resp)
}

// writeError maps a store error onto a status code and sentinel header.
func writeError(w http.ResponseWriter, err error) {
	status, kind := statusFor(err)
	if kind != "" {
		w.Header().Set(errHeader, kind)
	}
	http.Error(w, err.Error(), status)
}

// statusFor returns the HTTP status and sentinel kind of a store or body error.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, ErrNoContainer):
		return http.StatusNotFound, "no-container"
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not-found"
	case errors.Is(err, ErrUnauthorized):
		return http.StatusForbidden, "unauthorized"
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge, ""
	case errors.Is(err, errBadBatch), errors.Is(err, io.ErrUnexpectedEOF):
		return http.StatusBadRequest, ""
	default:
		return http.StatusInternalServerError, ""
	}
}

// sentinelFor inverts statusFor on the client side: header first (our own
// gateway), then status-code heuristics (foreign Swift-like gateways).
func sentinelFor(resp *http.Response, msg string) error {
	switch resp.Header.Get(errHeader) {
	case "no-container":
		return ErrNoContainer
	case "not-found":
		return ErrNotFound
	case "unauthorized":
		return ErrUnauthorized
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		if strings.Contains(msg, "container") {
			return ErrNoContainer
		}
		return ErrNotFound
	case http.StatusUnauthorized, http.StatusForbidden:
		return ErrUnauthorized
	}
	return nil
}

// HTTPStore is a Store backed by a remote gateway. It speaks HTTP/1.1
// itself: each request's head and body leave in one writev on a kept-alive
// connection from its own pool (DESIGN §12). Only http:// gateways are
// reached, and never through a proxy.
type HTTPStore struct {
	addr  string // host:port to dial
	host  string // the Host header
	path  string // the base URL's path, ahead of /v1/
	token string
	err   error // why the base URL cannot be reached, returned by every call

	mu   sync.Mutex
	idle []*gwConn // last in, first out
}

var _ Store = (*HTTPStore)(nil)

// gwConn is one kept-alive connection to the gateway.
type gwConn struct {
	net.Conn
	br *bufio.Reader
}

// errNoResponse marks a request that failed before any byte of its response
// arrived: on a reused connection, the gateway may have closed it idle.
var errNoResponse = errors.New("no response")

// NewHTTPStore points at a gateway base URL (e.g. "http://host:8080"). A URL
// of another scheme, or a token that cannot travel in a header, makes every
// call fail with an error naming it.
func NewHTTPStore(baseURL, token string) *HTTPStore {
	s := &HTTPStore{token: token}
	u, err := url.Parse(strings.TrimSuffix(baseURL, "/"))
	switch {
	case err != nil:
		s.err = fmt.Errorf("objstore: gateway URL: %w", err)
	case u.Scheme != "http":
		s.err = fmt.Errorf("objstore: gateway URL %q: scheme %q is not supported, only http://", baseURL, u.Scheme)
	case strings.ContainsAny(token, "\r\n"):
		s.err = errors.New("objstore: gateway token holds a line break")
	default:
		s.addr, s.host, s.path = u.Host, u.Host, u.EscapedPath()
		if u.Port() == "" {
			s.addr = net.JoinHostPort(u.Hostname(), "80")
		}
	}
	return s
}

// target returns the request target of container's route.
func (s *HTTPStore) target(container string) string {
	return s.path + "/v1/" + url.PathEscape(container)
}

// call sends one request bound to ctx and returns the response body.
// Canceling the context aborts the request mid-flight and surfaces the
// context's error to errors.Is. A request that fails on a reused connection
// before any response byte arrives is sent once more on a fresh one: every
// gateway operation is idempotent.
func (s *HTTPStore) call(ctx context.Context, method, target string, body []byte) ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("objstore: %s %s: %w", method, target, err)
	}
	head := s.head(method, target, len(body))
	c := s.idleConn()
	out, err := s.roundTrip(ctx, c, head, body)
	if c != nil && errors.Is(err, errNoResponse) && ctx.Err() == nil {
		out, err = s.roundTrip(ctx, nil, head, body)
	}
	if err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("objstore: %s %s: %w", method, target, ctx.Err())
	}
	return out, err
}

// head builds a request's line and headers.
func (s *HTTPStore) head(method, target string, n int) []byte {
	b := make([]byte, 0, 96+len(target)+len(s.host)+len(s.token))
	b = append(append(append(b, method...), ' '), target...)
	b = append(append(b, " HTTP/1.1\r\nHost: "...), s.host...)
	b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(n), 10)
	if s.token != "" {
		b = append(append(b, "\r\nX-Auth-Token: "...), s.token...)
	}
	return append(b, "\r\n\r\n"...)
}

// idleConn takes the connection returned last, or nil if none is idle.
func (s *HTTPStore) idleConn() *gwConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idle)
	if n == 0 {
		return nil
	}
	c := s.idle[n-1]
	s.idle[n-1], s.idle = nil, s.idle[:n-1]
	return c
}

// roundTrip sends one request on c, or on a fresh connection if c is nil,
// and reads its response body. The connection goes back to the pool only
// after a 2xx response read to its end that leaves it open, and only if
// ctx's cancellation has not touched it; any other outcome closes it.
func (s *HTTPStore) roundTrip(ctx context.Context, c *gwConn, head, body []byte) ([]byte, error) {
	if c == nil {
		nc, err := new(net.Dialer).DialContext(ctx, "tcp", s.addr)
		if err != nil {
			return nil, fmt.Errorf("objstore: dial gateway: %w", err)
		}
		c = &gwConn{Conn: nc, br: bufio.NewReader(nc)}
	}
	// A past deadline wakes a blocked write or read at once.
	stop := context.AfterFunc(ctx, func() { _ = c.SetDeadline(time.Unix(1, 0)) })
	out, keep, err := c.exchange(head, body)
	if stop() && keep {
		s.mu.Lock()
		s.idle = append(s.idle, c)
		s.mu.Unlock()
	} else {
		c.Close()
	}
	return out, err
}

// exchange writes head and body in one writev and reads the response,
// reporting whether c may carry another request.
func (c *gwConn) exchange(head, body []byte) (out []byte, keep bool, err error) {
	bufs := net.Buffers{head, body}
	_, werr := bufs.WriteTo(c.Conn)
	// A gateway may answer from the head alone and close without reading
	// the body, failing the write: read its answer anyway.
	if _, err := c.br.Peek(1); err != nil {
		return nil, false, fmt.Errorf("objstore: gateway sent %w: %w", errNoResponse, errors.Join(werr, err))
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, false, fmt.Errorf("objstore: read response: %w", err)
	}
	if err := checkStatus(resp); err != nil {
		return nil, false, err
	}
	if out, err = readBody(resp.Body, resp.ContentLength, maxBatchBody); err != nil {
		return nil, false, fmt.Errorf("objstore: read body: %w", err)
	}
	return out, werr == nil && !resp.Close && c.br.Buffered() == 0, nil
}

// checkStatus maps non-2xx responses onto the objstore sentinel errors so
// errors.Is behaves identically across local and remote backends.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	trimmed := strings.TrimSpace(string(msg))
	if sentinel := sentinelFor(resp, trimmed); sentinel != nil {
		return fmt.Errorf("objstore: remote: %s: %w", trimmed, sentinel)
	}
	return fmt.Errorf("objstore: remote status %d: %s", resp.StatusCode, trimmed)
}

// EnsureContainer creates the remote container.
func (s *HTTPStore) EnsureContainer(ctx context.Context, container string) error {
	_, err := s.call(ctx, http.MethodPut, s.target(container), nil)
	return err
}

// postBatch sends fields as one multi=<op> request and returns the response
// body. A request body past maxBatchBody is refused before anything is sent.
func postBatch[T string | []byte](ctx context.Context, s *HTTPStore, container, op string, fields []T) ([]byte, error) {
	body, err := encodeBatch(nil, fields)
	if err != nil {
		return nil, opErr(op+"multi", container, "", err)
	}
	return s.call(ctx, http.MethodPost, s.target(container)+"?multi="+op, body)
}

// PutMulti ships the whole batch in one round trip.
func (s *HTTPStore) PutMulti(ctx context.Context, container string, objects []Object) error {
	fields := make([][]byte, 0, 2*len(objects))
	for _, o := range objects {
		fields = append(fields, []byte(o.Key), o.Data)
	}
	_, err := postBatch(ctx, s, container, "put", fields)
	return err
}

// GetMulti fetches the whole batch in one round trip, reconstructing the
// partial-result contract from the per-key found flags. The returned slices
// alias one response buffer: nothing reuses it, but keeping any one slice
// keeps the whole buffer alive.
func (s *HTTPStore) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	body, err := postBatch(ctx, s, container, "get", keys)
	if err != nil {
		return nil, err
	}
	out, err := decodeGetResult(body, len(keys))
	if err != nil {
		return nil, fmt.Errorf("objstore: decode batch: %w", err)
	}
	var errs []error
	for i, d := range out {
		if d == nil {
			errs = append(errs, opErr("getmulti", container, keys[i], ErrNotFound))
		}
	}
	return out, errors.Join(errs...)
}

// ExistsMulti probes the whole batch in one round trip.
func (s *HTTPStore) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	body, err := postBatch(ctx, s, container, "exists", keys)
	if err != nil {
		return nil, err
	}
	flags, rest, err := decodeBatch(body, len(keys))
	if err != nil || len(rest) > 0 {
		return nil, fmt.Errorf("objstore: decode batch: %w", errBadBatch)
	}
	present := make([]bool, len(keys))
	for i, f := range flags {
		present[i] = f == 1
	}
	return present, nil
}
