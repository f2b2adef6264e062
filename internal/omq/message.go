// Package omq is ObjectMQ: a lightweight framework providing programmatic
// elasticity to distributed objects over a message-queue system (paper §3).
//
// A Broker binds server objects to named queues (Bind) and creates dynamic
// client proxies (Lookup). Three invocation primitives mirror the paper's
// method decorators: Proxy.Async (@AsyncMethod), Proxy.Call (@SyncMethod
// with timeout and retries) and Proxy.Multi / Proxy.MultiCall
// (@MultiMethod combined with the other two). Load balancing, at-least-once
// delivery, and change notification all come from the underlying mq layer.
package omq

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"stacksync/internal/codec"
	"stacksync/internal/mq"
)

// bin encodes every envelope, argument and result. The paper's
// implementation can swap in Kryo, Java serialization or JSON; here one
// compact binary codec is the whole wire contract, so there is nothing to
// negotiate per message.
var bin = codec.Default()

// request is the envelope published to a remote object's queue; argument
// payloads are bin-encoded byte slices inside it. The codec drops trailing
// zero fields, so the fields a one-way call leaves empty come last: a
// notification or commit request ends at OneWay.
type request struct {
	Method string
	Args   [][]byte
	// OneWay marks @AsyncMethod calls: no response is produced even on
	// handler error, matching "the client is not even notified whether the
	// message was handled correctly" (§3.2).
	OneWay        bool
	CorrelationID string
	ReplyTo       string
	// RequestID identifies the logical call: it is stable across the retry
	// attempts of one Proxy.Call (each attempt gets a fresh CorrelationID).
	// Servers use it to deduplicate a retried @SyncMethod instead of
	// executing it twice.
	RequestID string
}

// response is the envelope published to the caller's private reply queue.
type response struct {
	CorrelationID string
	Result        []byte
	Err           string
	// From identifies the responding server instance; multi-calls use it to
	// attribute collected replies.
	From string
}

func encodeRequest(r *request) ([]byte, error) {
	data, err := bin.MarshalAppend(nil, r)
	if err != nil {
		return nil, fmt.Errorf("omq: encode request: %w", err)
	}
	return data, nil
}

// decodeRequest decodes a request envelope. Anything else — including the
// JSON envelope of pre-binary peers — is an error, and the server drops it.
func decodeRequest(data []byte) (*request, error) {
	var r request
	if err := bin.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("omq: decode request: %w", err)
	}
	return &r, nil
}

func encodeResponse(r *response) ([]byte, error) {
	data, err := bin.MarshalAppend(nil, r)
	if err != nil {
		return nil, fmt.Errorf("omq: encode response: %w", err)
	}
	return data, nil
}

func decodeResponse(data []byte) (*response, error) {
	var r response
	if err := bin.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("omq: decode response: %w", err)
	}
	return &r, nil
}

// RemoteError is the error type a sync caller receives when the remote
// handler returned an error.
type RemoteError struct {
	Method string
	Msg    string
}

// Error formats the remote failure.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("omq: remote %s: %s", e.Method, e.Msg)
}

// Unwrap maps a reply refused as too large for one frame back to
// mq.ErrTooLarge, so errors.Is works across the network boundary.
func (e *RemoteError) Unwrap() error {
	if strings.HasSuffix(e.Msg, mq.ErrTooLarge.Error()) {
		return mq.ErrTooLarge
	}
	return nil
}

// Errors returned by ObjectMQ.
var (
	// ErrTimeout reports that a @SyncMethod exhausted its retries without a
	// response within the configured timeout.
	ErrTimeout = errors.New("omq: call timed out")
	// ErrClosed reports use of a closed Broker.
	ErrClosed = errors.New("omq: broker closed")
	// ErrAlreadyBound reports Bind of an object id this broker already serves.
	ErrAlreadyBound = errors.New("omq: object already bound on this broker")
	// ErrNoMethod reports a call to a method the remote object lacks.
	ErrNoMethod = errors.New("omq: no such method")
	// ErrBadArity reports an argument-count mismatch.
	ErrBadArity = errors.New("omq: wrong number of arguments")
)

// newID returns a 16-hex-char random identifier for queues and correlation.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable environment breakage.
		panic("omq: rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
