// Package wire implements the framed protocol spoken between mq network
// clients and the mq TCP server. It plays the role AMQP framing plays
// between RabbitMQ and its clients in the paper's deployment.
//
// Every frame is binary: a one-byte protocol marker, the uvarint payload
// length, then a stream of (field id, varint-framed value) pairs with hot
// header keys interned to one byte. Writer.WriteBatch encodes the headers
// of any number of frames into one buffer and sends them, with each message
// body as its own vector, in one scatter/gather write (net.Buffers, one
// writev on TCP): no payload is copied after encode, and the mq server
// sends everything a connection has queued in one system call. OpAck and
// OpNack are one-way: the server sends nothing back. OpDeliver carries no
// queue name: the consumer id names the subscription. A frame that does
// not start with the marker is refused with ErrNotBinary: the
// 4-byte-length JSON framing of pre-v2 peers, the 0xB2 marker of peers
// that still wait for an OpOK to each ack, the 0xB3 marker of peers that
// still expect every commit result to echo its proposal's key, the 0xB4
// marker of peers whose codec cannot decode hex strings sent as raw bytes,
// the 0xB6 marker of peers whose RPC envelope declares the one-way flag
// after the reply-routing fields, and the 0xB7 marker of peers whose codec
// tags every value and frames every struct field with its length. The hard
// size cap protects both ends from corrupt peers.
//
// # Buffer ownership
//
// Reader.Read returns a frame that is only valid until the next Read on
// the same Reader: Body and Stats alias an internal buffer that the next
// frame overwrites (Headers and string fields are fresh copies). Callers
// that retain a frame — or its Body — past the next Read must copy first;
// Frame.Clone does a deep copy. Writer.Write and WriteBatch never retain a
// frame or its body.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxFrameSize is the largest frame either side will accept (16 MiB); large
// enough for a compressed 512 KB chunk plus headers with ample margin.
const MaxFrameSize = 16 << 20

// binaryMarker is the first byte of every frame (0xB2 until acks went
// one-way, 0xB3 until a committed result stopped echoing its proposal key,
// 0xB4 until the RPC codec sent lowercase-hex strings as raw bytes, 0xB6
// until the RPC envelope declared its one-way flag before the reply-routing
// fields, 0xB7 until the RPC codec went positional: no tag or length below
// the top-level value; 0xB5 is objstore's batch magic).
const binaryMarker = 0xB8

// Frame operation codes. Values are part of the protocol; never renumber.
type Op int

const (
	OpDeclareQueue Op = iota + 1
	OpDeleteQueue
	OpDeclareExchange
	OpBindQueue
	OpUnbindQueue
	OpPublish
	OpSubscribe
	OpCancel
	OpAck
	OpNack
	OpDeliver
	OpOK
	OpError
	OpQueueStats
	OpStatsReply
	OpPing
	OpPong
)

// String returns the protocol name of the op code.
func (o Op) String() string {
	switch o {
	case OpDeclareQueue:
		return "declare-queue"
	case OpDeleteQueue:
		return "delete-queue"
	case OpDeclareExchange:
		return "declare-exchange"
	case OpBindQueue:
		return "bind-queue"
	case OpUnbindQueue:
		return "unbind-queue"
	case OpPublish:
		return "publish"
	case OpSubscribe:
		return "subscribe"
	case OpCancel:
		return "cancel"
	case OpAck:
		return "ack"
	case OpNack:
		return "nack"
	case OpDeliver:
		return "deliver"
	case OpOK:
		return "ok"
	case OpError:
		return "error"
	case OpQueueStats:
		return "queue-stats"
	case OpStatsReply:
		return "stats-reply"
	case OpPing:
		return "ping"
	case OpPong:
		return "pong"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Frame is the unit of exchange on the wire. Which fields are meaningful
// depends on Op; unused fields are omitted from the encoding.
type Frame struct {
	Op  Op
	Seq uint64 // request/response correlation

	Queue    string
	Exchange string
	Kind     string // exchange kind for declare
	Key      string // routing/binding key

	ConsumerID string
	Prefetch   int
	DeliveryID uint64
	Requeue    bool

	MessageID  string
	Headers    map[string]string
	Body       []byte
	Persistent bool
	Redelivery int

	Err   string
	Stats []byte // codec-encoded mq.QueueStats
}

// Clone returns a deep copy of f, safe to retain past the next Read on the
// Reader that produced it.
func (f *Frame) Clone() *Frame {
	nf := *f
	if f.Body != nil {
		nf.Body = append([]byte(nil), f.Body...)
	}
	if f.Stats != nil {
		nf.Stats = append([]byte(nil), f.Stats...)
	}
	if f.Headers != nil {
		nf.Headers = make(map[string]string, len(f.Headers))
		for k, v := range f.Headers {
			nf.Headers[k] = v
		}
	}
	return &nf
}

// Binary field ids. Part of the protocol: append-only, never renumber.
// fBody is always the last field of a frame so the body bytes can be
// written (and read) as one contiguous tail.
const (
	fOp = iota + 1
	fSeq
	fQueue
	fExchange
	fKind
	fKey
	fConsumerID
	fPrefetch
	fDeliveryID
	fRequeue
	fMessageID
	fHeaders
	fPersistent
	fRedelivery
	fErr
	fStats
	fBody
)

// internedKeys interns the header keys hot on the publish path (trace
// context) to a single byte on the wire. Ids are part of the protocol:
// append-only, never renumber. Id 0 escapes to a length-prefixed literal
// key, so unknown keys always travel. Retired ids stay unassigned, and a
// frame that uses one is refused: id 1 was the codec header, ids 5 and 6
// the workspace-routing epoch and key. The strings mirror obs constants;
// wire stays dependency-free, and a drifted name only costs bytes, never
// correctness.
var internedKeys = []string{
	2: "x-obs-trace",
	3: "x-obs-span",
	4: "x-obs-pub",
}

var internedKeyID = func() map[string]byte {
	m := make(map[string]byte, len(internedKeys))
	for id, k := range internedKeys {
		if k != "" {
			m[k] = byte(id)
		}
	}
	return m
}()

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrShortFrame    = errors.New("wire: truncated frame")
	ErrNotBinary     = fmt.Errorf("wire: frame lacks the 0x%X binary marker (peer of an older protocol?)", binaryMarker)
)

// maxPrefix is the space reserved at the front of an encode buffer for the
// right-aligned marker byte + uvarint payload length.
const maxPrefix = 1 + binary.MaxVarintLen32

// encodeBufPool recycles frame-encode buffers across writers and frames;
// the body is never copied into them, so they stay small.
var encodeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledBuf bounds the capacity of buffers returned to the pool so one
// giant frame doesn't pin its memory forever.
const maxPooledBuf = 1 << 16

func putEncodeBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		encodeBufPool.Put(bp)
	}
}

// Writer encodes frames onto an io.Writer. Not safe for concurrent use;
// callers serialize writes. Writes never retain a frame or its body.
type Writer struct {
	w      io.Writer
	vecs   [][]byte
	splits []int // header offsets at which a body vector goes
}

// NewWriter returns a Writer emitting frames to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write encodes and sends a single frame: WriteBatch of one.
func (fw *Writer) Write(f *Frame) error { return fw.WriteBatch([]Frame{*f}) }

// WriteBatch encodes frames back to back and sends them in one
// scatter/gather write (net.Buffers → one writev on TCP): the frames'
// headers share one encode buffer, and each non-empty body goes out as its
// own vector, never copied after encode. If any frame is too large, nothing
// is written.
func (fw *Writer) WriteBatch(frames []Frame) error {
	bp := encodeBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	splits := fw.splits[:0]
	for i := range frames {
		f := &frames[i]
		// Encode the fields behind a reserved prefix, then slide them left
		// over the prefix's unused bytes so the headers stay contiguous.
		p := len(buf)
		buf = append(buf, make([]byte, maxPrefix)...)
		buf = appendFields(buf, f)
		fields := len(buf) - p - maxPrefix
		total := fields + len(f.Body)
		if total > MaxFrameSize {
			putEncodeBuf(bp, buf)
			return ErrFrameTooLarge
		}
		buf[p] = binaryMarker
		w := 1 + binary.PutUvarint(buf[p+1:p+maxPrefix], uint64(total))
		copy(buf[p+w:], buf[p+maxPrefix:])
		buf = buf[:p+w+fields]
		if len(f.Body) > 0 {
			splits = append(splits, len(buf))
		}
	}
	var err error
	if len(splits) == 0 {
		_, err = fw.w.Write(buf)
	} else {
		vecs, start, body := fw.vecs[:0], 0, 0
		for i := range frames {
			if len(frames[i].Body) == 0 {
				continue
			}
			vecs = append(vecs, buf[start:splits[body]], frames[i].Body)
			start = splits[body]
			body++
		}
		if start < len(buf) {
			vecs = append(vecs, buf[start:])
		}
		nb := net.Buffers(vecs)
		_, err = nb.WriteTo(fw.w)
		clear(vecs) // WriteTo may stop early; drop every body reference
		fw.vecs = vecs[:0]
	}
	fw.splits = splits[:0]
	putEncodeBuf(bp, buf)
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// appendFields encodes every present field except the body bytes; for a
// non-empty body it emits the field id and length so the raw bytes can
// follow as a separate write vector.
func appendFields(b []byte, f *Frame) []byte {
	b = append(b, fOp)
	b = binary.AppendVarint(b, int64(f.Op))
	b = appendUintField(b, fSeq, f.Seq)
	b = appendStrField(b, fQueue, f.Queue)
	b = appendStrField(b, fExchange, f.Exchange)
	b = appendStrField(b, fKind, f.Kind)
	b = appendStrField(b, fKey, f.Key)
	b = appendStrField(b, fConsumerID, f.ConsumerID)
	if f.Prefetch != 0 {
		b = append(b, fPrefetch)
		b = binary.AppendVarint(b, int64(f.Prefetch))
	}
	b = appendUintField(b, fDeliveryID, f.DeliveryID)
	if f.Requeue {
		b = append(b, fRequeue)
	}
	b = appendStrField(b, fMessageID, f.MessageID)
	if len(f.Headers) > 0 {
		b = append(b, fHeaders)
		b = binary.AppendUvarint(b, uint64(len(f.Headers)))
		for k, v := range f.Headers {
			if id, ok := internedKeyID[k]; ok {
				b = append(b, id)
			} else {
				b = append(b, 0)
				b = binary.AppendUvarint(b, uint64(len(k)))
				b = append(b, k...)
			}
			b = binary.AppendUvarint(b, uint64(len(v)))
			b = append(b, v...)
		}
	}
	if f.Persistent {
		b = append(b, fPersistent)
	}
	if f.Redelivery != 0 {
		b = append(b, fRedelivery)
		b = binary.AppendVarint(b, int64(f.Redelivery))
	}
	b = appendStrField(b, fErr, f.Err)
	if len(f.Stats) > 0 {
		b = append(b, fStats)
		b = binary.AppendUvarint(b, uint64(len(f.Stats)))
		b = append(b, f.Stats...)
	}
	if len(f.Body) > 0 {
		b = append(b, fBody)
		b = binary.AppendUvarint(b, uint64(len(f.Body)))
	}
	return b
}

func appendStrField(b []byte, id byte, s string) []byte {
	if s == "" {
		return b
	}
	b = append(b, id)
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendUintField(b []byte, id byte, v uint64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, id)
	return binary.AppendUvarint(b, v)
}

// Reader decodes frames from an io.Reader. Not safe for concurrent use.
//
// The returned *Frame, its Body and its Stats are only valid until the
// next Read: they alias buffers the Reader reuses frame-to-frame (the
// fixed per-message allocation the v2 protocol removes). Copy — or
// Frame.Clone — before retaining.
type Reader struct {
	r       *bufio.Reader
	payload []byte
	frame   Frame
}

// NewReader returns a Reader consuming frames from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Read decodes the next frame. It returns io.EOF when the stream ends
// cleanly on a frame boundary, ErrShortFrame when it ends mid-frame and
// ErrNotBinary when a frame does not start with the marker. See the Reader
// doc for the returned frame's lifetime.
func (fr *Reader) Read() (*Frame, error) {
	first, err := fr.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	if first != binaryMarker {
		return nil, ErrNotBinary
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrShortFrame
		}
		return nil, fmt.Errorf("wire: malformed frame length: %w", err)
	}
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	payload := fr.grow(int(n))
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrShortFrame
		}
		return nil, fmt.Errorf("wire: read frame payload: %w", err)
	}
	if err := parseBinary(payload, &fr.frame); err != nil {
		return nil, err
	}
	return &fr.frame, nil
}

// grow returns the payload buffer sized to n, reusing the previous
// allocation when possible and letting one oversized frame's buffer go
// once traffic shrinks again.
func (fr *Reader) grow(n int) []byte {
	if cap(fr.payload) < n || (cap(fr.payload) > 4<<20 && n < 1<<20) {
		fr.payload = make([]byte, n)
	}
	fr.payload = fr.payload[:n]
	return fr.payload
}

var errMalformed = errors.New("wire: malformed binary frame")

// ruvarint decodes a uvarint from data, rejecting truncated or overlong
// encodings.
func ruvarint(data []byte) (uint64, []byte, error) {
	x, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", errMalformed)
	}
	return x, data[w:], nil
}

func rvarint(data []byte) (int64, []byte, error) {
	x, w := binary.Varint(data)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", errMalformed)
	}
	return x, data[w:], nil
}

// rbytes decodes a length-prefixed byte run, bounds-checked against the
// remaining payload.
func rbytes(data []byte) ([]byte, []byte, error) {
	n, rest, err := ruvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: length %d exceeds %d remaining", errMalformed, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// parseBinary decodes a binary frame payload into f. Body and Stats alias
// payload; everything else is copied out.
func parseBinary(payload []byte, f *Frame) error {
	*f = Frame{}
	data := payload
	for len(data) > 0 {
		id := data[0]
		data = data[1:]
		var err error
		switch id {
		case fOp:
			var v int64
			if v, data, err = rvarint(data); err != nil {
				return err
			}
			f.Op = Op(v)
		case fSeq:
			if f.Seq, data, err = ruvarint(data); err != nil {
				return err
			}
		case fQueue:
			if f.Queue, data, err = rstring(data); err != nil {
				return err
			}
		case fExchange:
			if f.Exchange, data, err = rstring(data); err != nil {
				return err
			}
		case fKind:
			if f.Kind, data, err = rstring(data); err != nil {
				return err
			}
		case fKey:
			if f.Key, data, err = rstring(data); err != nil {
				return err
			}
		case fConsumerID:
			if f.ConsumerID, data, err = rstring(data); err != nil {
				return err
			}
		case fPrefetch:
			var v int64
			if v, data, err = rvarint(data); err != nil {
				return err
			}
			f.Prefetch = int(v)
		case fDeliveryID:
			if f.DeliveryID, data, err = ruvarint(data); err != nil {
				return err
			}
		case fRequeue:
			f.Requeue = true
		case fMessageID:
			if f.MessageID, data, err = rstring(data); err != nil {
				return err
			}
		case fHeaders:
			if f.Headers, data, err = rheaders(data); err != nil {
				return err
			}
		case fPersistent:
			f.Persistent = true
		case fRedelivery:
			var v int64
			if v, data, err = rvarint(data); err != nil {
				return err
			}
			f.Redelivery = int(v)
		case fErr:
			if f.Err, data, err = rstring(data); err != nil {
				return err
			}
		case fStats:
			if f.Stats, data, err = rbytes(data); err != nil {
				return err
			}
		case fBody:
			if f.Body, data, err = rbytes(data); err != nil {
				return err
			}
			if len(data) != 0 {
				return fmt.Errorf("%w: %d bytes after body", errMalformed, len(data))
			}
		default:
			return fmt.Errorf("%w: unknown field %d", errMalformed, id)
		}
	}
	return nil
}

func rstring(data []byte) (string, []byte, error) {
	raw, rest, err := rbytes(data)
	if err != nil {
		return "", nil, err
	}
	return string(raw), rest, nil
}

func rheaders(data []byte) (map[string]string, []byte, error) {
	count, data, err := ruvarint(data)
	if err != nil {
		return nil, nil, err
	}
	// Each entry is at least 2 bytes (key id + value length).
	if count > uint64(len(data))/2+1 {
		return nil, nil, fmt.Errorf("%w: header count %d exceeds payload", errMalformed, count)
	}
	m := make(map[string]string, count)
	for i := uint64(0); i < count; i++ {
		if len(data) == 0 {
			return nil, nil, fmt.Errorf("%w: truncated headers", errMalformed)
		}
		id := data[0]
		data = data[1:]
		var k string
		if id == 0 {
			if k, data, err = rstring(data); err != nil {
				return nil, nil, err
			}
		} else if int(id) < len(internedKeys) && internedKeys[id] != "" {
			k = internedKeys[id]
		} else {
			return nil, nil, fmt.Errorf("%w: unknown interned header key %d", errMalformed, id)
		}
		var v string
		if v, data, err = rstring(data); err != nil {
			return nil, nil, err
		}
		m[k] = v
	}
	return m, data, nil
}
