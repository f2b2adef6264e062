// Package reclog is the one durable record format of the server: the broker
// journal, the chunk log and the metadata WAL are each a reclog file
// (DESIGN §20). A file opens with its log's 8-byte magic, which names the
// log and the encoding of its payloads; records follow, each framed as
//
//	uvarint(len(payload)) | payload | crc32c(payload)
//
// with the CRC little-endian. A payload is never empty, so a zero length
// ends the log: that is how the zero-filled tail a Writer preallocates
// reads. Replay reads records in order and ends there or at the first
// record that is cut short, fails its CRC or that the log's own decoder
// refuses; what precedes it stands and the rest is cut off, so an append
// never lands behind a torn tail. Writer is the one appender.
package reclog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrMagic is wrapped by the error that refuses a file which does not
	// open with the log's magic.
	ErrMagic = errors.New("reclog: unknown format")
	// ErrInUse is wrapped by the error that refuses a log another open
	// holds: a second replay would cut the file under the first's mapping.
	ErrInUse = errors.New("reclog: log is open elsewhere")
)

// Frame appends to buf one record whose payload is parts, concatenated.
// It panics on an empty payload, which would read back as the end of the
// log.
func Frame(buf []byte, parts ...[]byte) []byte {
	n, crc := 0, uint32(0)
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crcTable, p)
	}
	if n == 0 {
		panic("reclog: empty payload")
	}
	buf = slices.Grow(buf, binary.MaxVarintLen64+n+4)
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// Check reports whether rec, a payload and the four CRC bytes after it as
// read back from a log, is whole.
func Check(rec []byte) bool {
	n := len(rec) - 4
	return n >= 0 && crc32.Checksum(rec[:n], crcTable) == binary.LittleEndian.Uint32(rec[n:])
}

// Open opens the log at path for reading and writing, creating it if it is
// missing. A file shorter than magic whose bytes begin it, as a crash while
// creating the file leaves one, starts afresh; a file that opens with
// anything else is refused untouched. Open then replays the records through
// apply, in file order, each with the file offset of its payload; the
// payload is apply's only during the call. It cuts the file after the last
// whole record apply accepted — so of a zero tail too — and returns the
// file, positioned there, and that offset: where the next record goes.
// The file stays locked to it until it is closed; a log that is open
// already is refused untouched, with ErrInUse.
func Open(path, magic string, apply func(payload []byte, off int64) bool) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	end := int64(0)
	if err = lock(f); err == nil {
		end, err = replay(f, magic, apply)
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		_ = f.Close()
		return nil, 0, err
	}
	return f, end, nil
}

func replay(f *os.File, magic string, apply func([]byte, int64) bool) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	head := make([]byte, len(magic))
	n, _ := io.ReadFull(r, head)
	if string(head[:n]) != magic[:n] {
		return 0, fmt.Errorf("%w: %s does not open with %q", ErrMagic, f.Name(), magic)
	}
	end := int64(len(magic))
	if n < len(magic) {
		_, err := f.WriteAt([]byte(magic), 0)
		return end, err
	}
	var rec []byte
	for {
		lead, _ := r.Peek(binary.MaxVarintLen64)
		n, k := binary.Uvarint(lead)
		if k <= 0 || n == 0 || n > uint64(info.Size()-end) {
			break
		}
		_, _ = r.Discard(k) // Peek returned these bytes
		rec = slices.Grow(rec[:0], int(n)+4)[:n+4]
		off := end + int64(k)
		if _, err := io.ReadFull(r, rec); err != nil || !Check(rec) || !apply(rec[:n], off) {
			break
		}
		end = off + int64(n) + 4
	}
	if end < info.Size() {
		return end, f.Truncate(end)
	}
	return end, nil
}

// Create creates the log at path, which must not exist, holding magic
// only, open for reading and writing as a mapping needs and locked as Open
// locks it.
func Create(path, magic string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lock(f); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := f.WriteString(magic); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// AppendString appends s to a payload, uvarint-length-prefixed.
func AppendString(p []byte, s string) []byte {
	return append(binary.AppendUvarint(p, uint64(len(s))), s...)
}

// Decoder reads the fields of one payload. Once a field runs past the end
// it reads zero values, and OK stays false.
type Decoder struct {
	p  []byte
	ok bool
}

// NewDecoder reads the fields of p.
func NewDecoder(p []byte) Decoder { return Decoder{p: p, ok: true} }

// Uvarint reads one uvarint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.ok = false
		return 0
	}
	d.p = d.p[n:]
	return v
}

// Str reads one string written by AppendString.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if n > uint64(len(d.p)) {
		d.ok = false
		return ""
	}
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

// Rest returns the bytes not read yet.
func (d *Decoder) Rest() []byte { return d.p }

// OK reports whether every field read so far was whole.
func (d *Decoder) OK() bool { return d.ok }

// Done reports whether every field was whole and nothing is left.
func (d *Decoder) Done() bool { return d.ok && len(d.p) == 0 }
